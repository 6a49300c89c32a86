"""A kernel shuffle: same-instant events dispatched in a seeded random order.

The kernel runs the events of one instant in the order they were scheduled.
A run's outcome must not rest on that order beyond one rule: a spawn at t
runs before every other event at t (`run_scenario` schedules the spawns
first), since a frame's receivers are the vehicles registered when it is
broadcast. `shuffled(salt)` replaces `Kernel.at` so that the events of one
instant run in an order drawn from the salt (a blake2b hash of the salt and
the event's seq), spawns first among them in their own order.
`late_spawns` reads the spawn rule from a kernel trace, and
`order_faults` runs a config under each salt and names what differs from
the run in scheduling order: the set of logged frames, a controller's FSM
record or counters, or a MAC's counters. The order of the log's
same-instant records may change; it is not compared.

`tools/equivalence.py` reads this module too, for its `order_free` field.
"""

from __future__ import annotations

from contextlib import contextmanager
from hashlib import blake2b
from heapq import heappush

from _util import fsm_record_line

from platoonsim.kernel import SPAWN, Kernel
from platoonsim.scenario import run_scenario


@contextmanager
def shuffled(salt: int):
    """`Kernel.at` dispatches same-instant events in an order drawn from salt, spawns first."""
    real = Kernel.at

    def at(self, fire_at, target, kind, fn, payload=None):
        if fire_at < self.now:
            raise ValueError(f"cannot schedule event at {fire_at} ns before now={self.now} ns")
        seq = self._seq
        self._seq = seq + 1
        # a spawn's key is its seq, below every other key; the others sort by
        # their hash, the seq in the low bits keeping each key unique
        key = seq if kind is SPAWN else 1 << 128 | int.from_bytes(
            blake2b(f"{salt} {seq}".encode(), digest_size=8).digest(), "big") << 64 | seq
        heappush(self._heap, (fire_at, key, fn, payload, target, kind))

    Kernel.at = at
    try:
        yield
    finally:
        Kernel.at = real


def late_spawns(trace: list[tuple]) -> list[tuple]:
    """The adjacent (event, spawn) pairs of a kernel trace where a spawn ran
    after another event of its instant; empty if spawns ran first."""
    return [(before, after) for before, after in zip(trace, trace[1:])
            if before[0] == after[0] and before[3] != "SPAWN" and after[3] == "SPAWN"]


def outcome(run) -> dict:
    """What a run decided, with no trace of its same-instant order.

    The logged frames as a sorted list, and each controller's FSM record
    and counters and each MAC's counters, by vehicle.
    """
    parts = {"frames": sorted((tx.sender, tx.start, tx.end, tx.size, tx.kind.name, tx.seq,
                               tx.generated_at, tx.receivers, tx.hit) for tx in run.medium.log)}
    for vid, ctl in sorted(run.controllers.items()):
        parts[f"controller {vid}"] = (
            [fsm_record_line(record) for record in ctl.transitions], ctl.deferred,
            ctl.rejected_joins, ctl.announce_skips, len(ctl.queues), ctl.source.seq)
    for vid, mac in sorted(run.macs.items()):
        parts[f"mac {vid}"] = (mac.deferrals, mac.source.seq, len(mac.queue))
    return parts


def order_faults(run, salts) -> list[str]:
    """`salt: part` for each salt and each part of `outcome` that a shuffled
    rerun of run's config, under the config's seed, changes; empty if none does."""
    want, faults = outcome(run), []
    for salt in salts:
        with shuffled(salt):
            got = outcome(run_scenario(run.cfg, run.cfg.seed))
        faults += [f"{salt}: {part}" for part in {**want, **got} if want.get(part) != got.get(part)]
    return faults
