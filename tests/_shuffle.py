"""A kernel shuffle: same-instant events dispatched in a seeded random order.

The kernel runs the events of one instant in the order they were scheduled.
A run's outcome must not rest on that order beyond one rule: a spawn at t
runs before every other event at t (`run_scenario` schedules the spawns
first), since a frame's receivers are the vehicles registered when it is
broadcast. `shuffled(salt)` replaces `Kernel.at` so that the events of one
instant run in an order drawn from the salt (a blake2b hash of the salt and
the event's seq), spawns first among them in their own order.
`late_spawns` reads the spawn rule from a kernel trace, and
`order_faults` runs a config under each salt and names each field of its
`_util.run_digest` that differs from the run in scheduling order: the
logged frames with the messages they carry, a `results.csv`, or a
controller's or MAC's record. Every field is compared but the log's sha256:
the order of the log's same-instant records follows the dispatch order.

`order_faults` is the run check `order_free` of `_checks.CHECKS`.
"""

from __future__ import annotations

from contextlib import contextmanager
from hashlib import blake2b
from heapq import heappush

from _util import run_digest

from platoonsim.kernel import MS, SPAWN, Kernel
from platoonsim.radio import RadioConfig
from platoonsim.scenario import MODE_BASELINE, ScenarioConfig, run_scenario

# every vehicle at one spot with no detection latency: under a rule that
# senses a frame at the instant it starts, two MACs that decide at one
# instant race, and the one dispatched first is sensed by the other
RACE = ScenarioConfig(vehicle_count=3, mode=MODE_BASELINE, area_length_m=0.0,
                      message_interval_ns=2 * MS, sim_duration_ns=200 * MS, seed=1,
                      radio=RadioConfig(cca_detect_ns=0))


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


def order_faults(cfg, want: dict, salts) -> list[str]:
    """`salt: field` for each salt and each field of `_util.run_digest` but
    the log's sha256 that a shuffled rerun of cfg, under cfg's seed, changes
    from `want`, the digest of the run in scheduling order; empty if none does."""
    faults = []
    for salt in salts:
        with shuffled(salt):
            got = run_digest(run_scenario(cfg, cfg.seed))
        faults += [f"{salt}: {field}" for field in {**want, **got}
                   if field != "log_sha256" and want.get(field) != got.get(field)]
    return faults
