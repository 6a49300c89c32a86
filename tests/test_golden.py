"""Golden digests: refactors of the simulator must not change one byte of output.

Each grid point runs one seeded scenario, once, and compares the sha256 of its
transmission log, the sha256 of its per-transmission reception accounting and
a few counts against `golden_digests.json`. The grid covers both modes, 1/2/3 ms
slots, two seeds, a 2 s run and a run cut off mid-window (frames in flight),
plus two tsnctl points whose vehicles spawn every 50 ms, so every other one is
created on a window boundary, where it joins the window clock ahead of that
boundary's event. On the second, a 1 km road holds several platoons, whose
members' data slots coincide, so the order in which the clock calls its
members shows in the order of same-instant transmissions. A last tsnctl point,
at both durations, has 1 ms slots, 100 B frames (seven fit a slot) and a
message every 20 ms: each burst sends the messages that fell due since the
last one, among them those due at the instant the burst starts, so the log
pins when a due message joins the queue. (With 800 B frames every burst is
one overrunning frame, whatever the queue holds.)
Two baseline points, at both durations, put all 20 vehicles at one spot with
a message every 2 ms, shorter than an 800 B frame's airtime: every MAC keeps
a backlog, many frames wait behind their sender's frame on air, and backoff
expiries, idle edges and frame ends of different vehicles fall on one
instant. No frame is sensed at the instant it starts, so what the MACs
decide there does not rest on the order of those events; the log pins the
order of its same-instant records, which follows the dispatch order.
A last tsnctl point, at both durations, puts 60 vehicles on a 400 m road with
150 m of range and 1 ms slots. Hidden terminals make listeners hear different
subsets of a window's announces: the earliest announce of a window often
collided at a listener, or a master the listener did not hear this window
wins, so the log pins which candidates the election weighs.
Each point has three keys: `rec0` hashes the accounting line alone (the
receiver count twice, which keeps the fixture's layout, then the collided
count), `rec1` appends to each line its per-receiver outcomes, as
`_util.outcomes` reads them from the frame's two masks, and `counters` hashes what the
log does not show: each controller's FSM record (`transitions`), its
`deferred`, `rejected_joins`, join retries and `announce_skips`, its queue
length and messages taken at the run end, and each CSMA MAC's `deferrals`,
messages taken and frames transmitted. The run keeps no counter for three of
these, and `_util` computes them as the fixture was made, for this digest and
`tools/equivalence.py` alike: join retries, messages taken (the source's
`seq`) and frames transmitted, with each FSM record hashed as the line
`_util.fsm_record_line` writes.

The same runs also go through the carrier-sense oracle (`_carrier_sense`):
no frame that its protocol sensed before sending started while its sender
sensed another frame. Each is rerun under the kernel shuffle (`_shuffle`)
with three salts, and must log the same frames and keep the same FSM records
and counters; its kernel trace shows that every spawn ran before the other
events of its instant, the one same-instant order that the outcome rests
on. On the tsnctl runs they pin two facts that the slot controller relies
on. Only announces start between a window start and the end of its slot 0,
and each fits slot 0, so the window clock can take a window's announces from
where the window opened in the log. Every announce and allocation carries
its sender's creation time, so a controller can tell its master's frames by
election key alone.

A change that alters output on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
from _carrier_sense import run_sensed_busy
from _shuffle import late_spawns, order_faults
from _util import (frames_transmitted, fsm_record_line, join_retries, outcomes,
                   receivers_collided, receivers_expected)

from platoonsim.frames import CONTROL_ALLOCATION, CONTROL_ANNOUNCE
from platoonsim.kernel import MS
from platoonsim.metrics import write_transmission_log
from platoonsim.radio import RadioConfig
from platoonsim.scenario import (MODE_BASELINE, MODE_TSNCTL, RunResult, ScenarioConfig,
                                 run_scenario)
from platoonsim.tsnctl import WindowConfig

FIXTURE = Path(__file__).with_name("golden_digests.json")

# 2 s ends on a window boundary; the other cut lands 10.54 ms into a window,
# inside the data slots, while frames are still on air
DURATIONS = (2_000_000_000, 1_910_543_210)


def _grid() -> list[tuple[str, str, int, int, int, dict]]:
    points = []
    for mode, slots in ((MODE_TSNCTL, (1, 2, 3)), (MODE_BASELINE, (2,))):
        for slot_ms in slots:
            for seed in (1, 2):
                for duration in DURATIONS:
                    points.append((f"{mode}-{slot_ms}ms-seed{seed}-{duration}ns",
                                   mode, slot_ms, seed, duration, {}))
    spawn50 = {"spawn_interval_ns": 50 * MS}
    for suffix, extra in (("", spawn50), ("-area1000m", {**spawn50, "area_length_m": 1000.0})):
        points.append((f"{MODE_TSNCTL}-2ms-seed1-{DURATIONS[0]}ns-spawn50ms{suffix}",
                       MODE_TSNCTL, 2, 1, DURATIONS[0], extra))
    for duration in DURATIONS:
        points.append((f"{MODE_TSNCTL}-1ms-seed1-{duration}ns-msg20ms",
                       MODE_TSNCTL, 1, 1, duration,
                       {"message_interval_ns": 20 * MS, "payload_size_b": 100}))
    for duration in DURATIONS:
        points.append((f"{MODE_BASELINE}-2ms-seed1-{duration}ns-area0m-msg2ms",
                       MODE_BASELINE, 2, 1, duration,
                       {"area_length_m": 0.0, "message_interval_ns": 2 * MS}))
    for duration in DURATIONS:
        points.append((f"{MODE_TSNCTL}-1ms-seed1-{duration}ns-n60-area400m-range150m",
                       MODE_TSNCTL, 1, 1, duration,
                       {"vehicle_count": 60, "area_length_m": 400.0,
                        "radio": RadioConfig(range_m=150.0)}))
    return points


RECORDS = ("rec0", "rec1", "counters")


def _keys() -> list[str]:
    return [f"{point[0]}-{record}" for point in _grid() for record in RECORDS]


def counter_digest(run) -> dict:
    """The sha256 of every controller's and MAC's counters, in vehicle id order."""
    h = hashlib.sha256()
    for vid, ctl in sorted(run.controllers.items()):
        h.update(f"ctl {vid} {ctl.deferred} {ctl.rejected_joins} {join_retries(ctl)} "
                 f"{ctl.announce_skips} {len(ctl.queues)} {ctl.source.seq}\n".encode())
        for record in ctl.transitions:
            h.update(f"{fsm_record_line(record)}\n".encode())
    for vid, mac in sorted(run.macs.items()):
        h.update(f"mac {vid} {mac.deferrals} {mac.source.seq} "
                 f"{frames_transmitted(mac)}\n".encode())
    ctls, macs = run.controllers.values(), run.macs.values()
    return {
        "counters_sha256": h.hexdigest(),
        "fsm_steps": sum(len(ctl.transitions) for ctl in ctls),
        "deferred": sum(ctl.deferred for ctl in ctls),
        "deferrals": sum(mac.deferrals for mac in macs),
    }


def run_point(mode: str, slot_ms: int, seed: int, duration: int, extra: dict) -> RunResult:
    """The single run of one grid point, with its kernel trace.

    `extra` holds the point's ScenarioConfig fields beyond the common ones,
    and may override the 20 vehicles.
    """
    cfg = ScenarioConfig(**{"vehicle_count": 20, **extra}, mode=mode,
                         sim_duration_ns=duration, seed=seed, repetitions=1,
                         window=WindowConfig(slot_len_ns=slot_ms * MS))
    return run_scenario(cfg, seed, trace=True)


def digests(run: RunResult, tmp: Path) -> list[dict]:
    """The rec0, rec1 and counters digests of one grid point's run."""
    log = tmp / "transmissions.log"
    write_transmission_log(run, log)
    log_sha256 = hashlib.sha256(log.read_bytes()).hexdigest()
    accounting = [hashlib.sha256(), hashlib.sha256()]
    for tx in run.medium.log:
        line = f"{receivers_expected(tx)} {receivers_expected(tx)} {receivers_collided(tx)}"
        flags = sorted(outcomes(tx).items())
        accounting[0].update(line.encode() + b"\n")
        line += " " + " ".join(f"{r}:{int(c)}" for r, c in flags)
        accounting[1].update(line.encode() + b"\n")
    txs = run.medium.log
    counts = {
        "tx": len(txs),
        "collided": sum(receivers_collided(tx) > 0 for tx in txs),
        "receptions": sum(receivers_expected(tx) for tx in txs),
        "receptions_done": sum(receivers_expected(tx) for tx in txs),
        "receptions_collided": sum(receivers_collided(tx) for tx in txs),
    }
    return [*({"log_sha256": log_sha256, "accounting_sha256": h.hexdigest(), **counts}
              for h in accounting), counter_digest(run)]


def table(runs: dict[str, RunResult], tmp: Path) -> dict[str, dict]:
    """Every grid point's digests, keyed as in the fixture."""
    out = {}
    for key, run in runs.items():
        for record, digest in zip(RECORDS, digests(run, tmp)):
            out[f"{key}-{record}"] = digest
    return out


def grid_runs() -> dict[str, RunResult]:
    """The run of every grid point, keyed by the point."""
    return {key: run_point(*point) for key, *point in _grid()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs() -> dict[str, RunResult]:
    return grid_runs()


@pytest.fixture(scope="module")
def computed(runs, tmp_path_factory) -> dict:
    return table(runs, tmp_path_factory.mktemp("golden"))


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(_keys())


@pytest.mark.parametrize("key", _keys(), ids=_keys())
def test_output_matches_golden_digest(golden, computed, key):
    assert computed[key] == golden[key]


@pytest.mark.parametrize("point", [point[0] for point in _grid()])
def test_sensed_frames_start_on_an_idle_channel(runs, point):
    """The carrier-sense oracle finds no sensed frame that started on a busy channel."""
    assert run_sensed_busy(runs[point]) == []


def test_spawns_run_first_at_their_instant(runs):
    """A spawn at t is dispatched before every other event at t, the one
    same-instant order that a run's outcome rests on. Window-clock events
    and first message arrivals share instants with spawns on the grid."""
    shared = 0
    for point, run in runs.items():
        trace = run.medium.kernel.trace
        assert late_spawns(trace) == [], point
        spawned_at = {at for at, _seq, _target, kind in trace if kind == "SPAWN"}
        shared += sum(at in spawned_at and kind != "SPAWN" for at, _seq, _target, kind in trace)
    assert shared > 0


SALTS = (1, 2, 3)


@pytest.mark.parametrize("point", [point[0] for point in _grid()])
def test_same_instant_order_leaves_the_outcome_unchanged(runs, point):
    """Rerun with same-instant events in a shuffled order, spawns first, the
    point logs the same frames and keeps the same FSM records and counters."""
    assert order_faults(runs[point], SALTS) == []


TSNCTL_POINTS = [point[0] for point in _grid() if point[1] == MODE_TSNCTL]


@pytest.mark.parametrize("point", TSNCTL_POINTS)
def test_only_announces_start_before_the_end_of_slot_0(runs, point):
    """A frame that starts in [w, w + slot + max_delay) of a window w is an
    announce, and every announce starts in [w, w + slot - its airtime]."""
    run = runs[point]
    window, slot = run.cfg.window.window_ns, run.cfg.window.slot_len_ns
    slot0_end = slot + run.cfg.radio.max_delay
    for tx in run.medium.log:
        offset = tx.start % window
        if tx.kind is CONTROL_ANNOUNCE:
            assert offset <= slot - (tx.end - tx.start), tx
        else:
            assert offset >= slot0_end, tx


@pytest.mark.parametrize("point", TSNCTL_POINTS)
def test_control_frames_carry_their_senders_creation_time(runs, point):
    run = runs[point]
    control = [tx for tx in run.medium.log if tx.kind in (CONTROL_ANNOUNCE, CONTROL_ALLOCATION)]
    assert control
    for tx in control:
        assert tx.generated_at == run.controllers[tx.sender].created_at, tx


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        fixture = table(grid_runs(), Path(d))
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture)} digests to {FIXTURE}", file=sys.stderr)
