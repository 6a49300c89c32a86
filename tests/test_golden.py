"""Golden digests: refactors of the simulator must not change one byte of output.

Each of the 26 grid points runs one seeded scenario, once, and compares its
digest (`_util.run_digest`) with the point's entry in `golden_digests.json`:
the sha256 of the transmission log, the counts of logged and of collided
frames, one sha256 over the logged frames with the `seq` and `generated_at`
of the message each carries and its two masks, the sha256 of a
one-repetition `results.csv` under each counting rule, and one record per
controller and per MAC: its counters, join retries, messages taken, frames
transmitted and frames queued at the run end, and for a controller the
sha256 of its FSM record lines. The log does not show which message a frame
carries, so only the frames field sees a queue that sends its messages out
of order.

The grid covers both modes, 1/2/3 ms slots, two seeds, a 2 s run and a run
cut off mid-window (frames in flight). Beyond that:
- two tsnctl points whose vehicles spawn every 50 ms, so every other one is
  created on a window boundary, where it joins the window clock ahead of
  that boundary's event. On the second, a 1 km road holds several platoons,
  whose members' data slots coincide, so the order in which the clock calls
  its members shows in the order of same-instant transmissions;
- a tsnctl point, at both durations, with 1 ms slots, 100 B frames (seven
  fit a slot) and a message every 20 ms: each burst sends the messages that
  fell due since the last one, among them those due at the instant the
  burst starts, so the log pins when a due message joins the queue (with
  800 B frames every burst is one overrunning frame, whatever the queue
  holds);
- a baseline point, at both durations, with all 20 vehicles at one spot and
  a message every 2 ms, shorter than an 800 B frame's airtime: every MAC
  keeps a backlog, many frames wait behind their sender's frame on air, and
  backoff expiries, idle edges and frame ends of different vehicles fall on
  one instant. No frame is sensed at the instant it starts, so what the
  MACs decide there does not rest on the order of those events; the log
  pins the order of its same-instant records, which follows the dispatch
  order;
- a baseline point, at both durations, with the 20 vehicles at one spot, no
  detection latency (`cca_detect_ns = 0`) and a message every 100 ms: a
  frame is sensed from the instant after it starts, so co-located MACs that
  decide at one instant do not see each other's frames and collide;
- a tsnctl point, at both durations, with 60 vehicles on a 400 m road, 150 m
  of range and 1 ms slots. Hidden terminals make listeners hear different
  subsets of a window's announces: the earliest announce of a window often
  collided at a listener, or a master the listener did not hear this window
  wins, so the log pins which candidates the election weighs.

Every run check (`_checks.CHECKS`) runs on every point: the overlap oracle,
the carrier-sense oracle, the window clock's two facts and the kernel
shuffle. Each run's kernel trace also shows that every spawn ran before the
other events of its instant, the one same-instant order that the outcome
rests on.

A change that alters output on purpose shows it here: it regenerates the
fixture with

    PYTHONPATH=src python tests/test_golden.py

adding a point first if no point's output moves, and says why in
CHANGES.md. CI's sweep against the merge base reads a changed fixture as
the sign that output changed on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from _checks import CHECKS, SALTS
from _shuffle import late_spawns
from _util import run_digest

from platoonsim.kernel import MS
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
        points.append((f"{MODE_BASELINE}-2ms-seed1-{duration}ns-area0m-cca0ns",
                       MODE_BASELINE, 2, 1, duration,
                       {"area_length_m": 0.0, "message_interval_ns": 100 * MS,
                        "radio": RadioConfig(cca_detect_ns=0)}))
    for duration in DURATIONS:
        points.append((f"{MODE_TSNCTL}-1ms-seed1-{duration}ns-n60-area400m-range150m",
                       MODE_TSNCTL, 1, 1, duration,
                       {"vehicle_count": 60, "area_length_m": 400.0,
                        "radio": RadioConfig(range_m=150.0)}))
    return points


def run_point(mode: str, slot_ms: int, seed: int, duration: int, extra: dict) -> RunResult:
    """The single run of one grid point, with its kernel trace.

    `extra` holds the point's ScenarioConfig fields beyond the common ones,
    and may override the 20 vehicles.
    """
    cfg = ScenarioConfig(**{"vehicle_count": 20, **extra}, mode=mode,
                         sim_duration_ns=duration, seed=seed, repetitions=1,
                         window=WindowConfig(slot_len_ns=slot_ms * MS))
    return run_scenario(cfg, seed, trace=True)


def table(runs: dict[str, RunResult]) -> dict[str, dict]:
    """Every grid point's digest, keyed by the point."""
    return {key: run_digest(run) for key, run in sorted(runs.items())}


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
def computed(runs) -> dict:
    return table(runs)


POINTS = [point[0] for point in _grid()]
# each point's digest compared part by part, a part being the first word of
# a field's name: `results.csv` holds the three counting rules, and
# `controller` or `mac` every vehicle's record
PARTS = [(key, part) for key, mode, *_ in _grid()
         for part in ("log_sha256", "transmissions", "collided", "frames", "results.csv",
                      "controller" if mode == MODE_TSNCTL else "mac")]


def _part(digest: dict, part: str) -> dict:
    return {field: value for field, value in digest.items() if field.split(" ")[0] == part}


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(POINTS)
    for key, digest in golden.items():
        assert {field.split(" ")[0] for field in digest} == \
            {part for point, part in PARTS if point == key}


@pytest.mark.parametrize("point, part", PARTS, ids=[f"{point}-{part}" for point, part in PARTS])
def test_output_matches_golden_digest(golden, computed, point, part):
    assert _part(computed[point], part) == _part(golden[point], part)


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


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("point", POINTS)
def test_every_check_passes(computed, runs, point, check):
    assert CHECKS[check](runs[point], computed[point], SALTS) == []


if __name__ == "__main__":
    fixture = table(grid_runs())
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture)} digests to {FIXTURE}", file=sys.stderr)
