"""Every run check (`_checks.CHECKS`) on random runs of both modes and on two
collision-heavy runs, and the window-clock check on a tampered run.

Each draw takes every field either from a coarse grid, so that events of
different vehicles meet at one instant, or from the widest range that the
checks' own draws once used, and may rerun its config cut while a frame is
on air. It varies every config field that the equivalence sweep's draw
(`tools/equivalence.py::draw_configs`) varies, and a test says so."""

import importlib.util
from collections import defaultdict
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from _checks import CHECKS, run_faults, window_clock_faults
from _shuffle import RACE
from _util import receivers_collided

from platoonsim.config import ConfigError
from platoonsim.csma import CsmaConfig
from platoonsim.frames import CONTROL_ALLOCATION, CONTROL_ANNOUNCE, DATA
from platoonsim.kernel import MS, SEC, US
from platoonsim.radio import RadioConfig
from platoonsim.scenario import MODE_BASELINE, MODE_TSNCTL, ScenarioConfig, run_scenario
from platoonsim.tsnctl import WindowConfig

CLEAN = {name: [] for name in CHECKS}

_spec = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "tools" / "equivalence.py")
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def _scaled(lo: int, hi: int, unit: int):
    return st.integers(lo, hi).map(lambda k: k * unit)


@st.composite
def _runs(draw):
    """A small valid config of either mode, its run seeded by its `seed`, and
    None or the (frame, offset) draws that cut its rerun."""
    coarse = draw(st.booleans())

    def field(grid, wide):
        return draw(st.sampled_from(grid) if coarse else wide)

    cfg = ScenarioConfig(
        vehicle_count=draw(st.integers(1, 16)),
        mode=draw(st.sampled_from((MODE_BASELINE, MODE_TSNCTL))),
        spawn_interval_ns=field((250 * US, 1 * MS, 50 * MS), _scaled(1, 2_000, US)),
        area_length_m=field((0.0, 0.0, 50.0, 600.0), st.floats(0.0, 600.0)),
        message_interval_ns=field((500 * US, 2 * MS, 20 * MS, 100 * MS), _scaled(2, 100, MS)),
        payload_size_b=field((100, 750, 800), st.integers(1, 800)),
        sim_duration_ns=draw(_scaled(100 if coarse else 1, 400, MS)),
        seed=draw(st.integers(0, 2**32)),
        csma=CsmaConfig(cw_slots=field((1, 2, 16), st.integers(1, 16)),
                        backoff_slot_ns=field((13 * US, 800 * US), st.integers(1, 1_000_000))),
        radio=RadioConfig(range_m=field((150.0, 300.0), st.floats(0.0, 1_000.0)),
                          cca_detect_ns=field((0, 4_000), st.integers(0, 50_000)),
                          preamble_ns=field((0, 40_000), st.integers(0, 100_000))),
        window=WindowConfig(window_ns=draw(st.sampled_from((20 * MS, 50 * MS, 100 * MS))),
                            slot_len_ns=field((1 * MS, 2 * MS, 3 * MS), _scaled(2, 30, 100 * US))),
    )
    try:
        cfg.validate()
    except ConfigError:
        reject()
    cut = draw(st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    return cfg, cut


@settings(max_examples=100, deadline=None)
@given(drawn=_runs())
@example(drawn=(RACE, None))
# five vehicles on 241 m with 150 m of range and no detection latency: the
# masters' slot-1 bursts sense a busy channel 18 times, a branch that no
# golden point reaches
@example(drawn=(ScenarioConfig(
    vehicle_count=5, mode=MODE_TSNCTL, spawn_interval_ns=18_334_845,
    area_length_m=240.75696681266635, payload_size_b=481, message_interval_ns=22_277_145,
    sim_duration_ns=1_271_844_741, seed=2_435_097_553,
    radio=RadioConfig(range_m=150.0, cca_detect_ns=0, preamble_ns=0),
    csma=CsmaConfig(cw_slots=16, backoff_slot_ns=800 * US),
    window=WindowConfig(window_ns=50 * MS, slot_len_ns=1_684_157)), None))
# five vehicles within 1 m spawned 1 us apart, with one 1 ns contention
# slot: a frame logged after a MAC's read keeps the channel busy at the edge
# it read, so its wake waits again
@example(drawn=(ScenarioConfig(
    vehicle_count=5, mode=MODE_BASELINE, spawn_interval_ns=1 * US, area_length_m=1.0,
    message_interval_ns=2 * MS, payload_size_b=1, sim_duration_ns=1 * MS, seed=0,
    radio=RadioConfig(range_m=1.0, cca_detect_ns=0, preamble_ns=0),
    csma=CsmaConfig(cw_slots=1, backoff_slot_ns=1)), None))
# six vehicles spawned 100 us apart
@example(drawn=(ScenarioConfig(vehicle_count=6, mode=MODE_BASELINE, sim_duration_ns=1 * SEC,
                               spawn_interval_ns=100 * US, seed=11), None))
@example(drawn=(ScenarioConfig(vehicle_count=6, mode=MODE_TSNCTL, sim_duration_ns=1 * SEC,
                               spawn_interval_ns=100 * US, seed=11), None))
def test_every_check_passes_on_random_runs(drawn):
    cfg, cut = drawn
    run = run_scenario(cfg, cfg.seed)
    assert run_faults(run) == CLEAN
    if cut is None or not run.medium.log:
        return
    which, into = cut
    tx = run.medium.log[which % len(run.medium.log)]
    cfg = replace(cfg, sim_duration_ns=tx.start + 1 + into % (tx.end - tx.start - 1))
    run = run_scenario(cfg, cfg.seed)
    assert any(t.end > cfg.sim_duration_ns for t in run.medium.log)
    assert run_faults(run) == CLEAN


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(vehicle_count=30, mode=MODE_BASELINE, sim_duration_ns=2 * SEC, seed=3),
    ScenarioConfig(vehicle_count=40, mode=MODE_TSNCTL, sim_duration_ns=2 * SEC, seed=3,
                   window=WindowConfig(slot_len_ns=1 * MS)),
], ids=[MODE_BASELINE, MODE_TSNCTL])
def test_every_check_passes_on_collision_heavy_runs(cfg):
    run = run_scenario(cfg, cfg.seed)
    assert sum(receivers_collided(tx) > 0 for tx in run.medium.log) > 200
    assert run_faults(run) == CLEAN


def test_the_window_clock_check_sees_a_tampered_run():
    """An announce that overruns slot 0, a data frame that starts before the
    end of slot 0 plus the guard, and an allocation that does not carry its
    sender's creation time. The announce is the last one before the first
    allocation, so the log stays sorted by start."""
    run = run_scenario(ScenarioConfig(vehicle_count=6, sim_duration_ns=SEC), 1)
    assert window_clock_faults(run) == []
    window, slot = run.cfg.window.window_ns, run.cfg.window.slot_len_ns
    log = run.medium.log
    picked = [next(i for i, tx in enumerate(log) if tx.kind is kind)
              for kind in (CONTROL_ALLOCATION, DATA)]
    picked.insert(0, max(i for i in range(picked[0]) if log[i].kind is CONTROL_ANNOUNCE))
    announce, allocation, data = (log[i] for i in picked)
    for tx, offset in ((announce, slot + 1 - (announce.end - announce.start)),
                       (data, slot + run.cfg.radio.max_delay - 1)):
        shift = offset - tx.start % window
        tx.start += shift
        tx.end += shift
    allocation.generated_at += 1
    assert window_clock_faults(run) == sorted(picked)


def test_the_window_clock_check_sees_data_frames_out_of_their_slots():
    """A data-slot frame that starts after its slot origin and ends past the
    slot end, a slot-1 data frame that ends past the end of slot 1, and a
    log entry that starts before the one before it."""
    run = run_scenario(ScenarioConfig(vehicle_count=6, sim_duration_ns=SEC), 1)
    assert window_clock_faults(run) == []
    window, slot = run.cfg.window.window_ns, run.cfg.window.slot_len_ns
    log = run.medium.log
    data = [i for i, tx in enumerate(log) if tx.kind is DATA]
    in_slot1 = next(i for i in data if log[i].start % window // slot == 1)
    late, (swapped, after) = data[-1], next(
        (i, i + 1) for i in data[:-1] if i + 1 in data and log[i + 1].start % window >= 2 * slot)
    for i, end in ((late, log[late].start - log[late].start % slot + slot + 1),
                   (in_slot1, log[in_slot1].start - log[in_slot1].start % window + 2 * slot + 1)):
        shift = end - log[i].end
        log[i].start += shift
        log[i].end += shift
    log[swapped], log[after] = log[after], log[swapped]
    assert window_clock_faults(run) == sorted({late, in_slot1, after})


def _varied(configs) -> set[str]:
    """The fields, a nested config's as `<name>.<field>`, that differ between configs."""
    values = defaultdict(set)
    for cfg in configs:
        for name, value in asdict(cfg).items():
            if isinstance(value, dict):
                for field, v in value.items():
                    values[f"{name}.{field}"].add(v)
            else:
                values[name].add(value)
    return {field for field, seen in values.items() if len(seen) > 1}


def test_the_draw_varies_every_field_that_the_equivalence_sweep_varies():
    """A field that the sweep draws and this draw holds fixed leaves the
    branches that it alone reaches to the sweep: `window.window_ns` was one."""
    drawn = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(case=_runs())
    def draw(case):
        drawn.append(case[0])

    draw()
    swept = [ScenarioConfig(**c["scenario"], seed=c["seed"], radio=RadioConfig(**c["radio"]),
                            csma=CsmaConfig(**c["csma"]), window=WindowConfig(**c["window"]))
             for mode in equivalence.MODES for c in equivalence.draw_configs(mode, 50, 1)]
    assert _varied(swept) - _varied(drawn) == set()
