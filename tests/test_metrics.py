import gc
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from _util import data_frame, receivers_collided, receivers_expected, recount

from platoonsim.frames import FrameKind
from platoonsim.kernel import EventKind, Kernel, MS, SEC, US
from platoonsim.metrics import (
    CollisionStats,
    ExperimentResult,
    KIND_LABELS,
    FlagMismatch,
    _sweep_masks,
    brute_force_flags,
    brute_force_outcomes,
    collect_stats,
    emit_csv,
    emit_sweep_csv,
    load_transmission_log,
    oracle_check_run,
    run_experiment,
    sweep,
    verify_log,
    write_transmission_log,
)
from platoonsim.radio import Medium, Position, RadioConfig
from platoonsim.scenario import (COUNTING_RULES, MODE_BASELINE, MODE_TSNCTL, RunResult,
                                 ScenarioConfig, VehicleSpec, run_scenario)
from platoonsim.tsnctl import WindowConfig


def _two_sender_medium(second_start_us=500):
    k = Kernel()
    m = Medium(k, RadioConfig(range_m=100.0))
    m.register(0, Position(0.0, 0.0))
    m.register(1, Position(20.0, 0.0))
    m.register(2, Position(40.0, 0.0))
    m.broadcast(data_frame(0))
    k.run_until(second_start_us * US)
    m.broadcast(data_frame(1))
    k.run_until(20 * MS)
    return m


def _stats(m, counting="frames"):
    """collect_stats over a bare medium, with no MAC or controller, under a counting rule."""
    return collect_stats(RunResult(ScenarioConfig(counting=counting), m, [], {}, {}, {}))


def test_clean_transmission_counts_as_sent_not_collided():
    m = _two_sender_medium(second_start_us=2000)   # no overlap
    tx = m.log[0]
    assert tx.receivers and receivers_collided(tx) == 0
    s = _stats(m)
    assert (s.frames_sent, s.frames_collided) == (2, 0)


def test_collided_transmission_counts_once_even_with_many_collided_receivers():
    m = _two_sender_medium()
    tx = m.log[0]
    assert [receivers_collided(t) for t in m.log] == [2, 2]
    s = _stats(m)
    assert (s.frames_sent, s.frames_collided) == (2, 2)
    rx = _stats(m, "receptions")
    assert (rx.frames_sent, rx.frames_collided) == (4, 4)


def test_stats_exclude_transmissions_nobody_could_receive():
    k = Kernel()
    m = Medium(k, RadioConfig(range_m=10.0))
    m.register(0, Position(0.0, 0.0))
    m.register(1, Position(500.0, 0.0))
    tx = m.broadcast(data_frame(0))
    k.run_until(5 * MS)
    assert tx.receivers == 0 and receivers_expected(tx) == 0
    assert _stats(m) == CollisionStats()


@pytest.mark.parametrize("rule", COUNTING_RULES)
@pytest.mark.parametrize("name, cfg", [
    ("baseline", ScenarioConfig(vehicle_count=20, mode=MODE_BASELINE, sim_duration_ns=1 * SEC)),
    ("tsnctl", ScenarioConfig(vehicle_count=20, mode=MODE_TSNCTL, sim_duration_ns=1 * SEC,
                              window=replace(ScenarioConfig().window, slot_len_ns=1 * MS))),
    ("unheard", ScenarioConfig(vehicle_count=4, mode=MODE_BASELINE, area_length_m=1_000.0,
                               sim_duration_ns=1 * SEC, radio=RadioConfig(range_m=20.0))),
])
def test_collect_stats_equals_a_recount_from_the_masks(name, cfg, rule):
    run = run_scenario(replace(cfg, counting=rule), 5)
    log = run.medium.log
    if name == "tsnctl":
        assert {FrameKind.CONTROL_ANNOUNCE, FrameKind.CONTROL_ALLOCATION} <= {
            tx.kind for tx in log}
        assert any(receivers_collided(tx) for tx in log if tx.kind is not FrameKind.DATA)
    if name == "unheard":
        assert any(tx.receivers == 0 for tx in log)
    stats = collect_stats(run)
    assert (stats.frames_sent, stats.frames_collided) == recount(log, rule)
    assert stats.deferred_frames == (sum(mac.deferrals for mac in run.macs.values())
                                     + sum(ctl.deferred for ctl in run.controllers.values()))
    assert stats.rejected_joins == sum(ctl.rejected_joins for ctl in run.controllers.values())
    assert stats.frames_collided > 0 or name == "unheard"
    assert all(type(getattr(stats, f)) is int for f in stats.__slots__)


def test_brute_force_hidden_terminal_case():
    # senders out of mutual range, both in range of the middle receiver
    positions = {0: Position(0.0, 0.0), 1: Position(90.0, 0.0),
                 2: Position(180.0, 0.0)}
    records = [(0, 0, 1_000_000), (2, 500_000, 1_500_000)]
    out = brute_force_outcomes(records, positions, 100.0)
    assert out[0] == {1: True}          # ruined at the shared receiver
    assert out[1] == {1: True}
    flags = brute_force_flags(records, positions, 100.0)
    assert flags == [True, True]


def test_brute_force_respects_spawn_times():
    positions = {0: Position(0.0, 0.0), 1: Position(10.0, 0.0)}
    records = [(0, 0, 1_000_000)]
    present = brute_force_outcomes(records, positions, 100.0, {0: 0, 1: 0})
    absent = brute_force_outcomes(records, positions, 100.0, {0: 0, 1: 5_000_000})
    assert present == [{1: False}]
    assert absent == [{}]


@st.composite
def _overlap_logs(draw):
    """A small log: vehicles on a 10 m grid, unsorted records on a coarse clock."""
    vids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True))
    positions = {vid: Position(10.0 * draw(st.integers(0, 30)), 10.0 * draw(st.integers(0, 3)))
                 for vid in vids}
    range_m = 10.0 * draw(st.integers(0, 30))
    spawn = draw(st.none() | st.fixed_dictionaries({vid: st.integers(0, 40) for vid in vids}))
    records = draw(st.lists(
        st.tuples(st.sampled_from(vids), st.integers(0, 60), st.integers(0, 12))
        .map(lambda r: (r[0], r[1], r[1] + r[2])),
        max_size=40))
    return records, positions, range_m, spawn


@settings(max_examples=300, deadline=None)
@given(log=_overlap_logs())
@example(log=(   # equal starts, touching endpoints, zero-length frames, out of order
    [(1, 10, 20), (2, 20, 30), (0, 0, 10), (1, 10, 10), (2, 15, 15), (0, 20, 20),
     (3, 10, 25), (0, 5, 5), (3, 30, 30)],
    {0: Position(0.0, 0.0), 1: Position(50.0, 0.0), 2: Position(100.0, 0.0),
     3: Position(150.0, 0.0)},
    60.0, {0: 0, 1: 0, 2: 12, 3: 5}))
def test_sweep_oracle_matches_brute_force(log):
    records, positions, range_m, spawn = log
    # the sweep takes a spawn map; an empty one has every vehicle present from
    # 0, before every start, as the reference has without one
    masks = _sweep_masks(records, positions, range_m, {} if spawn is None else spawn)
    outcomes = [{vid: bool(collided >> vid & 1) for vid in positions if receivers >> vid & 1}
                for receivers, collided in masks]
    assert outcomes == brute_force_outcomes(records, positions, range_m, spawn)


def test_masks_name_vehicles_by_id_whatever_the_registration_order():
    """Vehicles 7, 2 and 5 register in that order. Each receivers mask is the
    OR of 1 << v over the registered vehicles in range of the sender, and the
    oracle, which reads only the specs, agrees with the specs in any order."""
    kernel = Kernel()
    cfg = ScenarioConfig(mode=MODE_BASELINE, radio=RadioConfig(range_m=100.0))
    medium = Medium(kernel, cfg.radio)
    # 2 hears 7 and 5, which are 120 m apart and do not hear each other
    specs = [VehicleSpec(7, Position(0.0, 0.0), 0), VehicleSpec(2, Position(50.0, 0.0), 100 * US),
             VehicleSpec(5, Position(120.0, 0.0), 200 * US)]
    for spec in specs:
        kernel.at(spec.spawn_at, spec.vid, EventKind.SPAWN,
                  lambda spec: medium.register(spec.vid, spec.position), spec)
    # 67 us frames: alone; heard by 7 only; 7 and 5 overlapping at 2; heard by both
    for sender, at in [(7, 50 * US), (2, 150 * US), (7, 400 * US), (5, 420 * US), (2, 1 * MS)]:
        kernel.at(at, sender, EventKind.TIMER,
                  lambda sender: medium.broadcast(data_frame(sender, 50)), sender)
    kernel.run_until(5 * MS)

    assert list(medium.positions) == [7, 2, 5]
    assert [tx.receivers for tx in medium.log] == [0, 1 << 7, 1 << 2, 1 << 2, 1 << 7 | 1 << 5]
    assert [receivers_collided(tx) for tx in medium.log] == [0, 0, 1, 1, 0]
    for order in itertools.permutations(specs):
        assert oracle_check_run(RunResult(cfg, medium, list(order), {}, {}, {})) == []


@pytest.mark.parametrize("mode", [MODE_BASELINE, MODE_TSNCTL])
def test_oracle_check_run_reports_a_tampered_transmission(mode):
    run = run_scenario(ScenarioConfig(vehicle_count=6, mode=mode, sim_duration_ns=SEC), 1)
    # vehicle v is bit v of the oracle's masks, whatever the order of the specs
    assert oracle_check_run(replace(run, specs=run.specs[::-1])) == []
    i, tx = next((i, tx) for i, tx in enumerate(run.medium.log) if tx.receivers)
    tx.hit ^= tx.receivers & -tx.receivers          # flip one receiver's bit
    assert oracle_check_run(run) == [i]


@pytest.mark.parametrize("mode", [MODE_TSNCTL, MODE_BASELINE])
def test_run_experiment_leaves_nothing_for_the_collector(tmp_path, mode):
    """Each repetition is freed by reference counting when the loop drops it."""
    cfg = ScenarioConfig(vehicle_count=5, mode=mode, sim_duration_ns=1 * SEC, repetitions=3)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_experiment(cfg, tmp_path)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert len(result.per_repetition) == 3


def test_run_experiment_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="repetitions must be >= 1, got 0"):
        run_experiment(ScenarioConfig(repetitions=0))


def test_emit_csv_shape_and_format(tmp_path):
    cfg = ScenarioConfig(vehicle_count=4, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC, repetitions=5, seed=3)
    result = run_experiment(cfg)
    out = tmp_path / "r.csv"
    emit_csv(result, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5 + 1                  # header, reps, summary
    assert lines[0].startswith("mode,vehicles,slot_len_ns")
    for row in lines[1:6]:
        rate = row.split(",")[9]
        assert len(rate.split(".")[1]) == 2         # two decimal places
    # summary mean equals the arithmetic mean of repetition rates
    summary_rate = float(lines[6].split(",")[9])
    rep_rates = [float(r.split(",")[9]) for r in lines[1:6]]
    assert abs(summary_rate - sum(rep_rates) / 5) < 0.01


def test_sweep_singleton_matches_run_experiment():
    base = ScenarioConfig(vehicle_count=4, sim_duration_ns=1 * SEC,
                          repetitions=2, seed=2)
    rows = sweep("platoon_size", [4], base)
    assert [(v, m, slot) for v, m, slot, _ in rows] == \
        [(4, MODE_BASELINE, None), (4, MODE_TSNCTL, 1 * MS), (4, MODE_TSNCTL, 2 * MS),
         (4, MODE_TSNCTL, 3 * MS)]
    direct = run_experiment(replace(base, mode=MODE_BASELINE))
    assert rows[0][3].rates == direct.rates


def test_sweep_rejects_unknown_axis_and_empty_values():
    base = ScenarioConfig()
    with pytest.raises(ValueError):
        sweep("speed", [1], base)
    with pytest.raises(ValueError):
        sweep("platoon_size", [], base)


def test_sweep_csv_is_long_format(tmp_path):
    base = ScenarioConfig(vehicle_count=3, sim_duration_ns=500 * MS,
                          repetitions=2, seed=2)
    rows = sweep("packet_size", [200, 400], base)
    out = tmp_path / "s.csv"
    emit_sweep_csv("packet_size", rows, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("axis,value,mode,slot_len_ns,repetition")
    assert len(lines) == 1 + len(rows) * 2          # two repetitions per row
    # baseline rows carry no slot length
    assert {tuple(line.split(",")[2:4]) for line in lines[1:]} == \
        {("baseline", ""), ("tsnctl", str(1 * MS)), ("tsnctl", str(2 * MS)),
         ("tsnctl", str(3 * MS))}


def test_kind_labels():
    assert KIND_LABELS == {
        FrameKind.DATA: "data",
        FrameKind.CONTROL_ANNOUNCE: "control-announce",
        FrameKind.CONTROL_ALLOCATION: "control-allocation",
    }


def test_transmission_log_roundtrip_and_verify(tmp_path):
    cfg = ScenarioConfig(vehicle_count=5, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC, spawn_interval_ns=100 * US)
    run = run_scenario(cfg, 21)
    path = tmp_path / "t.log"
    write_transmission_log(run, path)
    log = load_transmission_log(path)
    assert len(log.records) == len(run.medium.log)
    assert log.positions[0] == run.specs[0].position
    assert verify_log(path) == []


def test_verify_flags_tampered_log(tmp_path):
    cfg = ScenarioConfig(vehicle_count=5, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC, spawn_interval_ns=100 * US)
    run = run_scenario(cfg, 22)
    path = tmp_path / "t.log"
    write_transmission_log(run, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    fields = lines[idx].split()
    fields[-1] = "1" if fields[-1] == "0" else "0"
    lines[idx] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    tx = run.medium.log[0]
    assert verify_log(path) == [FlagMismatch(0, tx.sender, tx.start, not receivers_collided(tx))]

    # the oracle orders the records itself: reversed or shuffled after the
    # header lines, only the tampered record's index changes
    tampered, records = lines[idx], lines[idx:]
    for shuffled in (records[::-1], random.Random(5).sample(records, len(records))):
        path.write_text("\n".join(lines[:idx] + shuffled) + "\n")
        assert verify_log(path) == [FlagMismatch(shuffled.index(tampered), tx.sender,
                                                 tx.start, not receivers_collided(tx))]


def _edit_first_record(field: int, value: str):
    def edit(lines):
        idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        fields = lines[idx].split()
        fields[field] = value
        return lines[:idx] + [" ".join(fields)] + lines[idx + 1:]
    return edit


def _first_record_fields(count: int):
    """The first record cut, or padded with "0", to `count` fields."""
    def edit(lines):
        idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        fields = (lines[idx].split() + ["0"] * count)[:count]
        return lines[:idx] + [" ".join(fields)] + lines[idx + 1:]
    return edit


def _edit_header(prefix: str, replacement: str):
    def edit(lines):
        return [replacement if l.startswith(prefix) else l for l in lines]
    return edit


def _insert_before_records(header: str):
    def edit(lines):
        idx = lines.index("# sender start_ns end_ns size_B kind collided")
        return lines[:idx] + [header] + lines[idx:]
    return edit


def _radio_header(**fields):
    kv = {"range_m": "300.0", "data_rate_bps": "6000000",
          "propagation_mps": "300000000.0", "preamble_ns": "0", **fields}
    return "# radio " + " ".join(f"{key}={value}" for key, value in kv.items())


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [l for l in lines if not l.startswith("# radio")], "no '# radio' header"),
    (lambda lines: [l for l in lines if not l.startswith("# vehicle 0 ")],
     r"no '# vehicle' line for sender\(s\) \[0\]"),
    (_edit_first_record(4, "BEACON"), "line 9: malformed record"),
    (_edit_first_record(5, "2"), "line 9: malformed record"),
    (_edit_first_record(0, "6x"), "line 9: malformed record"),
    (_edit_first_record(1, "9999999"), "line 9: transmission ends before it starts"),
    (_edit_header("# vehicle 3 ", "# vehicle 3"), "line 6: malformed vehicle header"),
    (_edit_header("# radio", "# radio range_m=300.0"), "line 2: malformed radio header"),
    (_edit_header("# radio", "# radio range_m"), "line 2: malformed radio header"),
    pytest.param(_edit_header("# radio", _radio_header(range_m="inf")),
                 "line 2: malformed radio header", id="radio-range-inf"),
    pytest.param(_edit_header("# radio", _radio_header(range_m="nan")),
                 "line 2: malformed radio header", id="radio-range-nan"),
    pytest.param(_edit_header("# radio", _radio_header(range_m="-5.0")),
                 "line 2: malformed radio header", id="radio-range-negative"),
    pytest.param(_edit_header("# radio", _radio_header(data_rate_bps="0")),
                 "line 2: malformed radio header", id="radio-rate-zero"),
    pytest.param(_edit_header("# radio", _radio_header(preamble_ns="-1")),
                 "line 2: malformed radio header", id="radio-preamble-negative"),
    pytest.param(_edit_header("# vehicle 3 ", "# vehicle 3 nan 0.0 300000"),
                 "line 6: malformed vehicle header", id="vehicle-x-nan"),
    pytest.param(_edit_header("# vehicle 3 ", "# vehicle 3 10.0 inf 300000"),
                 "line 6: malformed vehicle header", id="vehicle-y-inf"),
    pytest.param(_edit_header("# vehicle 3 ", "# vehicle 3 10.0 0.0 -1"),
                 "line 6: malformed vehicle header", id="vehicle-spawn-negative"),
    pytest.param(_edit_header("# vehicle 3 ", "# vehicle 3 10.0 0.0"),
                 "line 6: malformed vehicle header", id="vehicle-spawn-missing"),
    pytest.param(_edit_header("# vehicle 3 ", "# vehicle 3 10.0 0.0 300000 junk"),
                 "line 6: malformed vehicle header", id="vehicle-trailing-field"),
    pytest.param(_edit_header("# radio", _radio_header(foo="1")),
                 "line 2: malformed radio header", id="radio-unknown-key"),
    pytest.param(_edit_header("# radio", _radio_header() + " range_m=300.0"),
                 "line 2: malformed radio header", id="radio-repeated-key"),
    pytest.param(_edit_first_record(3, "-5"), "line 9: malformed record",
                 id="record-size-negative"),
    pytest.param(_first_record_fields(5), "line 9: malformed record", id="record-five-fields"),
    pytest.param(_first_record_fields(7), "line 9: malformed record", id="record-seven-fields"),
    (_insert_before_records("# vehicle 0 5000.0 0.0 0"), "line 8: duplicate vehicle header"),
    # vehicle v is bit v of the oracle's masks, so ids are bounded by the vehicle count
    pytest.param(_insert_before_records("# vehicle -1 5000.0 0.0 0"),
                 r"^vehicle ids must be 0 to 5, one per '# vehicle' line; got \[-1\]$",
                 id="vehicle-id-negative"),
    pytest.param(_insert_before_records("# vehicle 10000000 5000.0 0.0 0"),
                 r"^vehicle ids must be 0 to 5, one per '# vehicle' line; got \[10000000\]$",
                 id="vehicle-id-past-the-count"),
    (_insert_before_records("# radio range_m=10.0 data_rate_bps=6000000 "
                            "propagation_mps=300000000.0 preamble_ns=0"),
     "line 8: duplicate radio header"),
])
def test_load_rejects_malformed_logs(tmp_path, edit, message):
    cfg = ScenarioConfig(vehicle_count=5, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC, spawn_interval_ns=100 * US)
    path = tmp_path / "t.log"
    write_transmission_log(run_scenario(cfg, 22), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        load_transmission_log(path)


def test_load_accepts_a_record_of_size_0_and_one_of_zero_length(tmp_path):
    cfg = ScenarioConfig(vehicle_count=5, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC, spawn_interval_ns=100 * US)
    path = tmp_path / "t.log"
    write_transmission_log(run_scenario(cfg, 22), path)
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    sender, start, _end, _size, kind, flag = lines[idx].split()
    lines[idx] = f"{sender} {start} {start} 0 {kind} {flag}"
    path.write_text("\n".join(lines) + "\n")
    log = load_transmission_log(path)
    assert log.records[0] == (int(sender), int(start), int(start))


@pytest.mark.parametrize("where", [1, 5, -1], ids=["in-the-header", "before-a-vehicle",
                                                  "between-records"])
def test_load_skips_blank_lines(tmp_path, where):
    cfg = ScenarioConfig(vehicle_count=5, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC, spawn_interval_ns=100 * US)
    path = tmp_path / "t.log"
    write_transmission_log(run_scenario(cfg, 22), path)
    lines = path.read_text().splitlines()
    assert lines[5].startswith("# vehicle") and not lines[-2].startswith("#")
    written = load_transmission_log(path)
    path.write_text("\n".join(lines[:where] + ["", "  "] + lines[where:]) + "\n")
    assert load_transmission_log(path) == written


@pytest.mark.parametrize("mode, extra", [
    (MODE_BASELINE, {}),
    (MODE_TSNCTL, {"window": WindowConfig(slot_len_ns=1 * MS)}),
    # cut while frames are on air
    (MODE_BASELINE, {"area_length_m": 0.0, "message_interval_ns": 2 * MS,
                     "sim_duration_ns": 910_543_210}),
], ids=["baseline", "tsnctl", "cut-on-air"])
def test_logged_flags_are_set_where_the_masks_meet(tmp_path, mode, extra):
    cfg = ScenarioConfig(**{"sim_duration_ns": 2 * SEC, **extra}, mode=mode)
    run = run_scenario(cfg, 5)
    if "sim_duration_ns" in extra:
        assert any(tx.end > cfg.sim_duration_ns for tx in run.medium.log)
    path = tmp_path / "t.log"
    write_transmission_log(run, path)
    flags = [int(line.split()[5]) for line in path.read_text().splitlines()
             if not line.startswith("#")]
    assert flags == [int(receivers_collided(tx) > 0) for tx in run.medium.log]
    assert 0 < sum(flags) < len(flags)


def test_rate_respects_counting_rules():
    cfg = ScenarioConfig(vehicle_count=4, mode=MODE_TSNCTL, sim_duration_ns=1 * SEC)
    run = run_scenario(cfg, 13)
    incl, excl, per_rx = (collect_stats(replace(run, cfg=replace(cfg, counting=rule)))
                          for rule in COUNTING_RULES)
    assert incl.frames_sent > excl.frames_sent              # control frames were sent
    if incl.frames_collided == excl.frames_collided:
        assert excl.rate() >= incl.rate()                   # denominator shrinks
    assert per_rx.rate() >= 0.0


def test_rate_zero_frames_flagged_undefined():
    stats = CollisionStats()
    assert math.isnan(stats.rate())


def test_undefined_rates_print_nan(tmp_path):
    cfg = ScenarioConfig(repetitions=2)
    result = ExperimentResult.from_stats(cfg, [CollisionStats(), CollisionStats()])
    assert math.isnan(result.mean_rate) and math.isnan(result.std_rate)
    emit_csv(result, tmp_path / "r.csv")
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert [row.split(",")[9] for row in rows] == ["nan", "nan", "nan"]
