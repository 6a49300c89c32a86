import gc

import pytest
from _util import ScriptedSource, assemble_platoon, frames_transmitted

from platoonsim.config import ConfigError
from platoonsim.csma import CsmaConfig, CsmaMac, MessageClock
from platoonsim.frames import PRIO_SAFETY, Frame, FrameKind
from platoonsim.kernel import MS, SEC, US, Kernel, RngStreams
from platoonsim.radio import Medium, Position, RadioConfig
from platoonsim.scenario import (
    MODE_BASELINE,
    MODE_TSNCTL,
    ItsService,
    ScenarioConfig,
    VehicleSpec,
    build_vehicles,
    run_scenario,
)
from platoonsim.tsnctl import Status, WindowClock, WindowConfig


def test_spawn_times_follow_interval():
    cfg = ScenarioConfig(vehicle_count=3, spawn_interval_ns=1 * MS)
    specs = build_vehicles(cfg, RngStreams(1).stream(0))
    assert [s.spawn_at for s in specs] == [0, 1 * MS, 2 * MS]


def test_twenty_vehicles_at_100us_finish_spawning_at_1_9ms():
    cfg = ScenarioConfig(vehicle_count=20, spawn_interval_ns=100 * US)
    specs = build_vehicles(cfg, RngStreams(1).stream(0))
    assert specs[-1].spawn_at == 1_900_000


def test_positions_inside_area_on_the_roadside_line():
    cfg = ScenarioConfig(vehicle_count=50, area_length_m=100.0)
    specs = build_vehicles(cfg, RngStreams(9).stream(0))
    assert all(0.0 <= s.position.x <= 100.0 for s in specs)
    assert all(s.position.y == 0.0 for s in specs)
    # area no wider than the default range: every pair mutually in range
    assert all(abs(a.position.x - b.position.x) <= 100.0
               for a in specs for b in specs)


def test_build_vehicles_is_deterministic_in_the_seed():
    cfg = ScenarioConfig(vehicle_count=10)
    a = build_vehicles(cfg, RngStreams(5).stream(0))
    b = build_vehicles(cfg, RngStreams(5).stream(0))
    assert [(s.vid, s.position, s.spawn_at) for s in a] == \
           [(s.vid, s.position, s.spawn_at) for s in b]


def test_service_emits_ten_messages_in_one_second():
    cfg = ScenarioConfig(vehicle_count=1, mode=MODE_BASELINE,
                         sim_duration_ns=1 * SEC)
    run = run_scenario(cfg, 1)
    assert run.services[0].generated == 10


def test_service_phase_follows_spawn_offset():
    cfg = ScenarioConfig(vehicle_count=3, spawn_interval_ns=2 * MS,
                         mode=MODE_BASELINE, sim_duration_ns=250 * MS)
    run = run_scenario(cfg, 1)
    ticks = sorted(tx.generated_at for tx in run.medium.log
                   if tx.sender == 2)
    assert ticks[:3] == [4 * MS, 104 * MS, 204 * MS]


def test_payload_size_flows_through_to_the_air():
    cfg = ScenarioConfig(vehicle_count=2, payload_size_b=650,
                         mode=MODE_BASELINE, sim_duration_ns=300 * MS)
    run = run_scenario(cfg, 1)
    data = [tx for tx in run.medium.log if tx.kind is FrameKind.DATA]
    assert data and all(tx.size == 650 for tx in data)


# Besides a small default run, the golden grid's backlogged points, cut
# 10.54 ms into a window: the baseline with 20 vehicles at one spot and a
# message every 2 ms, and the slot controller with 1 ms slots, 100 B frames
# and a message every 20 ms.
CUT = 1_910_543_210


def _logged_data(run, vid):
    return sum(tx.sender == vid and tx.kind is FrameKind.DATA for tx in run.medium.log)


@pytest.mark.parametrize("seed, fields", [
    (3, {"vehicle_count": 4, "sim_duration_ns": 2 * SEC}),
    (1, {"area_length_m": 0.0, "message_interval_ns": 2 * MS, "sim_duration_ns": CUT}),
], ids=["n4", "area0m-msg2ms"])
def test_message_conservation_baseline(seed, fields):
    run = run_scenario(ScenarioConfig(mode=MODE_BASELINE, **fields), seed)
    for vid, service in run.services.items():
        mac = run.macs[vid]
        assert mac.source is service
        assert service.generated == service.seq == len(mac.queue) + _logged_data(run, vid)


@pytest.mark.parametrize("seed, fields", [
    (3, {"vehicle_count": 4, "sim_duration_ns": 2 * SEC}),
    (1, {"message_interval_ns": 20 * MS, "payload_size_b": 100, "sim_duration_ns": CUT,
         "window": WindowConfig(slot_len_ns=1 * MS)}),
], ids=["n4", "msg20ms"])
def test_message_conservation_tsnctl(seed, fields):
    run = run_scenario(ScenarioConfig(mode=MODE_TSNCTL, **fields), seed)
    for vid, service in run.services.items():
        ctl = run.controllers[vid]
        assert ctl.source is service
        assert service.generated == service.seq == len(ctl.queues) + _logged_data(run, vid)


def test_unadmitted_vehicle_generates_the_closed_form_count_tsnctl():
    # alone on a 1 km road, the vehicle never joins a platoon, never owns a
    # slot and never sends: every message it generated is queued at the end
    duration = 1_910_543_210
    cfg = ScenarioConfig(vehicle_count=1, area_length_m=1_000.0, mode=MODE_TSNCTL,
                         sim_duration_ns=duration)
    run = run_scenario(cfg, 1)
    ctl, service = run.controllers[0], run.services[0]
    assert ctl.state.status is not Status.IN_PLATOON
    assert not [tx for tx in run.medium.log if tx.kind is FrameKind.DATA]
    assert service.generated == len(range(0, duration, cfg.message_interval_ns)) == 20
    assert len(ctl.queues) == service.generated
    assert [f.generated_at for f in ctl.queues.queues[0]] == list(range(0, duration, 100 * MS))


def test_service_counts_the_messages_due_before_the_run_end():
    cfg = ScenarioConfig(sim_duration_ns=1_910_543_210)
    for spawn_at, count in ((30 * MS, 19), (1_810_543_210, 1), (1_810_543_211, 1),
                            (1_910_543_210, 0)):
        service = ItsService(VehicleSpec(0, Position(0.0, 0.0), spawn_at), cfg)
        assert service.generated == count
        due = [service.take().generated_at for _ in range(count)]
        assert due == list(range(spawn_at, cfg.sim_duration_ns, cfg.message_interval_ns))
        assert service.next_due is None


def test_service_hands_out_safety_data_frames_in_sequence():
    # the golden logs record neither seq nor priority, so each field is pinned here
    cfg = ScenarioConfig(payload_size_b=321, message_interval_ns=7 * MS,
                         sim_duration_ns=40 * MS)
    spawn_at = 3 * MS
    service = ItsService(VehicleSpec(4, Position(0.0, 0.0), spawn_at), cfg)
    assert service.generated == 6
    for k in range(service.generated):
        assert service.next_due == spawn_at + k * cfg.message_interval_ns
        frame = service.take()
        assert frame == Frame(kind=FrameKind.DATA, sender=4, size=321,
                              generated_at=spawn_at + k * cfg.message_interval_ns,
                              priority=PRIO_SAFETY, seq=k)
    assert service.next_due is None


def _scripted_copy(spec, cfg):
    """A scripted source holding exactly the due times and frames of `ItsService(spec, cfg)`."""
    service = ItsService(spec, cfg)
    script = []
    while service.next_due is not None:
        script.append((service.next_due, service.take()))
    return ScriptedSource(script, end=service.end)


def test_scripted_source_drives_csma_as_the_service_does():
    # a message falls due about every two airtimes: some go out at their due
    # time, some defer to the other vehicle, some queue behind their own
    # frame; the run ends while a frame is on air, which counts as not transmitted
    cfg = ScenarioConfig(message_interval_ns=2 * MS, sim_duration_ns=30_500 * US)
    specs = [VehicleSpec(0, Position(0.0, 0.0), 0), VehicleSpec(1, Position(30.0, 0.0), 300 * US)]

    def run(make_source):
        kernel = Kernel()
        medium = Medium(kernel, cfg.radio)
        clock = MessageClock(kernel, medium)
        macs = []
        for spec in specs:
            medium.register(spec.vid, spec.position)
            macs.append(CsmaMac(spec.vid, clock, CsmaConfig(),
                                RngStreams(3).stream(spec.vid), source=make_source(spec)))
        kernel.run_until(cfg.sim_duration_ns)
        return (medium.log,
                [(m.source.seq, frames_transmitted(m), m.deferrals) for m in macs])

    log, counters = run(lambda spec: ItsService(spec, cfg))
    assert run(lambda spec: _scripted_copy(spec, cfg)) == (log, counters)
    assert all(deferrals for _, _, deferrals in counters)
    assert any(taken > ended for taken, ended, _ in counters)     # cut by the run end


def test_scripted_source_drives_a_platoon_as_the_service_does():
    # the platoon forms in the window at 100 ms; vehicle 1 spawns at 6 ms, so
    # its messages fall due at the origin of its slot 3
    cfg = ScenarioConfig(payload_size_b=200, sim_duration_ns=600 * MS)
    spawns = {0: 0, 1: 6 * MS}

    def run(make_source):
        sources = {vid: make_source(VehicleSpec(vid, Position(float(vid), 0.0), at))
                   for vid, at in spawns.items()}
        _, medium, ctls = assemble_platoon(spawns, {0: 0, 1: 300 * US}, run_ms=600,
                                           sources=sources)
        return (medium.log,
                [(c.transitions, c.deferred, c.source.seq, len(c.queues)) for c in ctls.values()])

    log, counters = run(lambda spec: ItsService(spec, cfg))
    assert run(lambda spec: _scripted_copy(spec, cfg)) == (log, counters)
    assert sum(tx.kind is FrameKind.DATA for tx in log) > 10


def test_invalid_mode_is_a_config_error():
    with pytest.raises(ConfigError):
        ScenarioConfig(mode="aloha").validate()


def test_payload_over_ceiling_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^payload_size_b=801 exceeds the 800 B ceiling$"):
        ScenarioConfig(payload_size_b=801).validate()


@pytest.mark.parametrize("fields, message", [
    ({"spawn_interval_ns": 0}, "spawn and message intervals must be positive"),
    ({"message_interval_ns": -1}, "spawn and message intervals must be positive"),
    ({"sim_duration_ns": 0}, "sim_duration_ns must be positive"),
    ({"payload_size_b": 0}, "payload_size_b must be >= 1"),
], ids=["spawn-interval", "message-interval", "duration", "payload"])
def test_validate_names_the_bad_field(fields, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ScenarioConfig(**fields).validate()


def test_window_with_fewer_than_three_slots_is_a_config_error():
    with pytest.raises(ConfigError):
        ScenarioConfig(window=WindowConfig(window_ns=2 * MS, slot_len_ns=2 * MS)).validate()


def test_announce_must_fit_one_slot():
    # a 100 B announce takes 133,334 ns at 6 Mb/s, and 2,666,667 ns at 300 kb/s
    for window, radio, announce, slot in (
            (WindowConfig(window_ns=800 * US, slot_len_ns=100 * US), RadioConfig(),
             133_334, 100_000),
            (WindowConfig(), RadioConfig(data_rate_bps=300_000), 2_666_667, 2_000_000)):
        with pytest.raises(ConfigError, match=rf"^an announce \({announce} ns on air\) "
                                              rf"does not fit one {slot} ns slot$"):
            ScenarioConfig(window=window, radio=radio).validate()
        # the baseline has no slots
        ScenarioConfig(mode=MODE_BASELINE, window=window, radio=radio).validate()


def test_an_announce_one_slot_long_and_a_beacon_one_window_long_fit():
    # at 6.4 Mb/s a byte takes 1,250 ns: a 100 B announce 125,000 ns, an 800 B
    # beacon 1 ms and a two-member allocation (116 B) 145,000 ns; with no
    # range there is no guard, so the allocation fits a 250 us slot 1
    radio = RadioConfig(data_rate_bps=6_400_000, range_m=0.0)
    ScenarioConfig(window=WindowConfig(window_ns=1 * MS, slot_len_ns=250 * US),
                   radio=radio).validate()
    with pytest.raises(ConfigError, match=r"^a payload_size_b=800 beacon \(1000000 ns on air\) "
                                          r"outlasts the window_ns=999999 window$"):
        ScenarioConfig(window=WindowConfig(window_ns=1 * MS - 1, slot_len_ns=250 * US),
                       radio=radio).validate()
    # a slot as long as an announce passes the announce check; slot 1 is then
    # too short for the allocation, which is what refuses it
    for slot, message in ((125_000, "cannot hold a two-member allocation"),
                          (124_999, "does not fit one 124999 ns slot")):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(window=WindowConfig(window_ns=1 * MS, slot_len_ns=slot),
                           radio=radio).validate()


def test_two_member_allocation_fills_slot_1_between_its_guards():
    # a two-member allocation (116 B) takes 154,667 ns, and the guard over
    # 300 m is 1,000 ns: the shortest slot 1 that holds it between two guards
    slot, guard = 2 * 1_000 + 154_667, 1_000
    cfg = ScenarioConfig(vehicle_count=2, sim_duration_ns=2 * SEC,
                         window=WindowConfig(slot_len_ns=slot))
    cfg.validate()
    allocations = [tx for tx in run_scenario(cfg, 1).medium.log
                   if tx.kind is FrameKind.CONTROL_ALLOCATION]
    assert allocations
    window = cfg.window.window_ns
    # no room to draw in: each starts at the earliest start slot 1 allows
    assert all(tx.start == tx.start // window * window + slot + guard for tx in allocations)
    short = ScenarioConfig(vehicle_count=2, window=WindowConfig(slot_len_ns=slot - 1))
    with pytest.raises(ConfigError, match=rf"^slot_len_ns={slot - 1} cannot hold a two-member "
                                          r"allocation \(154667 ns on air\) between two "
                                          r"1000 ns guards"):
        short.validate()


def test_zero_vehicles_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(vehicle_count=0).validate()


def test_slot_guard_is_derived_from_the_radio_range():
    from platoonsim.radio import Medium, RadioConfig

    for range_m, guard in ((300.0, 1_000), (1_000.0, 3_334)):
        radio, kernel = RadioConfig(range_m=range_m), Kernel()
        clock = WindowClock(kernel, Medium(kernel, radio), WindowConfig())
        assert clock.guard == radio.prop_delay(range_m) == guard
    ScenarioConfig(area_length_m=1_000.0, radio=RadioConfig(range_m=1_000.0)).validate()
    # slot 1 must hold a two-member allocation (154,667 ns on air) between two
    # guards; 300 km of range make a 1 ms guard
    for slot, radio in ((150 * US, RadioConfig()), (2 * MS, RadioConfig(range_m=300_000.0))):
        cfg = ScenarioConfig(window=WindowConfig(slot_len_ns=slot), radio=radio)
        with pytest.raises(ConfigError, match=f"slot_len_ns={slot} .*range_m={radio.range_m}"):
            cfg.validate()
        # the baseline evaluates nothing at slot boundaries
        ScenarioConfig(mode=MODE_BASELINE, window=cfg.window, radio=radio).validate()


def test_beacon_longer_than_the_window_rejected_in_tsnctl_mode():
    # 800 B take 1,066,667 ns: the frame would run into the sender's next slot
    cfg = ScenarioConfig(window=WindowConfig(window_ns=480 * US, slot_len_ns=160 * US))
    with pytest.raises(ConfigError, match="payload_size_b=800.*window_ns=480000"):
        cfg.validate()
    ScenarioConfig(payload_size_b=300, window=cfg.window).validate()
    # the baseline has no windows
    ScenarioConfig(mode=MODE_BASELINE, window=cfg.window).validate()


def test_bad_radio_parameters_rejected():
    from platoonsim.radio import RadioConfig

    with pytest.raises(ConfigError):
        ScenarioConfig(radio=RadioConfig(data_rate_bps=0)).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(radio=RadioConfig(cca_detect_ns=-1)).validate()


@pytest.mark.parametrize("cfg", [
    # the contested 60-vehicle golden point: hidden terminals, 1 ms slots
    ScenarioConfig(vehicle_count=60, area_length_m=400.0, radio=RadioConfig(range_m=150.0),
                   sim_duration_ns=1_910_543_210, window=WindowConfig(slot_len_ns=1 * MS)),
    # a backlogged baseline: every MAC keeps a queue, frames wait on air
    ScenarioConfig(mode=MODE_BASELINE, area_length_m=0.0, message_interval_ns=2 * MS,
                   sim_duration_ns=1_910_543_210),
], ids=["tsnctl-contested", "baseline-backlogged"])
def test_a_run_makes_no_cyclic_garbage(cfg):
    """What `Kernel.run_until`'s collector pause rests on: with the collector
    off all run long, a collection while the run is held finds nothing. A
    dropped run is freed by reference counting: the run drops its pending
    events and the medium holds no controller, so no cycle is left either."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run = run_scenario(cfg, 1)
        assert gc.collect() == 0
        assert run.medium.log
        del run
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
