"""The carrier-sense oracle (`_carrier_sense`): its rule on hand-made records,
and that it sees a wrong sensing rule."""

from dataclasses import replace

import pytest
from _carrier_sense import log_records, run_sensed_busy, sensed_busy

from platoonsim.frames import CONTROL_ANNOUNCE, DATA
from platoonsim.kernel import MS, SEC, US
from platoonsim.radio import Position, RadioConfig
from platoonsim.scenario import MODE_BASELINE, MODE_TSNCTL, ScenarioConfig, run_scenario
from platoonsim.tsnctl import WindowConfig

# vehicle 1 is 30 m from vehicle 0 (a 100 ns delay), vehicle 2 out of range
RADIO = RadioConfig(range_m=100.0, cca_detect_ns=4_000)
POSITIONS = {0: Position(0.0, 0.0), 1: Position(30.0, 0.0), 2: Position(500.0, 0.0)}
ON_AIR = (DATA, 1, 0, 1 * MS)       # vehicle 1's frame over [0, 1 ms)


@pytest.mark.parametrize("t, flagged", [
    (100 + 3_999, False),           # not yet detected at vehicle 0
    (100 + 4_000, True),            # detected from start + delay + cca_detect_ns
    (1 * MS + 99, True),            # still arriving
    (1 * MS + 100, False),          # ended at vehicle 0
])
def test_a_frame_is_sensed_from_detection_until_its_end_arrives(t, flagged):
    records = [ON_AIR, (DATA, 0, t, t + 1 * MS)]
    assert sensed_busy(records, POSITIONS, RADIO) == ([1] if flagged else [])


def test_frames_out_of_range_are_not_sensed():
    assert sensed_busy([ON_AIR, (DATA, 2, 500 * US, 1500 * US)], POSITIONS, RADIO) == []


def test_a_sender_senses_its_own_frame():
    records = [(DATA, 0, 0, 1 * MS), (DATA, 0, 4_000, 1 * MS)]
    assert sensed_busy(records, POSITIONS, RADIO) == [1]


def test_a_frame_is_sensed_from_the_instant_after_it_starts():
    """With no detection latency, vehicles at one spot sense a frame 1 ns
    after it starts, and at its start in neither log order."""
    radio = RadioConfig(range_m=100.0, cca_detect_ns=0)
    spot = {0: Position(0.0, 0.0), 1: Position(0.0, 0.0)}
    for first, second in ((0, 1), (1, 0)):
        records = [(DATA, first, 0, 1 * MS), (DATA, second, 0, 1 * MS)]
        assert sensed_busy(records, spot, radio) == []
    assert sensed_busy([(DATA, 1, 0, 1 * MS), (DATA, 0, 1, 1 * MS)], spot, radio) == [1]


def test_slot_controller_data_frames_sense_only_in_slot_1():
    window = WindowConfig(window_ns=100 * MS, slot_len_ns=2 * MS)
    busy = (DATA, 1, 0, 10 * MS)                    # on air over slots 0 to 4
    for start, flagged in ((500 * US, False),       # slot 0
                           (2 * MS, True),          # slot 1
                           (4 * MS, False)):        # slot 2, a member's own
        assert sensed_busy([busy, (DATA, 0, start, start + 100 * US)], POSITIONS,
                           RADIO, window) == ([1] if flagged else [])
    announce = (CONTROL_ANNOUNCE, 0, 500 * US, 700 * US)
    assert sensed_busy([busy, announce], POSITIONS, RADIO, window) == [1]


def test_records_out_of_start_order_are_refused():
    with pytest.raises(ValueError, match="start order"):
        sensed_busy([(DATA, 1, 5, 10), ON_AIR], POSITIONS, RADIO)


def test_the_oracle_sees_a_wrong_sensing_rule():
    """Checked under a rule the run did not follow, the oracle flags frames.

    A baseline run checked as if detection took no time, and a slot-controller
    run whose 800 B frames overrun 1 ms slots checked as if every frame sensed.
    """
    base = run_scenario(ScenarioConfig(mode=MODE_BASELINE, sim_duration_ns=2 * SEC), 1)
    positions = {spec.vid: spec.position for spec in base.specs}
    assert run_sensed_busy(base) == []
    assert sensed_busy(log_records(base), positions,
                       replace(base.cfg.radio, cca_detect_ns=0)) != []

    tsn = run_scenario(ScenarioConfig(mode=MODE_TSNCTL, sim_duration_ns=2 * SEC,
                                      window=WindowConfig(slot_len_ns=1 * MS)), 1)
    positions = {spec.vid: spec.position for spec in tsn.specs}
    assert run_sensed_busy(tsn) == []
    assert sensed_busy(log_records(tsn), positions, tsn.cfg.radio) != []
