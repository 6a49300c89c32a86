import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from _util import ScriptedRng, ScriptedSource, data_frame, frames_transmitted, outcomes

from platoonsim.csma import CsmaConfig, CsmaMac, MessageClock
from platoonsim.kernel import EventKind, Kernel, MS, SEC, US, RngStreams
from platoonsim.metrics import brute_force_outcomes, collect_stats
from platoonsim.radio import Medium, Position, RadioConfig, tx_duration
from platoonsim.scenario import (MODE_BASELINE, ItsService, ScenarioConfig, VehicleSpec,
                                 run_scenario)


RADIO = RadioConfig(range_m=300.0)
AIRTIME = tx_duration(800, RADIO)       # of `data_frame` frames


def _setup(dues, n=2, cw=4, backoff_us=100, gap_m=30.0, trace=False):
    """n vehicles on a line; vehicle v's MAC takes 800 B frames due at `dues[v]`.

    The run ends at 200 ms, the longest any test here runs."""
    kernel = Kernel(trace=trace)
    medium = Medium(kernel, RADIO)
    clock = MessageClock(kernel, medium)
    cfg = CsmaConfig(cw_slots=cw, backoff_slot_ns=backoff_us * US)
    macs = {}
    for vid in range(n):
        medium.register(vid, Position(vid * gap_m, 0.0))
        script = [(at, data_frame(vid, seq=seq)) for seq, at in enumerate(dues.get(vid, ()))]
        macs[vid] = CsmaMac(vid, clock, cfg, RngStreams(77).stream(vid),
                            source=ScriptedSource(script, end=200 * MS))
    return kernel, medium, macs


def test_idle_medium_transmits_at_due_time():
    kernel, medium, _ = _setup({0: [3 * MS]})
    kernel.run_until(3 * MS)
    assert medium.log[-1].start == 3 * MS


def test_busy_medium_defers_to_idle_edge_plus_backoff():
    kernel, medium, macs = _setup({0: [0], 1: [200 * US]})  # 0 occupies [0, 1_066_667)
    k = 3
    macs[1].rng = ScriptedRng([k])
    kernel.run_until(20 * MS)
    tx = medium.log[1]
    # sensed idle edge is the frame end plus propagation to the listener
    t1 = medium.log[0].end + medium.cfg.prop_delay(30.0)
    assert tx.start == t1 + k * 100 * US


def test_backoff_draw_stays_inside_contention_window():
    kernel, medium, _ = _setup({0: [0], 1: [200 * US]}, cw=4, backoff_us=100)
    kernel.run_until(20 * MS)
    t1 = medium.log[0].end + medium.cfg.prop_delay(30.0)
    offset = medium.log[1].start - t1
    assert offset % (100 * US) == 0
    assert 0 <= offset // (100 * US) < 4


def test_busy_again_at_expiry_draws_fresh_backoff_without_doubling():
    # vehicle 0 is busy until ~1.07 ms; vehicle 2 grabs the channel inside
    # vehicle 1's backoff gap
    first_end = AIRTIME + RADIO.prop_delay(60.0)
    kernel, medium, macs = _setup({0: [0], 1: [200 * US], 2: [first_end + 50 * US]},
                                  n=3, cw=4, backoff_us=100)
    macs[1].rng = ScriptedRng([3, 1])              # first draw 3, fresh draw 1
    kernel.run_until(30 * MS)
    assert medium.log[0].end + medium.cfg.prop_delay(60.0) == first_end
    tx1 = next(tx for tx in medium.log if tx.sender == 1)
    tx2 = next(tx for tx in medium.log if tx.sender == 2)
    # fresh draw of 1 slot from vehicle 2's sensed idle edge, not 2*cw anything
    t1 = tx2.end + medium.cfg.prop_delay(30.0)
    assert tx1.start == t1 + 1 * 100 * US


# -- the wake ------------------------------------------------------------------
#
# A busy sense draws its backoff at once and arms one wake at the idle edge
# plus the backoff, the edge read from the frames logged at the sense.
# Vehicles 0 and 2 lie 400 m apart and do not hear each other; vehicle 1,
# between them, hears both.

_HIDDEN_GAP_M = 200.0


def _hidden_terminal_wait(due1, k):
    """Vehicle 0 sends at 0 and vehicle 2, hidden from it, at 500 us; vehicle
    1's message falls due at `due1` and its backoff draw is k slots. Returns
    vehicle 1's wait: the end of vehicle 0's frame and of vehicle 2's, each
    as vehicle 1 senses it, the start of vehicle 1's frame, its deferrals
    and the times of its timer events."""
    kernel, medium, macs = _setup({0: [0], 1: [due1], 2: [500 * US]}, n=3,
                                  gap_m=_HIDDEN_GAP_M, trace=True)
    macs[1].rng = ScriptedRng([k, 1])
    kernel.run_until(20 * MS)
    first, hidden, tx = (next(t for t in medium.log if t.sender == v) for v in (0, 2, 1))
    d = RADIO.prop_delay(_HIDDEN_GAP_M)
    assert (first.start, hidden.start) == (0, 500 * US)
    wakes = [at for at, _seq, target, kind in kernel.trace if target == 1 and kind == "TIMER"]
    return first.end + d, hidden.end + d, tx.start, macs[1].deferrals, wakes


@pytest.mark.parametrize("k", [0, 3])
def test_a_frame_logged_after_the_read_that_starts_before_the_edge_makes_the_mac_wait_again(k):
    """Vehicle 1 reads at 200 us, when only vehicle 0's frame is logged;
    vehicle 2's frame starts at 500 us and is still sensed at the edge that
    vehicle 1 read. The wake re-reads the medium at that edge and waits
    again, with the backoff already drawn, for the end of vehicle 2's frame."""
    first_edge, edge, start, deferrals, wakes = _hidden_terminal_wait(200 * US, k)
    assert 500 * US < first_edge < edge
    assert start == edge + k * 100 * US
    assert deferrals == 1
    assert wakes == [first_edge + k * 100 * US, edge + k * 100 * US]


@pytest.mark.parametrize("k", [0, 3])
def test_a_frame_not_yet_detected_at_the_read_moves_the_edge_with_no_second_wake(k):
    """Vehicle 1 reads at 502 us, after vehicle 2's frame started and before
    it detects it (start + delay + cca_detect_ns). That frame becomes sensed
    while vehicle 0's still is, and outlasts it, so the edge read at 502 us
    is already its end, and vehicle 1 wakes once."""
    _first_edge, edge, start, deferrals, wakes = _hidden_terminal_wait(502 * US, k)
    assert 502 * US < 500 * US + RADIO.prop_delay(_HIDDEN_GAP_M) + RADIO.cca_detect_ns
    assert start == edge + k * 100 * US
    assert deferrals == 1
    assert wakes == [edge + k * 100 * US]


def test_fifo_order_preserved():
    kernel, medium, _ = _setup({0: [0] * 3})
    kernel.run_until(50 * MS)
    sent = [tx.seq for tx in medium.log if tx.sender == 0]
    assert sent == [0, 1, 2]


def test_every_message_transmitted_exactly_once():
    kernel, medium, macs = _setup({vid: [0] * 5 for vid in range(4)}, n=4)
    kernel.run_until(200 * MS)
    for vid, mac in macs.items():
        assert mac.source.seq == frames_transmitted(mac) == 5
        own = [tx for tx in medium.log if tx.sender == vid]
        assert len(own) == 5


def test_own_transmissions_never_overlap():
    kernel, medium, macs = _setup({vid: [0] * 6 for vid in range(3)}, n=3)
    kernel.run_until(200 * MS)
    for vid in macs:
        own = sorted((tx.start, tx.end) for tx in medium.log if tx.sender == vid)
        for (s1, e1), (s2, e2) in zip(own, own[1:]):
            assert e1 <= s2


def test_simultaneous_messages_both_transmit_and_collide():
    kernel, medium, _ = _setup({0: [0], 1: [0]}, n=3)     # same instant, idle medium
    kernel.run_until(20 * MS)
    assert len(medium.log) == 2
    assert medium.log[0].start == medium.log[1].start == 0
    # confirmed against the independent pairwise-overlap oracle
    records = [(tx.sender, tx.start, tx.end) for tx in medium.log]
    positions = {0: Position(0.0, 0.0), 1: Position(30.0, 0.0), 2: Position(60.0, 0.0)}
    want = brute_force_outcomes(records, positions, 300.0)
    for tx, expected in zip(medium.log, want):
        assert outcomes(tx) == expected  # in particular both collided at vehicle 2
        assert expected[2] is True


def _sourced_mac(interval_ns, duration_ns):
    """One vehicle whose MAC takes 800 B messages from an awareness service."""
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    medium.register(0, Position(0.0, 0.0))
    cfg = ScenarioConfig(message_interval_ns=interval_ns, sim_duration_ns=duration_ns)
    source = ItsService(VehicleSpec(0, Position(0.0, 0.0), 0), cfg)
    # a sense that found its own frame busy would back off by a whole slot
    mac = CsmaMac(0, MessageClock(kernel, medium), CsmaConfig(), ScriptedRng([1] * 4),
                  source=source)
    return kernel, medium, mac


@pytest.mark.parametrize("early_ns", [400 * US, 0], ids=["before-end", "at-end"])
def test_message_due_while_on_air_goes_out_once_at_the_end(early_ns):
    airtime = tx_duration(800, RadioConfig())
    interval = airtime - early_ns
    end = 2 * interval
    kernel, medium, mac = _sourced_mac(interval, end)
    kernel.run_until(end)
    first, second = medium.log
    assert (first.seq, first.start) == (0, 0)
    # it waited for the end without sensing its own frame busy
    assert (second.seq, second.start) == (1, first.end)
    assert mac.deferrals == 0
    assert mac.source.seq == 2 and not mac.queue
    # a frame counts once it has ended by the run end: the second ends at it
    # only when its message fell due at the first frame's end
    assert second.end - end == 2 * early_ns
    assert frames_transmitted(mac) == (2 if early_ns == 0 else 1)


@pytest.mark.parametrize("armed", ["before", "after"])
def test_zero_backoff_transmits_at_once_beside_a_same_instant_broadcast(armed):
    """Vehicle 1's idle edge and a broadcast of vehicle 0 fall on one instant:
    with a zero backoff vehicle 1 transmits at its idle edge, raising no other
    event, and does not sense the frame that starts with its own, whether the
    broadcast's event was armed before its idle edge or after."""
    kernel, medium, macs = _setup({0: [0], 1: [200 * US]}, trace=True)
    macs[1].rng = ScriptedRng([0])
    t1 = AIRTIME + RADIO.prop_delay(30.0)           # 1's idle edge

    def arm_second_frame():
        kernel.at(t1, 0, EventKind.TIMER, lambda _: medium.broadcast(data_frame(0, seq=1)))

    if armed == "before":
        arm_second_frame()
    kernel.run_until(200 * US)                      # 1's wake is armed
    if armed == "after":
        arm_second_frame()
    kernel.run_until(20 * MS)
    assert sorted((tx.sender, tx.start) for tx in medium.log) == [(0, 0), (0, t1), (1, t1)]
    assert macs[1].deferrals == 1
    assert [kind for at, _seq, target, kind in kernel.trace
            if target == 1 and at == t1] == ["TIMER"]


def test_default_baseline_raises_no_event_at_its_own_frame_ends():
    cfg = ScenarioConfig(vehicle_count=20, mode=MODE_BASELINE, sim_duration_ns=2 * SEC)
    run = run_scenario(cfg, 1, trace=True)
    ends = {(tx.sender, tx.end) for tx in run.medium.log}
    timers = [(target, at) for at, _seq, target, kind in run.medium.kernel.trace
              if kind == "TIMER"]
    assert ends and timers
    assert sum(timer in ends for timer in timers) == 0
    assert all(frames_transmitted(mac) == mac.source.seq for mac in run.macs.values())


def test_config_validation():
    with pytest.raises(ValueError):
        CsmaConfig(cw_slots=0).validate()
    with pytest.raises(ValueError):
        CsmaConfig(backoff_slot_ns=0).validate()


# -- the message clock ---------------------------------------------------------


class _EventPerArrival:
    """The reference for `MessageClock`: every arrival is its own `Kernel.at` event."""

    def __init__(self, kernel, medium):
        self.kernel, self.medium = kernel, medium

    def arm(self, mac, due):
        self.kernel.at(due, mac.vid, EventKind.APP_TICK, lambda _: mac._on_message())


def _spawned_macs(make_clock, spawns, scripts, end=30 * MS):
    """MACs spawned by kernel events, vehicle v at `spawns[v]`, with 800 B frames
    due at `scripts[v]`; returns the kernel trace and the log."""
    kernel = Kernel(trace=True)
    medium = Medium(kernel, RADIO)
    clock = make_clock(kernel, medium)
    cfg = CsmaConfig(cw_slots=4, backoff_slot_ns=100 * US)

    def spawn(vid):
        medium.register(vid, Position(vid * 30.0, 0.0))
        script = [(at, data_frame(vid, seq=seq)) for seq, at in enumerate(scripts[vid])]
        CsmaMac(vid, clock, cfg, RngStreams(5).stream(vid), source=ScriptedSource(script, end=end))

    for vid, at in spawns.items():
        kernel.at(at, vid, EventKind.SPAWN, spawn, vid)
    kernel.run_until(end)
    return kernel.trace, [(tx.sender, tx.seq, tx.start, tx.end, tx.hit) for tx in medium.log]


def _ticks(trace):
    return [(at, target) for at, _seq, target, kind in trace if kind == "APP_TICK"]


def _order_free(trace, log):
    """The events as (time, vehicle, kind) and the frames, each sorted: what
    a run shows whatever the order of its same-instant events."""
    return sorted((at, target, kind) for at, _seq, target, kind in trace), sorted(log)


def test_a_later_spawn_lands_before_the_tail_of_the_stream():
    # at 2 ms vehicles 0 and 1 have armed arrivals at 2.5 ms (in the heap) and
    # 4 ms (the tail); vehicle 2 spawns then with its first message due at
    # 3 ms, between the two, and a second one due at the 4 ms of vehicle 1
    spawns = {0: 0, 1: 0, 2: 2 * MS}
    scripts = {0: [0, 2500 * US], 1: [1 * MS, 4 * MS], 2: [3 * MS, 4 * MS]}
    trace, log = _spawned_macs(MessageClock, spawns, scripts)
    assert _ticks(trace) == [(0, 0), (1 * MS, 1), (2500 * US, 0), (3 * MS, 2),
                             (4 * MS, 1), (4 * MS, 2)]
    assert _order_free(trace, log) == \
        _order_free(*_spawned_macs(_EventPerArrival, spawns, scripts))


def test_arrivals_due_together_leave_the_stream_in_vehicle_order():
    # vehicle 1's arrival is the kernel's; vehicle 2 arms its arrival at the
    # same due before vehicle 0 does, and the stream hands vehicle 0's first
    spawns = {1: 0, 2: 1 * MS, 0: 1 * MS}
    scripts = {0: [5 * MS], 1: [5 * MS], 2: [5 * MS]}
    trace, log = _spawned_macs(MessageClock, spawns, scripts)
    assert _ticks(trace) == [(5 * MS, 1), (5 * MS, 0), (5 * MS, 2)]
    reference = _spawned_macs(_EventPerArrival, spawns, scripts)
    assert _ticks(reference[0]) == [(5 * MS, 1), (5 * MS, 2), (5 * MS, 0)]
    assert _order_free(trace, log) == _order_free(*reference)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.lists(st.integers(0, 12), max_size=6)),
                min_size=1, max_size=4))
def test_message_clock_raises_the_events_and_frames_of_one_event_per_arrival(vehicles):
    """Spawns and dues on a 500 us grid, so arrivals meet each other, spawns,
    wakes and frame ends (an airtime is about 2 grid
    steps) at one instant; the events and the frames, each sorted, equal the
    reference's."""
    spawns = {vid: at * 500 * US for vid, (at, _) in enumerate(vehicles)}
    scripts = {vid: sorted(spawns[vid] + d * 500 * US for d in dues)
               for vid, (_, dues) in enumerate(vehicles)}
    assert _order_free(*_spawned_macs(MessageClock, spawns, scripts)) == \
        _order_free(*_spawned_macs(_EventPerArrival, spawns, scripts))


def test_a_backlogged_pair_keeps_its_kernel_trace():
    # two vehicles at one spot; a message every 500 us into 750 B frames that
    # take 1 ms on air, so message arrivals, frame ends and idle edges meet
    # at every whole millisecond. Vehicle 1's wait drew a zero backoff, so
    # its wake at the idle edge, 1 ms, transmits at once, raising no second
    # event there.
    cfg = ScenarioConfig(vehicle_count=2, mode=MODE_BASELINE, area_length_m=0.0,
                         spawn_interval_ns=250 * US, message_interval_ns=500 * US,
                         payload_size_b=750, sim_duration_ns=5 * MS)
    run = run_scenario(cfg, 1, trace=True)
    assert run.medium.kernel.trace == [
        (0, 0, 0, 'SPAWN'), (0, 2, 0, 'APP_TICK'), (250000, 1, 1, 'SPAWN'),
        (250000, 5, 1, 'APP_TICK'), (500000, 4, 0, 'APP_TICK'), (750000, 7, 1, 'APP_TICK'),
        (1000000, 3, 0, 'TIMER'), (1000000, 6, 1, 'TIMER'), (1000000, 8, 0, 'APP_TICK'),
        (1250000, 11, 1, 'APP_TICK'), (1500000, 12, 0, 'APP_TICK'), (1750000, 13, 1, 'APP_TICK'),
        (2000000, 9, 0, 'TIMER'), (2000000, 10, 1, 'TIMER'), (2000000, 14, 0, 'APP_TICK'),
        (2250000, 17, 1, 'APP_TICK'), (2500000, 18, 0, 'APP_TICK'), (2750000, 19, 1, 'APP_TICK'),
        (3000000, 15, 0, 'TIMER'), (3000000, 16, 1, 'TIMER'), (3000000, 20, 0, 'APP_TICK'),
        (3250000, 23, 1, 'APP_TICK'), (3500000, 24, 0, 'APP_TICK'), (3750000, 25, 1, 'APP_TICK'),
        (4000000, 21, 0, 'TIMER'), (4000000, 22, 1, 'TIMER'), (4000000, 26, 0, 'APP_TICK'),
        (4250000, 29, 1, 'APP_TICK'), (4500000, 30, 0, 'APP_TICK'), (4750000, 31, 1, 'APP_TICK'),
        (5000000, 27, 0, 'TIMER'), (5000000, 28, 1, 'TIMER'),
    ]


# -- phase locking ---------------------------------------------------------------
#
# Each vehicle's messages fall due every message interval from its spawn, so
# the spawn grid fixes the phase of every vehicle for the whole run. When the
# due times of all vehicles lie further apart than a frame's airtime plus the
# longest propagation delay, every message finds the channel idle and goes out
# as it falls due, and no two frames meet, whatever the load or the backoff.


def _overlapping_neighbours(log) -> int:
    return sum(b.start < a.end for a, b in zip(log, log[1:]))


@st.composite
def _unlocked_grids(draw):
    """A baseline config whose due times, over all vehicles, lie further apart
    than a frame's airtime plus the longest propagation delay.

    The spawn interval is longer than that, and so is the gap from the last
    vehicle's message to the first vehicle's next one: every vehicle's first
    message falls due within one message interval, with that gap to spare.
    """
    radio = RadioConfig(range_m=draw(st.floats(0.0, 1_000.0)),
                        preamble_ns=draw(st.integers(0, 50_000)),
                        cca_detect_ns=draw(st.integers(0, 50_000)))
    payload = draw(st.integers(1, 800))
    clear = tx_duration(payload, radio) + radio.max_delay
    n = draw(st.integers(1, 20))
    spawn = clear + draw(st.integers(1, 500 * US))
    interval = (n - 1) * spawn + clear + draw(st.integers(1, 50 * MS))
    cfg = ScenarioConfig(vehicle_count=n, mode=MODE_BASELINE, spawn_interval_ns=spawn,
                         message_interval_ns=interval, payload_size_b=payload,
                         area_length_m=draw(st.floats(0.0, 600.0)), radio=radio,
                         csma=CsmaConfig(cw_slots=draw(st.integers(1, 16)),
                                         backoff_slot_ns=draw(st.integers(1, 1_000_000))),
                         sim_duration_ns=draw(st.integers(100, 1_000)) * MS)
    return cfg, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(drawn=_unlocked_grids())
@example(drawn=(ScenarioConfig(mode=MODE_BASELINE, spawn_interval_ns=1_068 * US,
                               sim_duration_ns=5 * SEC), 1))
@example(drawn=(ScenarioConfig(mode=MODE_BASELINE, spawn_interval_ns=1_100 * US,
                               sim_duration_ns=5 * SEC), 2))
def test_frames_never_meet_when_due_times_lie_an_airtime_apart(drawn):
    cfg, seed = drawn
    run = run_scenario(cfg, seed)
    log = run.medium.log
    assert all(tx.start == tx.generated_at for tx in log)   # none waited
    assert _overlapping_neighbours(log) == 0
    assert collect_stats(run).frames_collided == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_frames_meet_on_the_phase_locked_1ms_spawn_grid(seed):
    """With 1 ms spawns, an 800 B frame (1.07 ms on air) is still on air when
    the next vehicle's message falls due, every message interval: the messages
    that waited for it meet at its idle edge and draw from a two-slot window."""
    cfg = ScenarioConfig(mode=MODE_BASELINE, spawn_interval_ns=1 * MS, sim_duration_ns=5 * SEC)
    run = run_scenario(cfg, seed)
    assert tx_duration(cfg.payload_size_b, cfg.radio) > cfg.spawn_interval_ns
    assert _overlapping_neighbours(run.medium.log) > 150
    assert collect_stats(run).rate() > 30.0
