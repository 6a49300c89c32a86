import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _shuffle import shuffled
from _util import (ConstRng, ScriptedRng, ScriptedSource, assemble_platoon, data_frame,
                   elect_master, join_retries, outcomes)

from platoonsim.frames import (
    ANNOUNCE_SIZE,
    Frame,
    FrameKind,
    allocation_size,
    make_allocation,
)
from platoonsim.kernel import EventKind, Kernel, MS, SEC, US, RngStreams
from platoonsim.radio import Medium, Position, RadioConfig, tx_duration
from platoonsim.scenario import MODE_TSNCTL, ScenarioConfig, run_scenario
from platoonsim.tsnctl import (
    FsmEvent,
    FsmState,
    LEGAL_EDGES,
    MASTER_TIMEOUT_WINDOWS,
    PriorityQueueSet,
    ProtocolError,
    Role,
    Status,
    TsnCtl,
    WindowClock,
    WindowConfig,
    admit,
    announce_offset,
    slot_count,
)

W10 = WindowConfig(window_ns=100 * MS, slot_len_ns=10 * MS)
W2 = WindowConfig(window_ns=100 * MS, slot_len_ns=2 * MS)


# -- window geometry ----------------------------------------------------------


def test_slot_count_ten_ms_slots():
    assert slot_count(W10) == 10


def test_slot_count_two_ms_slots():
    assert slot_count(W2) == 50


def test_slot_count_floor_for_non_divisor():
    assert slot_count(WindowConfig(slot_len_ns=3 * MS)) == 33


def test_window_equal_to_slot_rejected():
    with pytest.raises(ValueError):
        WindowConfig(window_ns=2 * MS, slot_len_ns=2 * MS).validate()


# -- announce offsets -----------------------------------------------------------


def test_announce_offset_degenerate_is_forced_to_zero():
    rng = RngStreams(1).stream(0)
    assert announce_offset(rng, W2, 2 * MS) == 0


def test_announce_offset_respects_bounds():
    rng = RngStreams(2).stream(0)
    tx = 1 * MS
    cfg = WindowConfig(slot_len_ns=3 * MS)
    for _ in range(500):
        off = announce_offset(rng, cfg, tx)
        assert 0 <= off <= 2 * MS


def test_announce_offset_rejects_oversized_frame():
    rng = RngStreams(3).stream(0)
    with pytest.raises(ValueError):
        announce_offset(rng, W2, 2 * MS + 1)


def test_two_announce_overlap_rate_matches_analytic_estimate():
    # Monte Carlo over seeded rounds vs the coarse 2*tx/(slot-tx) estimate for
    # two frames placed uniformly in slot 0
    rng = RngStreams(4).stream(0)
    tx = tx_duration(ANNOUNCE_SIZE, RadioConfig())
    rounds = 10_000
    hits = 0
    for _ in range(rounds):
        a = announce_offset(rng, W2, tx)
        b = announce_offset(rng, W2, tx)
        if a < b + tx and b < a + tx:
            hits += 1
    estimate = 2 * tx / (W2.slot_len_ns - tx)
    assert abs(hits / rounds - estimate) / estimate < 0.20


# -- election --------------------------------------------------------------------


def test_elect_master_earliest_timestamp():
    assert elect_master({1: 5 * MS, 2: 3 * MS}) == 2


def test_elect_master_tie_breaks_to_lowest_id():
    assert elect_master({4: 3 * MS, 2: 3 * MS}) == 2


def test_elect_master_singleton():
    assert elect_master({9: 1}) == 9


def test_elect_master_empty_rejected():
    with pytest.raises(ValueError):
        elect_master({})


@st.composite
def _formation_rounds(draw):
    """Vehicles on a 600 m line (hidden terminals at 300 m range), spawn times, a seed."""
    n = draw(st.integers(2, 10))
    xs = draw(st.lists(st.integers(0, 600), min_size=n, max_size=n))
    spawns = draw(st.lists(st.integers(0, 250), min_size=n, max_size=n))
    return xs, spawns, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(_formation_rounds())
def test_round_winner_is_elect_master_over_all_clean_announces_and_a_live_master(case):
    """At each end of slot 0, a vehicle in a formation round follows the winner of
    `elect_master` over itself, every announce it heard clean in the window and its
    master if that master is still live; the controller weighs at most three."""
    xs, spawns, seed = case
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium, WindowConfig(window_ns=20 * MS, slot_len_ns=1 * MS))
    streams = RngStreams(seed)
    rounds = []

    def spawn(vid):
        ctl = TsnCtl(vid, clock, streams.stream(vid), source=ScriptedSource(end=300 * MS))
        medium.register(vid, Position(float(xs[vid]), 0.0), handler=ctl.on_frame_delivery)
        elect = ctl._on_slot0_end

        def checked(w, announces):
            if ctl.state.status is not Status.JOINING:    # a platoon master
                return elect(w, announces)
            candidates = {vid: ctl.created_at}
            for frame in list(medium.clean_receptions(vid, announces)):
                candidates[frame.sender] = frame.generated_at
            if ctl.master is not None and not ctl._master_silent():
                ts, master = ctl.master
                candidates.setdefault(master, ts)
            want = elect_master(candidates)
            steps = len(ctl.transitions)
            elect(w, announces)
            _, event, outcome, _ = ctl.transitions[steps]
            assert event is FsmEvent.SLOT0_END
            got = vid if outcome == "won" else ctl.master[1]
            assert got == want
            if outcome == "lost":
                assert ctl.master == (candidates[want], want)
            rounds.append(w)

        ctl._on_slot0_end = checked

    for vid, at in enumerate(spawns):
        kernel.at(at * MS, vid, EventKind.SPAWN, spawn, vid)
    kernel.run_until(300 * MS)
    assert rounds


def test_listener_whose_earliest_announce_collided_follows_the_next_one():
    """The window's earliest announce collided at the listener: the second one wins there.

    On a line, 0 and 2 announce together and collide at 3 (and at 1); 2 is out
    of 0's range, so neither senses the other. 3 hears 1's later announce clean.
    """
    x = {0: 0.0, 1: 260.0, 2: 500.0, 3: 250.0}
    kernel, medium, ctls = assemble_platoon(
        {vid: vid * MS for vid in x}, {0: 0, 1: 300 * US, 2: 0, 3: 600 * US},
        run_ms=100, positions={vid: Position(x[vid], 0.0) for vid in x})
    listener = ctls[3]
    kernel.run_until(100 * MS + W2.slot_len_ns + listener.guard)   # the end of slot 0
    announces = [tx for tx in medium.log
                 if tx.start >= 100 * MS and tx.kind is FrameKind.CONTROL_ANNOUNCE]
    earliest = min(announces, key=lambda tx: (tx.generated_at, tx.sender))
    assert earliest.sender == 0 and outcomes(earliest)[3] is True
    assert [f.sender for f in medium.clean_receptions(3, announces)] == [1]
    assert listener.transitions[-1][1:3] == (FsmEvent.SLOT0_END, "lost")
    assert listener.master == (1 * MS, 1)


def _foreign_master(medium, sender, allocations):
    """Broadcast and deliver an allocation of `sender`, a registered vehicle
    without a controller, whose election key (0, sender) beats every spawn."""
    alloc = make_allocation(sender=sender, generated_at=0, allocations=allocations)
    medium.deliver(medium.broadcast(alloc))
    return alloc


def _follower_of_an_unheard_master():
    """Vehicle 5 learns master 99 from one allocation that does not list it.

    5 spawns at 10 ms, forms alone in the window at 100 ms, and 99's
    allocation supersedes it in that window's slot 1; 99 never sends again.
    6 spawns at 150 ms, later than 5, and announces in every window from
    200 ms on, where 5 hears it clean.
    """
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium, W2)
    ctls = {}

    def spawn(vid):
        ctls[vid] = TsnCtl(vid, clock, ConstRng((vid - 5) * 300 * US),
                           source=ScriptedSource(end=SEC))
        medium.register(vid, Position(10.0 * (vid - 5), 0.0), handler=ctls[vid].on_frame_delivery)

    kernel.at(10 * MS, 5, EventKind.SPAWN, spawn, 5)
    kernel.at(150 * MS, 6, EventKind.SPAWN, spawn, 6)
    kernel.run_until(100 * MS + 2 * MS + clock.guard + 1)
    medium.register(99, Position(20.0, 0.0))
    _foreign_master(medium, 99, {99: 2})
    kernel.run_until(110 * MS)
    assert ctls[5].state == FsmState(Status.JOINING, Role.SLAVE)
    assert ctls[5].master == (0, 99)
    return kernel, medium, ctls[5]


def _round_outcomes(ctl):
    return [t[2] for t in ctl.transitions if t[1] is FsmEvent.SLOT0_END]


def test_live_unheard_master_wins_the_round():
    kernel, medium, ctl = _follower_of_an_unheard_master()
    kernel.run_until(200 * MS + W2.slot_len_ns + ctl.guard)        # the end of slot 0
    announces = [tx for tx in medium.log
                 if tx.start >= 200 * MS and tx.kind is FrameKind.CONTROL_ANNOUNCE]
    assert [f.sender for f in medium.clean_receptions(5, announces)] == [6]
    assert elect_master({5: ctl.created_at, 6: 150 * MS}) == 5     # 5 would win without 99
    assert _round_outcomes(ctl) == ["won", "lost"]
    assert ctl.master == (0, 99)


def test_silent_master_does_not_win_the_round():
    kernel, medium, ctl = _follower_of_an_unheard_master()
    # 99's frame arrived at about 102 ms: live in the rounds at 200, 300 and
    # 400 ms, silent from the one at 500 ms, where 5 wins over 6
    kernel.run_until(500 * MS + W2.slot_len_ns + ctl.guard)
    assert _round_outcomes(ctl) == ["won", "lost", "lost", "lost", "won"]
    assert ctl._master_silent()
    assert ctl.state == FsmState(Status.JOINING, Role.MASTER)



def test_remembered_master_arrival_answers_as_a_fresh_log_read(monkeypatch):
    """Every liveness read, and one more at every window start of every
    controller, agrees with a fresh `last_clean_arrival` read. The run, 40
    vehicles in 1 ms slots, has masters that fall silent and MASTER_LOST steps."""
    silent, start = TsnCtl._master_silent, TsnCtl._on_window_start
    answers = []

    def checked(ctl):
        got = silent(ctl)
        since = ctl.kernel.now - MASTER_TIMEOUT_WINDOWS * ctl.wcfg.window_ns
        fresh = ctl.master is None or (ctl.created_at <= since and ctl.medium.last_clean_arrival(
            ctl.vid, ctl.master[1], since) is None)
        assert got == fresh
        answers.append(got)
        return got

    def read_first(ctl, w):
        ctl._master_silent()
        return start(ctl, w)

    monkeypatch.setattr(TsnCtl, "_master_silent", checked)
    monkeypatch.setattr(TsnCtl, "_on_window_start", read_first)
    cfg = ScenarioConfig(vehicle_count=40, sim_duration_ns=2 * SEC, repetitions=1,
                         window=WindowConfig(slot_len_ns=1 * MS))
    run = run_scenario(cfg, 1)
    events = [t[1] for ctl in run.controllers.values() for t in ctl.transitions]
    assert FsmEvent.MASTER_LOST in events
    assert True in answers and False in answers

# -- admission --------------------------------------------------------------------


@pytest.mark.parametrize("cfg, base, requesters, schedule, rejected", [
    (W2, {}, [0, 1, 2], {0: 2, 1: 3, 2: 4}, []),
    (W2, {}, [0, 3], {0: 2, 3: 3}, []),
    (W2, {}, list(range(60)), {vid: vid + 2 for vid in range(48)}, list(range(48, 60))),
    (W2, {0: 2, 1: 3, 2: 4}, [9], {0: 2, 1: 3, 2: 4, 9: 5}, []),
    (W2, {0: 2}, [5, 6], {0: 2, 5: 3, 6: 4}, []),
    (W2, {vid: vid + 2 for vid in range(48)}, [99], {vid: vid + 2 for vid in range(48)}, [99]),
    (W2, {0: 2, 2: 4}, [7, 1], {0: 2, 2: 4, 1: 3, 7: 5}, []),
    (W2, {0: 2, 1: 3}, [1, 4], {0: 2, 1: 3, 4: 4}, []),
], ids=["formation", "formation-by-id", "formation-overflow", "refresh", "refresh-two",
        "refresh-full", "refresh-gap", "refresh-member"])
def test_admit_serves_each_newcomer_the_lowest_free_slot(cfg, base, requesters, schedule,
                                                         rejected):
    assert admit(base, requesters, cfg) == (schedule, rejected)


@st.composite
def _admissions(draw):
    """A window, a schedule with gaps between its slots, and announces to admit."""
    cfg = WindowConfig(window_ns=draw(st.integers(3, 14)) * MS, slot_len_ns=1 * MS)
    data_slots = range(2, slot_count(cfg))
    held = draw(st.lists(st.sampled_from(data_slots), unique=True))
    base = {10 + k: idx for k, idx in enumerate(held)}
    requesters = draw(st.lists(st.integers(0, 16) | st.sampled_from(sorted(base) or [0]),
                               unique=True, max_size=12))
    return cfg, base, requesters


@given(_admissions())
@settings(max_examples=300, deadline=None)
def test_admit_keeps_slots_and_serves_lowest_free_slot(case):
    """No slot of the result is reserved, past the window or shared; members
    keep their slots, and newcomers in id order take the free ones from the
    lowest up until none is left."""
    cfg, base, requesters = case
    sched, rejected = admit(base, requesters, cfg)
    assert all(idx not in (0, 1) for idx in sched.values())
    assert all(idx < slot_count(cfg) for idx in sched.values())
    assert len(set(sched.values())) == len(sched)
    assert {vid: sched[vid] for vid in base} == base
    newcomers = sorted(vid for vid in requesters if vid not in base)
    free = [idx for idx in range(2, slot_count(cfg)) if idx not in base.values()]
    assert {vid: sched[vid] for vid in newcomers if vid in sched} == dict(zip(newcomers, free))
    assert rejected == newcomers[len(free):]
    assert len(sched) == len(base) + len(newcomers) - len(rejected)


def test_schedule_wire_roundtrip():
    # the master's slots are the allocation payload as they are
    sched = {0: 2, 3: 3}
    assert make_allocation(0, 0, sched).allocations == sched


# -- FSM table -------------------------------------------------------------------------


def test_window_start_moves_init_to_joining_with_announce():
    state = LEGAL_EDGES[(Status.INIT, Role.SLAVE, FsmEvent.WINDOW_START, None)]
    assert state == FsmState(Status.JOINING, Role.SLAVE)


def test_lone_master_restarts_on_no_neighbors():
    state = LEGAL_EDGES[(Status.JOINING, Role.MASTER, FsmEvent.NO_NEIGHBORS, None)]
    assert state == FsmState(Status.JOINING, Role.MASTER)


def test_slave_confirms_at_own_slot_trigger():
    state = LEGAL_EDGES[(Status.JOINING, Role.SLAVE, FsmEvent.OWN_SLOT_TRIGGER, None)]
    assert state == FsmState(Status.IN_PLATOON, Role.SLAVE)


def test_illegal_event_is_a_hard_fault():
    """A step with no edge raises, naming the event, its outcome and the state,
    and leaves the controller as it was."""
    for state, event, outcome, message in [
        (FsmState(Status.INIT, Role.SLAVE), FsmEvent.OWN_SLOT_TRIGGER, None,
         "illegal FSM event OWN_SLOT_TRIGGER (outcome=None) in state INIT/SLAVE"),
        (FsmState(Status.IN_PLATOON, Role.MASTER), FsmEvent.MASTER_LOST, None,
         "illegal FSM event MASTER_LOST (outcome=None) in state IN_PLATOON/MASTER"),
        (FsmState(Status.IN_PLATOON, Role.MASTER), FsmEvent.ALLOCATION_RECEIVED, "refresh",
         "illegal FSM event ALLOCATION_RECEIVED (outcome='refresh') in state IN_PLATOON/MASTER"),
    ]:
        kernel = Kernel()
        ctl = TsnCtl(0, WindowClock(kernel, Medium(kernel, RadioConfig()), W2), ConstRng(0),
                     source=ScriptedSource(end=0))
        ctl.state = state
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            ctl._step(event, outcome)
        assert ctl.state == state and ctl.transitions == []


def test_slot_trigger_reaching_a_controller_in_init_is_a_hard_fault():
    # a live step that opens a data slot always meets a state with an
    # OWN_SLOT_TRIGGER edge; the FSM table, not the controller, rejects one
    # that does not. The clock's data phase runs the steps here, from 0 ns
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium, W2)
    ctl = TsnCtl(0, clock, ConstRng(0), source=ScriptedSource(end=0))
    medium.register(0, Position(0.0, 0.0))
    assert ctl.state == FsmState(Status.INIT, Role.SLAVE)
    ctl.my_slot = 2
    ctl._arm_slot(0)            # opens slot 2 at 4 ms
    ctl._reset_membership()     # a stale step: the reset drops it, and it does nothing
    kernel.at(0, WindowClock.TARGET, EventKind.TIMER, clock._data_phase, (0, -1))
    kernel.run_until(5 * MS)
    assert ctl.transitions == [] and medium.log == []
    ctl.my_slot = 3
    ctl._arm_slot(0)            # opens slot 3 at 6 ms, run by the clock's next event
    with pytest.raises(ProtocolError):
        kernel.run_until(7 * MS)
    assert ctl.transitions == [] and ctl.state.status is Status.INIT


def test_edge_table_states_are_consistent():
    for (status, role, _event, _outcome), nxt in LEGAL_EDGES.items():
        assert isinstance(nxt, FsmState)
        assert status in Status and role in Role and nxt.status in Status


# -- priority queues ----------------------------------------------------------------------


def test_priority_queues_fifo_within_class():
    q = PriorityQueueSet(2)
    f1 = Frame(FrameKind.DATA, 0, 100, 0, priority=0, seq=1)
    f2 = Frame(FrameKind.DATA, 0, 100, 0, priority=0, seq=2)
    q.push(f1)
    q.push(f2)
    assert q.pop() is f1
    assert q.pop() is f2


def test_priority_queues_strict_order():
    q = PriorityQueueSet(2)
    low = Frame(FrameKind.DATA, 0, 100, 0, priority=1)
    high = Frame(FrameKind.DATA, 0, 100, 0, priority=0)
    q.push(low)
    q.push(high)
    assert q.pop() is high
    assert q.pop() is low


def test_priority_queue_set_of_one_level():
    q = PriorityQueueSet(1)
    frame = Frame(FrameKind.DATA, 0, 100, 0, priority=0)
    q.push(frame)
    assert len(q.queues) == len(q) == 1
    assert q.pop() is frame


def test_priority_queue_unknown_class_is_a_hard_fault():
    q = PriorityQueueSet(2)
    with pytest.raises(ValueError):
        q.push(Frame(FrameKind.DATA, 0, 100, 0, priority=2))


@pytest.mark.parametrize("act, error, message", [
    (lambda: WindowConfig(window_ns=0).validate(), ValueError,
     "window and slot length must be positive"),
    (lambda: WindowConfig(slot_len_ns=-1).validate(), ValueError,
     "window and slot length must be positive"),
    (lambda: WindowConfig(slot_len_ns=0).validate(), ValueError,
     "window and slot length must be positive"),
    (lambda: PriorityQueueSet(0), ValueError, "need at least one priority level"),
    (lambda: PriorityQueueSet().pop(), IndexError, "pop from empty queue set"),
], ids=["window-zero", "slot-negative", "slot-zero", "no-levels", "pop-empty"])
def test_window_and_queue_faults_are_named(act, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        act()


# -- controller integration ------------------------------------------------------------------


def _due_at(at, frames, end):
    """A source whose frames all fall due at `at`."""
    return ScriptedSource([(at, frame) for frame in frames], end=end)


def test_two_vehicles_form_a_platoon():
    _, medium, ctls = assemble_platoon({0: 0, 1: 1 * MS},
                                       {0: 0, 1: 300 * US})
    assert ctls[0].state == FsmState(Status.IN_PLATOON, Role.MASTER)
    assert ctls[1].state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    assert ctls[0].my_slot == 2
    assert ctls[1].my_slot == 3
    assert ctls[1].master == (0, 0)


def test_data_frames_start_at_their_slot_origin():
    # slots 2, 3 and 4 of the window at 300 ms open at 304, 306 and 308 ms; the
    # master's first frame goes out in slot 1, after the evaluation guard
    frames = {0: [data_frame(0, seq=0), data_frame(0, seq=1)], 1: [data_frame(1)], 2: [data_frame(2)]}
    kernel, medium, ctls = assemble_platoon(
        {0: 0, 1: 1 * MS, 2: 2 * MS}, {0: 0, 1: 300 * US, 2: 600 * US}, run_ms=250,
        sources={vid: _due_at(250 * MS, frames[vid], 400 * MS) for vid in frames})
    assert [ctls[v].my_slot for v in ctls] == [2, 3, 4]
    kernel.run_until(400 * MS)
    starts = [(tx.sender, tx.seq, tx.start) for tx in medium.log
              if tx.kind is FrameKind.DATA]
    assert starts == [(0, 0, 302 * MS + ctls[0].guard), (0, 1, 304 * MS),
                      (1, 0, 306 * MS), (2, 0, 308 * MS)]


def test_burst_frame_ending_exactly_at_its_slot_end_goes_out_in_that_slot():
    # a 750 B frame is on air for exactly 1 ms, so slave 1's two frames fill
    # its 2 ms slot 3 of the window at 300 ms, the second ending at its end
    frames = [data_frame(1, size=750, seq=seq) for seq in range(2)]
    kernel, medium, ctls = assemble_platoon(
        {0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US}, run_ms=250,
        sources={1: _due_at(250 * MS, frames, 400 * MS)})
    kernel.run_until(400 * MS)
    sent = [(tx.start, tx.end) for tx in medium.log if tx.sender == 1 and tx.kind is FrameKind.DATA]
    assert sent == [(306 * MS, 307 * MS), (307 * MS, 308 * MS)] and ctls[1].deferred == 0


def test_a_vehicle_spawned_as_a_data_frame_starts_is_among_its_receivers():
    # slave 1's slot 3 of the window at 300 ms opens at 306 ms, the instant
    # vehicle 2 spawns; a spawn runs before every other event at its
    # instant, so the frame that starts then reaches 2 as well
    kernel, medium, ctls = assemble_platoon(
        {0: 0, 1: 1 * MS, 2: 306 * MS}, {0: 0, 1: 300 * US, 2: 600 * US}, run_ms=400,
        sources={1: _due_at(250 * MS, [data_frame(1)], 400 * MS)})
    assert ctls[1].my_slot == 3
    tx = next(tx for tx in medium.log if tx.sender == 1 and tx.kind is FrameKind.DATA)
    assert tx.start == 306 * MS and tx.receivers == 0b101


def test_announce_lands_in_slot_zero_at_requested_offset():
    _, medium, _ = assemble_platoon({0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US})
    announces = [tx for tx in medium.log if tx.kind is FrameKind.CONTROL_ANNOUNCE]
    assert announces[0].start == 100 * MS          # vehicle 0, offset 0
    assert announces[1].start == 100 * MS + 300 * US
    slot_end = 100 * MS + 2 * MS
    assert all(tx.end <= slot_end for tx in announces[:2])


def test_allocation_sent_in_slot_one():
    _, medium, _ = assemble_platoon({0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US})
    alloc = next(tx for tx in medium.log
                 if tx.kind is FrameKind.CONTROL_ALLOCATION)
    assert 100 * MS + 2 * MS <= alloc.start
    assert alloc.end <= 100 * MS + 4 * MS


def test_lone_vehicle_keeps_restarting():
    _, medium, ctls = assemble_platoon({0: 0}, {0: 0}, run_ms=450)
    ctl = ctls[0]
    assert ctl.state == FsmState(Status.JOINING, Role.MASTER)
    restarts = [t for t in ctl.transitions if t[1] is FsmEvent.NO_NEIGHBORS]
    assert len(restarts) >= 3
    announces = [tx for tx in medium.log if tx.kind is FrameKind.CONTROL_ANNOUNCE]
    assert len(announces) >= 4
    # retries reuse the original creation timestamp
    assert {tx.generated_at for tx in announces} == {ctl.created_at}


def test_burst_sends_one_800B_frame_in_2ms_slot_and_defers_second():
    frames = [data_frame(1, seq=0), data_frame(1, seq=1)]
    kernel, medium, ctls = assemble_platoon({0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US},
                                            run_ms=250,
                                            sources={1: _due_at(250 * MS, frames, 510 * MS)})
    slave = ctls[1]
    kernel.run_until(510 * MS)
    sent = [tx for tx in medium.log if tx.sender == 1
            and tx.kind is FrameKind.DATA]
    assert [tx.seq for tx in sent] == [0, 1]
    first, second = sent
    window_of = lambda tx: tx.start // (100 * MS)
    assert window_of(second) == window_of(first) + 1   # deferred to next window
    origin = window_of(first) * 100 * MS + 3 * 2 * MS
    assert first.start == origin
    assert first.end <= origin + 2 * MS
    assert slave.deferred >= 1


def test_oversized_frame_overruns_from_slot_origin():
    kernel, medium, ctls = assemble_platoon(
        {0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US}, slot_ms=1, run_ms=250,
        sources={1: _due_at(250 * MS, [data_frame(1)], 400 * MS)})   # 1.067 ms > 1 ms slot
    slave = ctls[1]
    kernel.run_until(400 * MS)
    tx = next(tx for tx in medium.log if tx.sender == 1
              and tx.kind is FrameKind.DATA)
    origin = (tx.start // (100 * MS)) * 100 * MS + slave.my_slot * 1 * MS
    assert tx.start == origin
    assert tx.end > origin + 1 * MS                 # spills into the neighbour slot


@pytest.mark.parametrize("size", [750, 800], ids=["ends-at-window-start", "overruns-it"])
def test_burst_ending_at_or_after_the_next_window_start_counts_no_deferral(size):
    # a 4 ms window of 1 ms slots: the master owns slot 2, the slave slot 3,
    # the last; a 750 B frame is on air for exactly 1 ms
    # the slave hears its master's frames clean: they end as its own start
    frames = {0: [data_frame(0, size=750, seq=seq) for seq in range(6)],
              1: [data_frame(1, size=size, seq=seq) for seq in range(6)]}
    kernel, medium, ctls = assemble_platoon(
        {0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US}, slot_ms=1, window_ms=4, run_ms=8,
        sources={vid: _due_at(8 * MS, frames[vid], 30 * MS) for vid in frames})
    master, slave = ctls[0], ctls[1]
    assert (master.my_slot, slave.my_slot) == (2, 3)
    kernel.run_until(30 * MS)
    sent = [tx for tx in medium.log if tx.sender == 1 and tx.kind is FrameKind.DATA]
    assert [tx.start for tx in sent] == [w + 3 * MS for w in range(8 * MS, 28 * MS, 4 * MS)]
    assert all(tx.end >= (tx.start // (4 * MS) + 1) * 4 * MS for tx in sent)
    assert len(slave.queues) == 1 and slave.deferred == 0
    # the master's frame ends at slot 3's origin, inside the window: the rest
    # of its queue is deferred there, once a window
    assert master.deferred > 0


def test_burst_cut_by_the_run_end_counts_no_deferral():
    # two messages a window, one 800 B frame per 2 ms slot: a slave's burst
    # sends one frame and defers the rest of its queue when that frame ends
    cfg = ScenarioConfig(vehicle_count=2, message_interval_ns=50 * MS,
                         sim_duration_ns=1 * SEC, repetitions=1)
    full = run_scenario(cfg, 1)
    tx = [tx for tx in full.medium.log if tx.sender == 1 and tx.kind is FrameKind.DATA][-2]
    deferred = {}
    for end in (tx.start, tx.end - 1, tx.end):
        cut = run_scenario(replace(cfg, sim_duration_ns=end), 1)
        assert cut.medium.log[-1].start == tx.start
        deferred[end] = cut.controllers[1].deferred
    assert deferred[tx.start] == deferred[tx.end - 1] < deferred[tx.end]


def test_slot1_step_that_senses_a_busy_medium_defers_its_queue(monkeypatch):
    # on a 1 km road, masters 0, 1 and 8 each start a slot-1 frame at 702.001 ms;
    # their second steps, as those frames end at 702.534 ms, sense the others'
    # frames still arriving, and so again one and two windows later
    cfg = ScenarioConfig(vehicle_count=29, area_length_m=1000.0, payload_size_b=400,
                         message_interval_ns=20 * MS, sim_duration_ns=1 * SEC,
                         repetitions=1, window=W2)
    senses, busy = [], []
    idle_from, send = Medium.idle_from, TsnCtl._send

    def sensing(medium, listener, at):
        horizon = idle_from(medium, listener, at)
        senses.append(horizon > at)
        return horizon

    def step(ctl, w):
        senses.clear()
        deferred, logged = ctl.deferred, len(ctl.medium.log)
        send(ctl, w)
        if senses == [True]:
            slot = cfg.window.slot_len_ns
            assert w + slot < ctl.kernel.now < w + 2 * slot and len(ctl.medium.log) == logged
            busy.append((ctl.vid, ctl.kernel.now, ctl.deferred - deferred, len(ctl.queues)))

    monkeypatch.setattr(Medium, "idle_from", sensing)
    monkeypatch.setattr(TsnCtl, "_send", step)
    run = run_scenario(cfg, 1)
    assert len(busy) == 9
    assert all(added == queued > 0 for _, _, added, queued in busy)
    assert [(vid, now) for vid, now, _, _ in busy[:3]] == [
        (0, 702_534_334), (1, 702_534_334), (8, 702_534_334)]
    for vid in (0, 1, 8):
        sent = [tx.start for tx in run.medium.log
                if tx.sender == vid and 702 * MS <= tx.start < 704 * MS]
        assert sent == [702_001_000]


def test_message_due_at_a_slot_origin_goes_out_in_that_slot():
    # vehicle 1 spawns at 6 ms, so its messages fall due 6 ms into each window,
    # at the origin of its slot 3; its first burst sends the three messages
    # queued while it joined (200 B frames, seven fit a slot), and from then on
    # its queue is empty when the slot opens
    cfg = ScenarioConfig(vehicle_count=2, spawn_interval_ns=6 * MS, payload_size_b=200,
                         sim_duration_ns=1 * SEC, repetitions=1)
    run = run_scenario(cfg, 1)
    assert run.controllers[1].my_slot == 3
    sent = [tx for tx in run.medium.log if tx.sender == 1 and tx.kind is FrameKind.DATA]
    assert [tx.generated_at for tx in sent[:3]] == [6 * MS, 106 * MS, 206 * MS]
    assert sent[0].start == 206 * MS and len(sent) == 3 + 7
    assert all(tx.start == tx.generated_at for tx in sent[3:])
    assert run.controllers[1].deferred == 0


def test_newcomer_admitted_with_lowest_free_slot_same_window():
    kernel, medium, ctls = assemble_platoon(
        {0: 0, 1: 1 * MS, 2: 230 * MS},
        {0: 0, 1: 300 * US, 2: 600 * US},
        run_ms=450)
    assert ctls[2].state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    assert ctls[2].my_slot == 4
    announce = next(tx for tx in medium.log if tx.sender == 2
                    and tx.kind is FrameKind.CONTROL_ANNOUNCE)
    refresh = next(tx for tx in medium.log
                   if tx.kind is FrameKind.CONTROL_ALLOCATION
                   and tx.start > announce.start)
    assert announce.start // (100 * MS) == refresh.start // (100 * MS)
    assert refresh.allocations == {0: 2, 1: 3, 2: 4}
    assert ctls[0].schedule == refresh.allocations


def test_full_schedule_rejects_newcomer_and_counts_it():
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium,
                        WindowConfig(window_ns=8 * MS, slot_len_ns=2 * MS))   # one data slot pair
    ctl = TsnCtl(0, clock, ConstRng(0), source=ScriptedSource(end=200 * MS))
    medium.register(0, Position(0.0, 0.0), handler=ctl.on_frame_delivery)
    other = TsnCtl(1, clock, ConstRng(300_000), source=ScriptedSource(end=200 * MS))
    medium.register(1, Position(10.0, 0.0), handler=other.on_frame_delivery)
    late = TsnCtl(2, clock, ConstRng(600_000), source=ScriptedSource(end=200 * MS))
    medium.register(2, Position(20.0, 0.0), handler=late.on_frame_delivery)
    kernel.run_until(200 * MS)
    # 4 slots: 2 control + 2 data, so the third vehicle can never fit
    assert ctl.state.role is Role.MASTER
    assert late.state.status is Status.JOINING
    assert ctl.rejected_joins >= 1
    assert join_retries(late) >= 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_every_vehicle_joins_or_is_rejected_when_slot1_is_short():
    # 160 us slots fit a two-member allocation between the guards of slot 1,
    # not a three-member one: today the master drops that allocation without
    # a trace, vehicle 2 stays JOINING and no controller counts a rejection
    cfg = ScenarioConfig(vehicle_count=3, mode=MODE_TSNCTL, sim_duration_ns=3 * SEC,
                         seed=1, window=WindowConfig(slot_len_ns=160 * US))
    run = run_scenario(cfg, 1)
    outside = [vid for vid, ctl in run.controllers.items()
               if ctl.state.status is not Status.IN_PLATOON]
    assert len(outside) <= sum(ctl.rejected_joins for ctl in run.controllers.values())


def test_master_loss_reverts_slave_to_init_and_rejoin():
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium, W2)
    ctls = {}

    def spawn(_):
        ctl = TsnCtl(5, clock, ConstRng(0), source=ScriptedSource(end=500 * MS))
        medium.register(5, Position(0.0, 0.0), handler=ctl.on_frame_delivery)
        ctls[5] = ctl

    kernel.at(10 * MS, 5, EventKind.SPAWN, spawn)
    kernel.run_until(100 * MS + 2 * MS + clock.guard + 1)   # joining, election done
    ctl = ctls[5]

    # a phantom master, heard through the medium once and never again
    medium.register(99, Position(10.0, 0.0))
    alloc = _foreign_master(medium, 99, {99: 2, 5: 3})
    arrival = alloc.end + medium.cfg.prop_delay(10.0)
    kernel.run_until(120 * MS)
    assert ctl.state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    assert ctl.master == (0, 99)
    # the window at 400 ms is less than three windows after the last clean
    # frame; the one at 500 ms is not, so the slave falls back to init and
    # restarts the joining procedure there
    assert 400 * MS - arrival < 300 * MS <= 500 * MS - arrival
    kernel.run_until(500 * MS - 1)
    assert FsmEvent.MASTER_LOST not in [t[1] for t in ctl.transitions]
    assert ctl.state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    kernel.run_until(500 * MS)
    assert FsmEvent.MASTER_LOST in [t[1] for t in ctl.transitions]
    assert ctl.state.status is Status.JOINING   # rejoining as announcer


def test_member_superseded_as_its_slot_opens_sends_no_further_burst_step():
    """An allocation that supersedes a member arrives exactly at its slot origin.

    Member 5 holds slot 2 under the unheard master 99 and has three 200 B
    frames queued, which fit the 2 ms slot together. 7 sits at the radio's
    range from 5, so its allocation, which carries a better election key
    than 99's, takes exactly the guard to arrive and arrives as slot 2 opens
    at 204 ms. The slot trigger, armed at the window start, fires first and
    sends frame 1; the delivery then supersedes 5, and the burst step armed
    at frame 1's end must send nothing.
    """
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium, W2)
    frames = [data_frame(5, size=200, seq=seq) for seq in range(3)]
    ctls = {}

    def spawn(_):
        ctls[5] = TsnCtl(5, clock, ConstRng(0), source=_due_at(150 * MS, frames, 300 * MS))
        medium.register(5, Position(0.0, 0.0), handler=ctls[5].on_frame_delivery)

    kernel.at(10 * MS, 5, EventKind.SPAWN, spawn, None)
    kernel.run_until(100 * MS + 2 * MS + clock.guard + 1)   # joining, election done
    member = ctls[5]
    medium.register(99, Position(10.0, 0.0))
    _foreign_master(medium, 99, {99: 3, 5: 2})
    kernel.run_until(200 * MS)
    assert member.state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    assert (member.master, member.my_slot) == ((0, 99), 2)

    slot2 = 200 * MS + 2 * W2.slot_len_ns
    medium.register(7, Position(RadioConfig().range_m, 0.0))
    assert medium.cfg.prop_delay(RadioConfig().range_m) == clock.guard
    kernel.run_until(slot2 - medium.airtime(allocation_size(1)) - clock.guard)
    _foreign_master(medium, 7, {7: 2})
    kernel.run_until(300 * MS - 1)
    sent = [tx for tx in medium.log if tx.sender == 5 and tx.kind is FrameKind.DATA]
    assert [(tx.seq, tx.start) for tx in sent] == [(0, slot2)]
    assert len(member.queues) == 2
    assert member.transitions[-1][1:3] == (FsmEvent.ALLOCATION_RECEIVED, "superseded")
    assert member.master == (0, 7) and member.my_slot is None


@pytest.mark.parametrize("salt", range(1, 25))
def test_slave_listed_for_slot2_in_slot1_closes_its_round_under_any_dispatch_order(salt):
    """The end of slot 1 closes a round before its slot 2 opens, at one instant.

    Member 5 wins its round alone in the window at 100 ms, and the unheard
    master 99 supersedes it during that window's slot 1 and lists it at
    slot 2. Its round ends and its slot 2 opens at 104 ms. Under any order
    of the events at one instant, the round closes first (JOINING to
    JOINING), and the slot's opening then confirms 5 (to IN_PLATOON), which
    holds slot 2 under 99 from then on.
    """
    with shuffled(salt):
        kernel = Kernel()
        medium = Medium(kernel, RadioConfig())
        clock = WindowClock(kernel, medium, W2)
        frames = [data_frame(5, size=200, seq=seq) for seq in range(3)]
        ctls = {}

        def spawn(_):
            ctls[5] = TsnCtl(5, clock, ConstRng(0), source=_due_at(150 * MS, frames, 300 * MS))
            medium.register(5, Position(0.0, 0.0), handler=ctls[5].on_frame_delivery)

        kernel.at(10 * MS, 5, EventKind.SPAWN, spawn, None)
        kernel.run_until(100 * MS + 2 * MS + clock.guard + 1)   # joining, election done
        medium.register(99, Position(10.0, 0.0))
        _foreign_master(medium, 99, {99: 3, 5: 2})
        kernel.run_until(200 * MS)
    member = ctls[5]
    assert [t[1:3] for t in member.transitions[-4:-1]] == [
        (FsmEvent.ALLOCATION_RECEIVED, "superseded"), (FsmEvent.SLOT1_END, "allocated"),
        (FsmEvent.OWN_SLOT_TRIGGER, None)]
    assert member.state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    assert (member.master, member.my_slot) == ((0, 99), 2)


def test_collided_control_frames_are_ignored():
    """A collided allocation raises its delivery event but never reaches the controller."""
    kernel = Kernel(trace=True)
    medium = Medium(kernel, RadioConfig())
    ctl = TsnCtl(5, WindowClock(kernel, medium, W2), ConstRng(0),
                 source=ScriptedSource(end=101 * MS))
    medium.register(5, Position(0.0, 0.0), handler=ctl.on_frame_delivery)
    medium.register(98, Position(-10.0, 0.0))
    medium.register(99, Position(10.0, 0.0))
    kernel.run_until(100 * MS + 1 * MS)
    alloc = _foreign_master(medium, 99, {5: 2})
    medium.broadcast(Frame(FrameKind.DATA, 98, 100, 0))     # overlaps it at 5
    kernel.run_until(101 * MS + 500 * US)
    assert alloc.end < 101 * MS + 500 * US and outcomes(alloc)[5] is True
    assert [(target, kind) for *_, target, kind in kernel.trace
            if kind == "FRAME_DELIVERY"] == [(5, "FRAME_DELIVERY")]
    assert FsmEvent.ALLOCATION_RECEIVED not in [t[1] for t in ctl.transitions]
    assert ctl.master is None
    assert ctl.my_slot is None


def test_earlier_timestamp_allocation_supersedes_master():
    kernel, medium, ctls = assemble_platoon({0: 10 * MS, 1: 11 * MS},
                                            {0: 0, 1: 300 * US}, run_ms=250)
    master = ctls[0]
    assert master.state == FsmState(Status.IN_PLATOON, Role.MASTER)
    alloc = make_allocation(sender=42, generated_at=0,    # earlier than spawn 10ms
                            allocations={42: 2})
    master.on_frame_delivery(alloc)
    assert master.state == FsmState(Status.JOINING, Role.SLAVE)
    assert master.master == (0, 42)


@pytest.mark.parametrize("sender, outcome, state, master", [
    (1, "superseded", FsmState(Status.JOINING, Role.SLAVE), (10 * MS, 1)),
    (3, "refresh", FsmState(Status.IN_PLATOON, Role.SLAVE), (10 * MS, 3)),
    (5, "ignored", FsmState(Status.IN_PLATOON, Role.SLAVE), (10 * MS, 3)),
], ids=["lower-id", "same-key", "higher-id"])
def test_allocation_with_the_masters_timestamp_is_weighed_by_sender_id(sender, outcome,
                                                                         state, master):
    """A slave of master 3 hears an allocation that carries 3's timestamp.

    From a lower id it supersedes; from 3's own key it refreshes; from a
    higher id it is ignored. Every allocation lists the slave.
    """
    _, _, ctls = assemble_platoon({3: 10 * MS, 4: 11 * MS}, {3: 0, 4: 300 * US}, run_ms=250)
    slave = ctls[4]
    assert slave.state == FsmState(Status.IN_PLATOON, Role.SLAVE)
    assert slave.master == (10 * MS, 3)
    slave.on_frame_delivery(make_allocation(sender=sender, generated_at=10 * MS,
                                            allocations={sender: 2, 4: 3}))
    assert slave.transitions[-1][1:] == (FsmEvent.ALLOCATION_RECEIVED, outcome, state)
    assert slave.master == master


def test_forming_master_superseded_in_slot_one_drops_its_schedule():
    """Two masters form in one slot 1, and the later one hears the earlier one.

    On a line, 0 and 2 announce together at the window start and collide at 1
    and 3; 2 is out of 0's range. So 1 never hears 0, wins its own election
    with 3, and sends its allocation first; 0 wins with 1 and 3 and answers
    later in slot 1, which supersedes 1. A master holds a schedule iff its
    allocation went out, so 1 must drop the one it sent.
    """
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    clock = WindowClock(kernel, medium, W2)
    x = {0: 0.0, 1: 250.0, 2: 500.0, 3: 260.0}
    draws = {0: [0, 102_900 * US], 1: [300 * US, 102_100 * US], 2: [0], 3: [600 * US]}
    ctls = {}
    for vid in x:
        ctls[vid] = TsnCtl(vid, clock, ScriptedRng(draws[vid]),
                           source=ScriptedSource(end=110 * MS))
        medium.register(vid, Position(x[vid], 0.0), handler=ctls[vid].on_frame_delivery)
    kernel.run_until(100 * MS + 2 * W2.slot_len_ns - 1)   # just before slot 1 ends
    allocs = [(tx.sender, tx.start, tx.allocations) for tx in medium.log
              if tx.kind is FrameKind.CONTROL_ALLOCATION]
    assert allocs == [(1, 102_100 * US, {1: 2, 3: 3}), (0, 102_900 * US, {0: 2, 1: 3, 3: 4})]
    early, late = ctls[0], ctls[1]
    assert late.transitions[-1][1:] == (FsmEvent.ALLOCATION_RECEIVED, "superseded",
                                        FsmState(Status.JOINING, Role.SLAVE))
    assert late.schedule is None
    assert (late.master, late.my_slot) == ((0, 0), 3)
    kernel.run_until(110 * MS)
    assert early.state == FsmState(Status.IN_PLATOON, Role.MASTER)
    assert early.schedule == {0: 2, 1: 3, 3: 4}
    assert late.state == FsmState(Status.IN_PLATOON, Role.SLAVE) and late.schedule is None
    assert ctls[3].my_slot == 4 and ctls[2].master == (0, 1)


# -- window clock ------------------------------------------------------------------


@pytest.mark.parametrize("vehicles", [5, 20])
def test_clock_raises_one_timer_per_window_boundary(vehicles):
    cfg = ScenarioConfig(vehicle_count=vehicles, sim_duration_ns=1 * SEC, repetitions=1)
    run = run_scenario(cfg, 1, trace=True)
    ticks = [(at, kind) for at, _seq, target, kind in run.medium.kernel.trace
             if target == WindowClock.TARGET]
    window, slot, end = cfg.window.window_ns, cfg.window.slot_len_ns, cfg.sim_duration_ns
    guard = run.controllers[0].guard
    assert guard == 1_000
    boundaries = sorted(b for w in range(window, end + 1, window)
                        for b in (w, w + slot + guard, w + 2 * slot) if b <= end)
    assert len(boundaries) == 10 + 9 + 9
    assert ticks == [(b, "TIMER") for b in boundaries]
    assert len(run.controllers) == vehicles


@pytest.mark.parametrize("spawn_first", [True, False], ids=["spawn-first", "clock-first"])
def test_controller_created_on_a_boundary_first_acts_a_window_later(spawn_first):
    """Created at t = window, whether before or after the clock's event there.

    One created before that event goes to the head of the clock's call order,
    where its own window timer, armed a window ahead, used to fire.
    """
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig())
    window = W2.window_ns
    ctls = []

    def spawn(vid):
        ctls.append(TsnCtl(vid, clock, ConstRng(vid * 300 * US),
                           source=ScriptedSource(end=2 * window)))
        medium.register(vid, Position(float(vid), 0.0), handler=ctls[-1].on_frame_delivery)

    kernel.at(0, 0, EventKind.SPAWN, spawn, 0)
    if spawn_first:
        kernel.at(window, 1, EventKind.SPAWN, spawn, 1)
    clock = WindowClock(kernel, medium, W2)
    if not spawn_first:
        kernel.at(window, 1, EventKind.SPAWN, spawn, 1)
    kernel.run_until(window - 1)
    assert ctls[0].transitions == []
    kernel.run_until(window)
    first, late = ctls
    assert late.created_at == window
    assert first.transitions[0][1] is FsmEvent.WINDOW_START
    kernel.run_until(2 * window - 1)
    assert late.transitions == []
    kernel.run_until(2 * window)
    assert late.transitions[0][1] is FsmEvent.WINDOW_START
    assert clock.members == ([late, first] if spawn_first else [first, late])


def test_vehicles_superseded_in_slot_one_take_no_slot1_end_that_window():
    """Only the vehicles that announced at the window start close its slot 1."""
    kernel, medium, ctls = assemble_platoon({0: 10 * MS, 1: 11 * MS}, {0: 0, 1: 300 * US},
                                            run_ms=302)
    assert [c.state.status for c in ctls.values()] == [Status.IN_PLATOON] * 2
    kernel.run_until(302 * MS + 500 * US)               # inside slot 1 of the window at 300 ms
    medium.register(99, Position(10.0, 0.0))
    _foreign_master(medium, 99, {99: 2, 1: 3})
    kernel.run_until(399 * MS)
    for ctl in ctls.values():
        events = [t[1] for t in ctl.transitions]
        superseded = max(i for i, t in enumerate(ctl.transitions) if t[2] == "superseded")
        assert FsmEvent.SLOT1_END not in events[superseded:]
        assert ctl.master == (0, 99)
    assert ctls[0].state == FsmState(Status.JOINING, Role.SLAVE)     # unlisted
    assert ctls[1].state == FsmState(Status.IN_PLATOON, Role.SLAVE)  # listed, slot 3
