import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _carrier_sense import sensed_until
from _util import data_frame, outcomes, receivers_collided, receivers_expected

from platoonsim.frames import Frame, FrameKind, make_allocation
from platoonsim.kernel import EventKind, Kernel, MS, SEC, US
from platoonsim.metrics import _sweep_masks, brute_force_outcomes
from platoonsim.radio import Medium, Position, RadioConfig, tx_duration


def _cfg(**kw):
    base = dict(range_m=100.0, data_rate_bps=6_000_000, propagation_mps=3.0e8,
                preamble_ns=0, cca_detect_ns=4_000)
    base.update(kw)
    return RadioConfig(**base)


@pytest.mark.parametrize("size, kw, ns", [
    (800, {}, 1_066_667), (0, {}, 0), (650, {}, 866_667),
    (800, dict(preamble_ns=40_000), 1_106_667),
], ids=["800B_at_6mbps", "empty_frame", "650B_at_6mbps", "includes_preamble"])
def test_tx_duration(size, kw, ns):
    assert tx_duration(size, _cfg(**kw)) == ns


def test_tx_duration_rejects_negative_size():
    with pytest.raises(ValueError):
        tx_duration(-1, _cfg())


@pytest.mark.parametrize("act, message", [
    (lambda m: m.register(0, Position(5.0, 0.0)), "vehicle 0 already registered"),
    (lambda m: m.register(-1, Position(5.0, 0.0)), "vehicle id must be >= 0, got -1"),
    (lambda m: m.broadcast(data_frame(3)), "sender 3 not registered"),
], ids=["duplicate-id", "negative-id", "unregistered-sender"])
def test_medium_rejects_a_bad_vehicle(act, message):
    m = Medium(Kernel(), _cfg())
    m.register(0, Position(0.0, 0.0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        act(m)
    assert list(m.positions) == [0] and m.log == []


class _Sink:
    """A handler's object: `on_frame` records (delivery time, frame) in `got`."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.got = []

    def on_frame(self, frame):
        self.got.append((self.kernel.now, frame))


_KINDS = list(FrameKind)


def _of_kind(kind, sender):
    return (make_allocation(sender, 0, {}) if kind is FrameKind.CONTROL_ALLOCATION
            else Frame(kind, sender, 100, 0))


def _send(m, frame):
    """Broadcast a frame; an allocation is delivered too, as a slot controller asks."""
    m.broadcast(frame)
    if frame.kind is FrameKind.CONTROL_ALLOCATION:
        m.deliver(frame)
    return frame


@pytest.mark.parametrize("kind", _KINDS, ids=lambda kind: kind.name)
def test_broadcast_schedules_no_event(kind):
    k = Kernel(trace=True)
    m = Medium(k, _cfg())
    m.register(0, Position(0.0, 0.0))
    sink = _Sink(k)
    m.register(1, Position(50.0, 0.0), handler=sink.on_frame)
    m.broadcast(_of_kind(kind, 0))
    k.run_until(1 * SEC)
    assert k.trace == []


@pytest.mark.parametrize("kind", _KINDS, ids=lambda kind: kind.name)
def test_deliver_raises_an_event_per_receiver_with_a_handler_and_hands_over_clean_ones(kind):
    """One event per in-range receiver with a handler; only clean arrivals reach it.

    1 and 2 hear the sender 0 at 50 m, 3 hears it without a handler, 5 is out
    of its range, and 4 interferes at 2 alone.
    """
    k = Kernel(trace=True)
    m = Medium(k, _cfg())
    sinks = {vid: _Sink(k) for vid in (1, 2, 5)}
    for vid, x in ((0, 0.0), (1, -50.0), (2, 50.0), (3, 20.0), (4, 140.0), (5, -150.0)):
        m.register(vid, Position(x, 0.0), handler=sinks[vid].on_frame if vid in sinks else None)
    tx = m.broadcast(_of_kind(kind, 0))
    m.deliver(tx)
    k.run_until(20 * US)
    m.broadcast(data_frame(4))                                   # on air at 2 during tx
    k.run_until(5 * MS)
    assert outcomes(tx) == {1: False, 2: True, 3: False}
    arrival = tx.end + m.cfg.prop_delay(50.0)
    assert [(at, target) for at, _, target, name in k.trace if name == "FRAME_DELIVERY"] == \
        [(arrival, 1), (arrival, 2)]
    assert {vid: sink.got for vid, sink in sinks.items()} == {1: [(arrival, tx)], 2: [], 5: []}


def test_the_medium_keeps_no_handler_object_alive():
    """It holds a handler's object weakly: once dropped, the object is freed at
    once, by reference counting, and the vehicle keeps its handler key."""
    k = Kernel()
    m = Medium(k, _cfg())
    m.register(0, Position(0.0, 0.0))
    sink = _Sink(k)
    m.register(1, Position(50.0, 0.0), handler=sink.on_frame)
    tx = _send(m, _of_kind(FrameKind.CONTROL_ALLOCATION, 0))
    k.run_until(5 * MS)
    assert [frame for _, frame in sink.got] == [tx]
    owner = weakref.ref(sink)
    del sink
    assert owner() is None
    assert list(m.handlers) == [1]


def test_concurrent_transmit_by_same_sender_is_a_hard_fault():
    k = Kernel()
    m = Medium(k, _cfg())
    m.register(0, Position(0.0, 0.0))
    m.broadcast(data_frame(0))
    with pytest.raises(RuntimeError):
        m.broadcast(data_frame(0))


def test_a_frame_is_broadcast_once():
    k = Kernel()
    m = Medium(k, _cfg())
    m.register(0, Position(0.0, 0.0))
    m.register(1, Position(10.0, 0.0))
    frame = data_frame(0)
    assert m.broadcast(frame) is frame and m.log == [frame]
    stamped = (frame.start, frame.end, frame.receivers, frame.hit)
    assert stamped == (0, tx_duration(800, m.cfg), 0b10, 0)
    k.run_until(5 * MS)                 # the sender is idle again
    with pytest.raises(ValueError, match="already broadcast at 0 ns"):
        m.broadcast(frame)
    assert m.log == [frame] and (frame.start, frame.end, frame.receivers, frame.hit) == stamped


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(0.0, 600.0), min_size=2, max_size=6),
       starts=st.lists(st.integers(0, 2_000 * US), min_size=1, max_size=6),
       which=st.integers(0, 5), late=st.integers(0, 1_000))
def test_masks_of_a_run_cut_mid_delivery_match_the_oracle(xs, starts, which, late):
    """Cut the run inside a delivery window; the masks give each outcome as the oracle does."""
    plan = sorted((at, vid % len(xs)) for vid, at in enumerate(starts))
    k = Kernel()
    m = Medium(k, RadioConfig())
    positions = {vid: Position(x, 0.0) for vid, x in enumerate(xs)}
    for vid, pos in positions.items():
        m.register(vid, pos)
    busy = {}
    for at, vid in plan:
        if at < busy.get(vid, 0):
            continue
        k.run_until(at)
        busy[vid] = m.broadcast(data_frame(vid)).end
    # at most the 1,000 ns delay across the 300 m range after some frame ends
    cut = m.log[which % len(m.log)].end + late
    k.run_until(max(cut, k.now))
    records = [(tx.sender, tx.start, tx.end) for tx in m.log]
    want = brute_force_outcomes(records, positions, m.cfg.range_m)
    assert [(receivers_expected(tx), receivers_collided(tx)) for tx in m.log] == \
        [(len(w), sum(w.values())) for w in want]
    assert [outcomes(tx) for tx in m.log] == want


# -- receptions read from the log ------------------------------------------------
#
# Receptions that nobody asked the medium to deliver raise no event at the listener;
# `last_clean_arrival` and `clean_receptions` read them back from the log. On a
# coarse clock (1 us per byte, 1 us per 10 m) arrivals, reads, starts and ends
# coincide often.

_COARSE = dict(range_m=30.0, data_rate_bps=8_000_000, propagation_mps=1.0e7,
               preamble_ns=0, cca_detect_ns=0)

def _coarse_run(cells, joins, sends, reads):
    """Registrations, broadcasts and reads on the coarse clock, with the oracle.

    `sends` holds (vid, at_us, size, kind) and `reads` holds (at_us, query);
    each read returns query(m), in the order of `reads`. Every vehicle has a
    handler, and each allocation is also delivered, as a slot controller asks.
    Returns the medium, the oracle's per-receiver flags, the propagation delay
    between two vehicles, the reads, and the (receiver, time, frame) of each
    frame a handler got, by receiver.
    """
    n = len(cells)
    cfg = _cfg(**_COARSE)
    k = Kernel(trace=True)
    m = Medium(k, cfg)
    positions = {vid: Position(10.0 * c, 0.0) for vid, c in enumerate(cells)}
    join_at = {vid: joins[vid] * US for vid in range(n)}
    # registrations first, then broadcasts, then reads: at equal times events
    # run in that order
    sinks = {vid: _Sink(k) for vid in range(n)}
    for vid, at in join_at.items():
        k.at(at, vid, EventKind.SPAWN, lambda vid: m.register(
            vid, positions[vid], handler=sinks[vid].on_frame), vid)
    busy: dict[int, int] = {}
    for vid, at, size, kind in sorted(sends, key=lambda s: s[1]):
        vid %= n
        at *= US
        if at < max(busy.get(vid, 0), join_at[vid]):
            continue
        busy[vid] = at + tx_duration(size, cfg)
        k.at(at, vid, EventKind.TIMER, lambda vid, size=size, kind=kind:
             _send(m, Frame(kind, vid, size, 0)), vid)
    got = {}
    for i, (at, query) in enumerate(reads):
        def fn(_, i=i, query=query):
            got[i] = query(m)
        k.at(at * US, 0, EventKind.TIMER, fn)
    k.run_until(100 * US)

    records = [(tx.sender, tx.start, tx.end) for tx in m.log]
    flags = brute_force_outcomes(records, positions, cfg.range_m, spawn=join_at)

    def delay(a, b):
        return cfg.prop_delay(positions[a].distance(positions[b]))
    delivered = [(vid, at, frame) for vid, sink in sinks.items() for at, frame in sink.got]
    return m, flags, delay, [got[i] for i in range(len(reads))], delivered


def _by_read(arrival, at):
    """Whether a read at `at` hears a reception that arrives at `arrival`."""
    return arrival < at


_CELLS = st.lists(st.integers(0, 5), min_size=2, max_size=8)
_JOINS = st.lists(st.integers(0, 6), min_size=8, max_size=8)

_D, _A = FrameKind.DATA, FrameKind.CONTROL_ALLOCATION


@settings(max_examples=200, deadline=None)
@given(cells=_CELLS, joins=_JOINS,
       sends=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 12), st.integers(0, 3),
                                st.sampled_from(_KINDS)),
                      min_size=1, max_size=14))
def test_interferer_masks_match_brute_force(cells, joins, sends):
    """Outcomes, counts and allocation deliveries all read the mask filled at broadcast.

    Frames of 0-3 bytes take 0-3 us, so zero-length frames, equal starts and
    touching endpoints are common; joins at 0-6 us put registrations between
    and inside broadcasts. Data frames and announces are only broadcast.
    """
    m, flags, delay, _got, delivered = _coarse_run(cells, joins, sends, [])
    assert [outcomes(tx) for tx in m.log] == flags
    assert [(receivers_expected(tx), receivers_collided(tx)) for tx in m.log] == \
        [(len(f), sum(f.values())) for f in flags]
    # an event per reception of an allocation; only the clean ones reach the
    # handler, at the frame's end plus the delay
    events = [target for *_, target, kind in m.kernel.trace if kind == "FRAME_DELIVERY"]
    assert len(events) == sum(len(f) for tx, f in zip(m.log, flags) if tx.kind is _A)
    index = {id(tx): i for i, tx in enumerate(m.log)}
    assert sorted((index[id(frame)], vid, at) for vid, at, frame in delivered) == \
        [(i, vid, tx.end + delay(tx.sender, vid)) for i, (tx, f) in enumerate(zip(m.log, flags))
         if tx.kind is _A for vid, c in sorted(f.items()) if not c]


@settings(max_examples=150, deadline=None)
@given(cells=_CELLS, joins=_JOINS,
       sends=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20), st.integers(0, 3)),
                      max_size=14),
       reads=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 26),
                                st.integers(1, 12)),
                      min_size=1, max_size=8))
def test_last_clean_arrival_matches_brute_force(cells, joins, sends, reads):
    """The latest clean arrival before a read equals the oracle's.

    An arrival at the read's own time does not count.
    """
    n = len(cells)
    reads = [(listener % n, sender % n, at, window)
             for listener, sender, at, window in reads]
    m, flags, delay, got, _ = _coarse_run(
        cells, joins, [(vid, at, size, FrameKind.DATA) for vid, at, size in sends],
        [(at, lambda m, listener=listener, sender=sender, after=(at - window) * US:
          m.last_clean_arrival(listener, sender, after))
         for listener, sender, at, window in reads])
    want = []
    for listener, sender, at, window in reads:
        arrivals = [tx.end + delay(sender, listener) for tx, f in zip(m.log, flags)
                    if tx.sender == sender and f.get(listener) is False]
        want.append(max((a for a in arrivals
                         if (at - window) * US < a and _by_read(a, at * US)),
                        default=None))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(cells=_CELLS, joins=_JOINS,
       sends=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20), st.integers(0, 3),
                                st.sampled_from((FrameKind.DATA, FrameKind.CONTROL_ANNOUNCE))),
                      min_size=1, max_size=14),
       reads=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 13), st.integers(0, 4),
                                st.integers(0, 12)),
                      min_size=1, max_size=8))
def test_clean_receptions_match_brute_force(cells, joins, sends, reads):
    """A read lists the announces since its window start that the oracle has clean.

    An announce arriving just before the read counts, and one arriving at the
    read's own time or later does not; data frames and frames the listener sent
    never count. Each read lands 0-4 us after some frame's end, where its 0-3 us
    arrivals fall.
    """
    n = len(cells)
    reads = [(listener % n, at, (at - window) * US)
             for listener, anchor, offset, window in reads
             for _, start, size, _ in [sends[anchor % len(sends)]]
             for at in [start + size + offset]]
    m, flags, delay, got, _ = _coarse_run(
        cells, joins, sends,
        [(at, lambda m, listener=listener, since=since:
          list(m.clean_receptions(listener, [tx for tx in m.log if tx.start >= since
                                             and tx.kind is FrameKind.CONTROL_ANNOUNCE])))
         for listener, at, since in reads])
    want = [[tx for tx, f in zip(m.log, flags)
             if tx.kind is FrameKind.CONTROL_ANNOUNCE and tx.start >= since
             and f.get(listener) is False
             and _by_read(tx.end + delay(tx.sender, listener), at * US)]
            for listener, at, since in reads]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(cells=_CELLS, joins=_JOINS,
       sends=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20), st.integers(0, 3)),
                      min_size=1, max_size=14),
       cca_detect_ns=st.sampled_from((0, 4 * US)),
       reads=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 13), st.booleans(),
                                st.integers(-1, 1)),
                      min_size=1, max_size=10))
def test_idle_from_matches_brute_force(cells, joins, sends, cca_detect_ns, reads):
    """The sensed idle edge is the latest end of a frame sensed at the read; the read if none.

    A listener senses the frames of every sender it hears, itself included
    with no delay, from start + delay + cca_detect_ns until end + delay, and
    never at the instant a frame starts. Each
    read lands 1 ns before, at or 1 ns after one of those edges of some
    frame, and is taken both at that time in the run and after the run.
    """
    n = len(cells)
    cfg = _cfg(**dict(_COARSE, cca_detect_ns=cca_detect_ns))
    k = Kernel()
    m = Medium(k, cfg)
    positions = {vid: Position(10.0 * c, 0.0) for vid, c in enumerate(cells)}
    join_at = {vid: joins[vid] * US for vid in range(n)}
    for vid, at in join_at.items():
        k.at(at, vid, EventKind.SPAWN, lambda vid: m.register(vid, positions[vid]), vid)
    frames, busy = [], {}
    for vid, at, size in sorted(sends, key=lambda s: s[1]):
        vid %= n
        at *= US
        if at < max(busy.get(vid, 0), join_at[vid]):
            continue
        busy[vid] = at + tx_duration(size, cfg)
        frames.append((vid, at, busy[vid]))
        k.at(at, vid, EventKind.TIMER, lambda vid, size=size:
             m.broadcast(Frame(FrameKind.DATA, vid, size, 0)), vid)

    def delay(a, b):
        return cfg.prop_delay(positions[a].distance(positions[b]))

    points = []
    for listener, anchor, at_start, offset in reads:
        listener %= n
        if frames:
            sender, start, end = frames[anchor % len(frames)]
            d = delay(sender, listener)
            edge = start + d + cca_detect_ns if at_start else end + d
        else:
            edge = anchor * US
        points.append((listener, max(edge + offset, join_at[listener])))
    live = {}
    for i, (listener, at) in enumerate(points):
        def read(_, i=i, listener=listener):
            live[i] = m.idle_from(listener, k.now)
        k.at(at, listener, EventKind.TIMER, read)
    k.run_until(100 * US)

    assert [(tx.sender, tx.start, tx.end) for tx in m.log] == frames
    want = [_brute_idle_from(m, listener, at) for listener, at in points]
    assert [live[i] for i in range(len(points))] == want
    assert [m.idle_from(listener, at) for listener, at in points] == want


# -- hand-placed cases -------------------------------------------------------------
#
# Edges a draw may miss, each run through the body of its rule's property
# (`.hypothesis.inner_test`, the test without its draws).

_N = FrameKind.CONTROL_ANNOUNCE
_RULES = {"masks": test_interferer_masks_match_brute_force,
          "cut": test_masks_of_a_run_cut_mid_delivery_match_the_oracle,
          "last-clean-arrival": test_last_clean_arrival_matches_brute_force,
          "clean-receptions": test_clean_receptions_match_brute_force,
          "idle-from": test_idle_from_matches_brute_force}


def _case(rule, name, **case):
    """A case of `rule`; on the coarse clock, everyone joins at 0 unless `joins` says."""
    if rule != "cut":
        case.setdefault("joins", [0] * 8)
    return pytest.param(_RULES[rule], case, id=f"{rule}-{name}")


@pytest.mark.parametrize("prop, case", [
    _case("masks", "zero-length-second", cells=[0, 1, 2], sends=[(0, 5, 2, _D), (1, 5, 0, _D)]),
    _case("masks", "zero-length-first", cells=[0, 1, 2], sends=[(1, 5, 0, _D), (0, 5, 2, _D)]),
    _case("masks", "touching-endpoints", cells=[0, 1, 2], sends=[(0, 0, 2, _D), (1, 2, 2, _D)]),
    _case("masks", "half-duplex-allocation", cells=[0, 1, 2], sends=[(0, 0, 3, _D), (1, 1, 3, _A)]),
    _case("masks", "join-and-transmit-inside-a-frame", cells=[0, 1], joins=[0, 1] + [0] * 6,
          sends=[(0, 0, 3, _D), (1, 2, 1, _D)]),
    _case("masks", "one-clean-allocation", cells=[0, 1], sends=[(0, 0, 3, _A)]),
    _case("masks", "only-allocations-reach-handlers", cells=[0, 1],
          sends=[(0, 0, 2, _D), (0, 3, 2, _N), (0, 6, 2, _A)]),
    _case("masks", "out-of-range-receiver", cells=[0, 1, 5], sends=[(0, 0, 2, _A)]),
    _case("masks", "hidden-terminals", cells=[0, 2, 4], sends=[(0, 0, 3, _A), (2, 1, 3, _A)]),
    _case("masks", "braid-of-frames-on-air", cells=[0, 1, 2, 3],
          sends=[(0, 0, 3, _D), (1, 1, 3, _A), (2, 2, 3, _D), (3, 4, 2, _A), (0, 7, 1, _A)]),
    # the 500 m interferer reaches only the receiver at 290 m, whose reception
    # (967 ns after the first frame ends) is still arriving at the cut
    _case("cut", "interferer-in-flight", xs=[0.0, 500.0, 1.0, 290.0], starts=[0, 100 * US],
          which=0, late=100),
    _case("cut", "at-the-last-end", xs=[0.0, 50.0, 250.0], starts=[0, 500 * US, 600 * US],
          which=2, late=0),
    _case("last-clean-arrival", "read-before-join-and-own-frames", cells=[0, 1],
          joins=[0, 6] + [0] * 6, sends=[(0, 0, 3), (0, 8, 3)],
          reads=[(1, 0, 4, 4), (0, 0, 20, 12), (1, 0, 20, 12)]),
    # vehicle 0's second frame collides at 1 with vehicle 2's, and arrives before
    # every read; the second read's window opens at the first frame's arrival
    _case("last-clean-arrival", "collided-second-frame", cells=[0, 1, 2],
          sends=[(0, 0, 3), (0, 8, 3), (2, 8, 3)],
          reads=[(1, 0, 14, 12), (1, 0, 14, 10), (0, 0, 14, 12)]),
    _case("clean-receptions", "read-before-join-and-own-announces", cells=[0, 1],
          joins=[0, 6] + [0] * 6, sends=[(0, 0, 3, _N), (1, 8, 3, _N)],
          reads=[(1, 0, 1, 4), (0, 0, 1, 4), (1, 1, 4, 12), (0, 1, 4, 12)]),
    _case("clean-receptions", "collided-announces", cells=[0, 1, 2],
          sends=[(0, 0, 3, _N), (2, 1, 3, _N), (1, 9, 2, _N)],
          reads=[(1, 0, 2, 12), (0, 1, 4, 12), (2, 2, 2, 12)]),
    _case("idle-from", "zero-length-at-the-shared-edge", cells=[0, 1, 2],
          sends=[(0, 5, 0), (1, 5, 2)], cca_detect_ns=0,
          reads=[(2, 0, True, 0), (2, 1, True, 0), (0, 0, False, 0)]),
    _case("idle-from", "1-ns-around-the-detection-edge-and-the-end", cells=[0, 1],
          sends=[(0, 2, 3)], cca_detect_ns=4 * US,
          reads=[(1, 0, True, -1), (1, 0, True, 0), (1, 0, True, 1),
                 (1, 0, False, -1), (1, 0, False, 0), (1, 0, False, 1)]),
    _case("idle-from", "an-idle-medium", cells=[0, 1], sends=[], cca_detect_ns=0,
          reads=[(0, 0, True, 0), (1, 3, False, 1)]),
    _case("idle-from", "overlapping-frames", cells=[0, 1, 2], sends=[(0, 0, 3), (1, 1, 3)],
          cca_detect_ns=0, reads=[(2, 0, True, 1), (2, 1, True, 1), (0, 1, False, -1)]),
    _case("idle-from", "hidden-terminal", cells=[0, 4], sends=[(0, 0, 3)], cca_detect_ns=0,
          reads=[(1, 0, True, 1), (1, 0, False, -1), (0, 0, True, 1)]),
    _case("idle-from", "past-read-passes-over-later-frames", cells=[0, 1],
          sends=[(0, 0, 2), (1, 6, 3)], cca_detect_ns=0,
          reads=[(1, 0, False, -1), (0, 1, True, 1)]),
])
def test_hand_placed_case_matches_brute_force(prop, case):
    prop.hypothesis.inner_test(**case)


def _one_frame_read(arrival_offset: int, read_first: bool):
    """One announce arriving at read time W + offset; both log reads fire at W."""
    cfg = _cfg()
    k = Kernel()
    m = Medium(k, cfg)
    m.register(0, Position(0.0, 0.0))
    m.register(1, Position(50.0, 0.0))
    read_at = 100 * MS
    start = read_at + arrival_offset - tx_duration(800, cfg) - cfg.prop_delay(50.0)
    got = []

    def reads(_):
        got.append((m.last_clean_arrival(1, 0, read_at - 300 * MS),
                    list(m.clean_receptions(1, [tx for tx in m.log
                                                if tx.kind is FrameKind.CONTROL_ANNOUNCE]))))

    def read():
        k.at(read_at, 1, EventKind.TIMER, reads)

    def send(_):
        m.broadcast(Frame(FrameKind.CONTROL_ANNOUNCE, 0, 800, 0))
        if not read_first:
            read()

    if read_first:      # a window-start timer, armed a window earlier
        read()
    k.at(start, 0, EventKind.TIMER, send)
    k.run_until(200 * MS)
    return got[0], read_at + arrival_offset


@pytest.mark.parametrize("offset, heard", [(-1, True), (0, False), (1, False)])
def test_window_start_read_sees_arrivals_strictly_before_it(offset, heard):
    (last, announces), arrival = _one_frame_read(offset, read_first=True)
    assert last == (arrival if heard else None)
    assert [a.sender for a in announces] == ([0] if heard else [])


def test_read_scheduled_after_the_broadcast_ignores_an_arrival_at_its_time():
    (last, announces), _arrival = _one_frame_read(0, read_first=False)
    assert last is None
    assert announces == []


# -- the tail scan ---------------------------------------------------------------
#
# Pairing at broadcast and carrier sense read the log backwards from its end and
# stop at the first frame that started more than the longest airtime (plus, for
# sensing, the longest delay) before their time. This directed case puts that
# stop where it is easiest to get wrong.


def _brute_idle_from(m, listener, at):
    """The sensed idle edge of `listener` at `at`, from every logged frame."""
    here = m.positions[listener]
    edges = [sensed_until(tx.start, tx.end, here.distance(m.positions[tx.sender]), m.cfg, at)
             for tx in m.log]
    return max((edge for edge in edges if edge is not None), default=at)


def test_tail_scan_sees_a_long_frame_logged_before_short_ones():
    """The longest airtime grows mid-run: pairing and sensing still reach back to it.

    Short frames first, then one long frame from vehicle 2, then short frames
    that start while it is on air, so the scan from the tail crosses frames
    shorter than the one it must reach. Vehicle 3 hears only vehicle 2.
    """
    k = Kernel()
    m = Medium(k, _cfg())
    positions = {0: Position(0.0, 0.0), 1: Position(30.0, 0.0),
                 2: Position(60.0, 0.0), 3: Position(150.0, 0.0)}
    for vid, pos in positions.items():
        m.register(vid, pos)
    plan = [(0, 0, 10), (1, 20, 10), (3, 40, 10), (2, 100, 800), (0, 300, 10),
            (1, 320, 10), (3, 340, 10), (0, 1_100, 10), (1, 1_170, 10)]
    reads = sorted({at * US + dt for _, at, _ in plan for dt in (0, 1, 5_000, 50_000)}
                   | {1_160 * US, 1_166 * US, 1_167 * US, 1_200 * US})
    live = {}
    for sender, at, size in plan:
        k.at(at * US, sender, EventKind.TIMER,
             lambda _, sender=sender, size=size: m.broadcast(data_frame(sender, size)))
    for at in reads:
        k.at(at, 0, EventKind.TIMER,
             lambda _: live.update({(vid, k.now): m.idle_from(vid, k.now) for vid in positions}))
    k.run_until(5 * MS)

    long_tx, late_tx = m.log[3], m.log[7]
    # a bound taken from the short frames' airtime would stop before the long frame
    assert late_tx.start - long_tx.start > tx_duration(10, m.cfg) + m.cfg.max_delay
    assert late_tx.start == 1_100 * US < long_tx.end
    assert late_tx.hit >> 2 & 1 and long_tx.hit >> 0 & 1
    assert not m.log[8].hit >> 2 & 1        # starts after the long frame ended
    records = [(tx.sender, tx.start, tx.end) for tx in m.log]
    assert [(tx.receivers, tx.receivers & tx.hit) for tx in m.log] == \
        _sweep_masks(records, positions, m.cfg.range_m, {})      # all present from 0
    want = {(vid, at): _brute_idle_from(m, vid, at) for vid in positions for at in reads}
    assert live == want
    assert any(edge > at for (vid, at), edge in want.items() if at > 1_100 * US)
    assert {(vid, at): m.idle_from(vid, at) for vid, at in want} == want
