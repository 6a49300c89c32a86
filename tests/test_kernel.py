import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim.kernel import MS, SEC, US, EventKind, Kernel, RngStreams


def _timer(k, at, fn, target=0):
    k.at(at, target, EventKind.TIMER, fn)


def test_event_at_now_fires_before_later_event():
    k = Kernel()
    order = []
    _timer(k, 1, lambda _: order.append("later"))
    _timer(k, 0, lambda _: order.append("now"))
    k.run_until(10)
    assert order == ["now", "later"]


def test_equal_fire_at_processed_in_scheduling_order():
    k = Kernel()
    order = []
    for tag in ("a", "b", "c"):
        _timer(k, 5, lambda _, t=tag: order.append(t))
    k.run_until(5)
    assert order == ["a", "b", "c"]


def test_run_until_empty_queue_returns_end():
    k = Kernel()
    assert k.run_until(1 * SEC) == 1 * SEC
    assert k.now == 1 * SEC


def test_run_until_processes_event_at_half_second():
    k = Kernel()
    seen = []
    _timer(k, SEC // 2, lambda _: seen.append(k.now))
    k.run_until(1 * SEC)
    assert seen == [SEC // 2]


def test_event_beyond_end_stays_queued():
    k = Kernel()
    seen = []
    _timer(k, 3 * SEC // 2, lambda _: seen.append(k.now))
    k.run_until(1 * SEC)
    assert seen == []
    k.run_until(2 * SEC)
    assert seen == [3 * SEC // 2]


def test_scheduling_in_the_past_is_rejected():
    k = Kernel()
    k.run_until(100)
    with pytest.raises(ValueError):
        _timer(k, 99, lambda _: None)


def test_run_until_before_now_is_rejected():
    # rewinding the clock would accept events that fire after later ones
    k = Kernel()
    fired = []
    _timer(k, 10, lambda _: fired.append(10))
    k.run_until(20)
    with pytest.raises(ValueError):
        k.run_until(5)
    assert k.now == 20
    with pytest.raises(ValueError):
        _timer(k, 6, lambda _: fired.append(6))
    k.run_until(30)
    assert fired == [10]


def test_dispatch_hands_payload_time_and_seq_and_traces_each_event():
    k = Kernel(trace=True)
    seen = []

    def record(payload):
        seen.append((payload, k.now))

    k.at(7, 3, EventKind.TIMER, record, "a")
    k.at(5, 4, EventKind.SPAWN, record, ("b", 1))
    k.at(7, 5, EventKind.APP_TICK, record, "c")
    k.at(5, 6, EventKind.FRAME_DELIVERY, record)
    k.run_until(10)
    assert seen == [(("b", 1), 5), (None, 5), ("a", 7), ("c", 7)]
    # seqs number the events in scheduling order and break the ties at 5 and 7
    assert k.trace == [(5, 1, 4, "SPAWN"), (5, 3, 6, "FRAME_DELIVERY"),
                       (7, 0, 3, "TIMER"), (7, 2, 5, "APP_TICK")]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_run_until_pauses_the_collector_and_restores_its_state(enabled, raises):
    """The loop dispatches with the collector off and leaves it as it found it.

    A collector that it paused comes back with the loop's objects promoted to
    the oldest generation: the young generation is nearly empty, though the
    handler allocated more than its threshold. One that was off is left as
    it was, its young generation holding all that the handler allocated.
    """
    k = Kernel()
    seen = []
    young = gc.get_threshold()[0] + 100
    kept = []

    def handler(_):
        seen.append(gc.isenabled())
        kept.extend([] for _ in range(young))
        if raises:
            raise RuntimeError("handler failed")

    _timer(k, 3, handler)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="handler failed"):
                k.run_until(5)
        else:
            k.run_until(5)
        count = gc.get_count()[0]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert len(kept) == young
    if enabled:
        assert count < gc.get_threshold()[0]
    else:
        assert count >= young


def test_run_until_leaves_a_callers_frozen_objects_frozen():
    """An unfreeze would release what the caller froze, so while the caller
    holds frozen objects the loop promotes nothing."""
    k = Kernel()
    _timer(k, 3, lambda _: None)
    was = gc.isenabled()
    gc.enable()
    gc.freeze()
    try:
        k.run_until(5)
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0       # a promotion would leave none
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()


def test_integers_endpoint_degenerate_interval():
    rng = RngStreams(7).stream(1)
    assert rng.integers(5 * US, 5 * US, endpoint=True) == 5 * US


def test_integers_endpoint_rejects_inverted_bounds():
    rng = RngStreams(7).stream(1)
    with pytest.raises(ValueError):
        rng.integers(10, 9, endpoint=True)


def test_integers_endpoint_mean_matches_midpoint():
    # independent oracle: the mean of U[0, 1 ms] is 0.5 ms; with 1e5 draws the
    # sample mean must land within 1% of it
    rng = RngStreams(123).stream(42)
    n = 100_000
    total = sum(rng.integers(0, 1 * MS, endpoint=True) for _ in range(n))
    mean = total / n
    assert abs(mean - 500_000) < 5_000


def test_integers_endpoint_bounds_inclusive():
    rng = RngStreams(5).stream(0)
    draws = {rng.integers(0, 3, endpoint=True) for _ in range(200)}
    assert draws == {0, 1, 2, 3}


def test_same_seed_same_stream_identical_draws():
    a = RngStreams(99).stream(4)
    b = RngStreams(99).stream(4)
    assert [a.integers(0, 10**9, endpoint=True) for _ in range(20)] == \
           [b.integers(0, 10**9, endpoint=True) for _ in range(20)]


def test_distinct_streams_are_independent_of_each_other():
    streams = RngStreams(99)
    first = [streams.stream(1).integers(0, 10**9, endpoint=True) for _ in range(5)]
    # drawing from stream 2 must not perturb stream 1's sequence
    _ = [streams.stream(2).integers(0, 10**9, endpoint=True) for _ in range(50)]
    again = [streams.stream(1).integers(0, 10**9, endpoint=True) for _ in range(5)]
    assert first == again


# The first draws of numpy's Generator(PCG64(SeedSequence(seed, spawn_key=(key,)))):
# four integers(0, 15, endpoint=True) then one integers(0, 2**40,
# endpoint=True), and from a fresh stream two uniform(0.0, 100.0). They pin
# the stream where numpy is not installed.
_KNOWN_DRAWS = [
    (1, 0, [0, 11, 13, 2], 709315327445, [69.90345474368357, 17.433552137309583]),
    (1, 1000, [5, 6, 2, 11], 989911898312, [37.514529477726335, 74.69446873634105]),
    (7, 1099, [3, 6, 7, 12], 918248158617, [39.95715755113619, 75.12561198012612]),
    (2**64 + 5, 2**33, [4, 3, 12, 7], 1095685099787, [22.71931248914901, 46.55536251959877]),
]


@pytest.mark.parametrize("seed, key, small, wide, reals", _KNOWN_DRAWS)
def test_stream_reproduces_known_draws(seed, key, small, wide, reals):
    rng = RngStreams(seed).stream(key)
    assert [rng.integers(0, 15, endpoint=True) for _ in small] == small
    assert rng.integers(0, 2**40, endpoint=True) == wide
    rng = RngStreams(seed).stream(key)
    assert [rng.uniform(0.0, 100.0) for _ in reals] == reals


@pytest.mark.parametrize("seed, key", [(-1, 0), (1, -1), (-(2**64), 1000)])
def test_negative_seed_or_key_is_rejected(seed, key):
    with pytest.raises(ValueError, match="non-negative"):
        RngStreams(seed).stream(key)


@pytest.fixture(scope="module")
def numpy_random():
    return pytest.importorskip("numpy").random


def _numpy_stream(numpy_random, seed, key):
    ss = numpy_random.SeedSequence(entropy=seed, spawn_key=(key,))
    return numpy_random.Generator(numpy_random.PCG64(ss))


def _draws(rng, plan):
    """(low, span, then_uniform) steps; spans above 2**32 - 1 take 64-bit draws."""
    out = []
    for low, span, then_uniform in plan:
        out.append(int(rng.integers(low, low + span, endpoint=True)))
        if then_uniform:
            out.append(float(rng.uniform(-1.0, 250.0)))
    return out


_SPANS = [0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**62 + 12345]
# each span follows each span, and every third integer draw is followed by a
# uniform one, so the spare half-word is carried across every kind of draw
_PLAN = [(-i, span, i % 3 == 2)
         for i, span in enumerate(s for pair in itertools.product(_SPANS, repeat=2) for s in pair)]


# a seed over 128 bits mixes entropy words past the pool's four once per
# run, before any key's words; a key over 32 bits mixes two words per stream
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 2**96 + 3])
@pytest.mark.parametrize("key", [0, 1000, 1099, 2**33, 2**64 + 2**40 + 9])
def test_stream_matches_numpy(numpy_random, seed, key):
    expected = _draws(_numpy_stream(numpy_random, seed, key), _PLAN)
    assert _draws(RngStreams(seed).stream(key), _PLAN) == expected


def test_a_stream_leaves_the_run_entropy_to_the_next():
    streams = RngStreams(2**160 + 3)
    first = [streams.stream(key).next64() for key in (5, 2**40, 5)]
    assert first[0] == first[2] == RngStreams(2**160 + 3).stream(5).next64() != first[1]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**130), key=st.integers(0, 2**70),
       plan=st.lists(st.tuples(st.integers(-(2**62), 0),
                               st.one_of(st.integers(0, 2**32), st.integers(0, 2**63 - 1)),
                               st.booleans()), min_size=1, max_size=30))
def test_stream_matches_numpy_on_random_seeds_keys_and_ranges(numpy_random, seed, key, plan):
    expected = _draws(_numpy_stream(numpy_random, seed, key), plan)
    assert _draws(RngStreams(seed).stream(key), plan) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40))
def test_processed_log_is_totally_ordered(delays):
    k = Kernel(trace=True)
    for d in delays:
        _timer(k, d, lambda _: None)
    k.run_until(2000)
    keys = [(t, seq) for t, seq, _, _ in k.trace]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_replay_gives_identical_trace():
    def build():
        k = Kernel(trace=True)
        rng = RngStreams(11).stream(3)

        def chain(_):
            if k.now < 10 * MS:
                _timer(k, k.now + rng.integers(1, 100 * US, endpoint=True), chain)

        _timer(k, 0, chain)
        k.run_until(10 * MS)
        return k.trace

    assert build() == build()
