import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim.kernel import MS, SEC, US, Event, EventKind, Kernel, RngStreams, uniform


def _timer(at, fn, target=0):
    return Event(at, target, EventKind.TIMER, fn)


def test_event_at_now_fires_before_later_event():
    k = Kernel()
    order = []
    k.schedule(_timer(1, lambda ev: order.append("later")))
    k.schedule(_timer(0, lambda ev: order.append("now")))
    k.run_until(10)
    assert order == ["now", "later"]


def test_equal_fire_at_processed_in_scheduling_order():
    k = Kernel()
    order = []
    for tag in ("a", "b", "c"):
        k.schedule(_timer(5, lambda ev, t=tag: order.append(t)))
    k.run_until(5)
    assert order == ["a", "b", "c"]


def test_run_until_empty_queue_returns_end():
    k = Kernel()
    assert k.run_until(1 * SEC) == 1 * SEC
    assert k.now == 1 * SEC


def test_run_until_processes_event_at_half_second():
    k = Kernel()
    seen = []
    k.schedule(_timer(SEC // 2, lambda ev: seen.append(k.now)))
    k.run_until(1 * SEC)
    assert seen == [SEC // 2]


def test_event_beyond_end_stays_queued():
    k = Kernel()
    seen = []
    k.schedule(_timer(3 * SEC // 2, lambda ev: seen.append(k.now)))
    k.run_until(1 * SEC)
    assert seen == []
    k.run_until(2 * SEC)
    assert seen == [3 * SEC // 2]


def test_scheduling_in_the_past_is_rejected():
    k = Kernel()
    k.run_until(100)
    with pytest.raises(ValueError):
        k.schedule(_timer(99, lambda ev: None))


def test_uniform_degenerate_interval():
    rng = RngStreams(7).stream(1)
    assert uniform(rng, 5 * US, 5 * US) == 5 * US


def test_uniform_rejects_inverted_bounds():
    rng = RngStreams(7).stream(1)
    with pytest.raises(ValueError):
        uniform(rng, 10, 9)


def test_uniform_mean_matches_midpoint():
    # independent oracle: the mean of U[0, 1 ms] is 0.5 ms; with 1e5 draws the
    # sample mean must land within 1% of it
    rng = RngStreams(123).stream(42)
    n = 100_000
    total = sum(uniform(rng, 0, 1 * MS) for _ in range(n))
    mean = total / n
    assert abs(mean - 500_000) < 5_000


def test_uniform_bounds_inclusive():
    rng = RngStreams(5).stream(0)
    draws = {uniform(rng, 0, 3) for _ in range(200)}
    assert draws == {0, 1, 2, 3}


def test_same_seed_same_stream_identical_draws():
    a = RngStreams(99).stream(4)
    b = RngStreams(99).stream(4)
    assert [uniform(a, 0, 10**9) for _ in range(20)] == \
           [uniform(b, 0, 10**9) for _ in range(20)]


def test_distinct_streams_are_independent_of_each_other():
    streams = RngStreams(99)
    first = [uniform(streams.stream(1), 0, 10**9) for _ in range(5)]
    # drawing from stream 2 must not perturb stream 1's sequence
    _ = [uniform(streams.stream(2), 0, 10**9) for _ in range(50)]
    again = [uniform(streams.stream(1), 0, 10**9) for _ in range(5)]
    assert first == again


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40))
def test_processed_log_is_totally_ordered(delays):
    k = Kernel(trace=True)
    for d in delays:
        k.schedule(_timer(d, lambda ev: None))
    k.run_until(2000)
    keys = [(t, seq) for t, seq, _, _ in k.trace]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_replay_gives_identical_trace():
    def build():
        k = Kernel(trace=True)
        rng = RngStreams(11).stream(3)

        def chain(ev):
            if k.now < 10 * MS:
                k.schedule(_timer(k.now + uniform(rng, 1, 100 * US), chain))

        k.schedule(_timer(0, chain))
        k.run_until(10 * MS)
        return k.trace

    assert build() == build()
