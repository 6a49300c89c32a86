"""Deterministic discrete-event core: integer-ns clock, ordered queue, seeded streams.

An event is the plain heap tuple (fire_at, seq, fn, payload, target, kind);
dispatching it sets the clock and calls fn(payload). `at` gives each event
the next seq, so events at one instant run in scheduling order. A run's
outcome does not rest on that order beyond its spawns, which `run_scenario`
schedules first: no frame is sensed at the instant it starts, so what one
event at t broadcasts, another at t does not see.

The seeded streams are the package's own PCG64, bit-identical to numpy's
`Generator(PCG64(SeedSequence(seed, spawn_key=(entity,))))`, so the output
depends on no third-party release.
"""

from __future__ import annotations

import gc
from enum import Enum, auto
from heapq import heappop, heappush
from typing import Any, Callable

# Time units, expressed in integer nanoseconds.  All simulated time in this
# package is integer ns; slot/window arithmetic must never touch floats.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


class EventKind(Enum):
    TIMER = auto()
    FRAME_DELIVERY = auto()
    SPAWN = auto()
    APP_TICK = auto()


# The members, bound once. Up to Python 3.11 every `EventKind.TIMER` read off
# the class takes the slow attribute path that `EnumType.__getattr__` forces
# (130-180 ns against about 10 ns for a module global), so each enum of the
# package binds its members to module-level names like these, and the
# per-event and per-frame paths read those.
TIMER, FRAME_DELIVERY, SPAWN, APP_TICK = EventKind


class Kernel:
    """Single-threaded event loop over a (fire_at, seq) min-heap.

    Events with equal fire_at run in scheduling order. Not thread-safe by
    design; parallelism belongs at the whole-run level (one kernel per run).

    `run_until` pauses the cyclic garbage collector while it dispatches, and
    restores the state it found, also when a handler raises. That rests on
    one invariant: handlers make no cyclic garbage. What a handler drops is
    freed by reference counting, so a collector pass inside the loop frees
    nothing and only re-walks the growing set of live objects. Before it
    turns a paused collector back on, it promotes every tracked object to the
    oldest generation (`gc.freeze()` then `gc.unfreeze()`, both O(1)), so no
    young-generation pass after the loop re-walks the run either; a caller's
    young garbage cycles then wait for the next full collection. It skips the
    promotion when the caller has frozen objects of its own, since the
    unfreeze would release them too. A collector that was off stays untouched.

    `drop_pending` forgets the events still pending: a run that will not be
    resumed drops them, and with them the handlers they hold.

    `horizon` tells a handler how far it may act ahead of now without an
    event: up to the next pending event, and no further than the end of the
    current `run_until`. The slot controller's window clock sends a window's
    data-slot frames up to it from one event.
    """

    def __init__(self, trace: bool = False):
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[[Any], None], Any, int, EventKind]] = []
        self._seq = 0
        self._until = 0         # one past the end of the current (or last) run_until
        self.trace_enabled = trace
        self.trace: list[tuple[int, int, int, str]] = []

    def at(self, fire_at: int, target: int, kind: EventKind,
           fn: Callable[[Any], None], payload: Any = None) -> None:
        """Schedule fn(payload) at fire_at on behalf of target."""
        if fire_at < self.now:
            raise ValueError(f"cannot schedule event at {fire_at} ns before now={self.now} ns")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (fire_at, seq, fn, payload, target, kind))

    def run_until(self, end: int) -> int:
        if end < self.now:
            raise ValueError(f"cannot run until {end} ns before now={self.now} ns")
        heap = self._heap
        self._until = end + 1
        trace = self.trace if self.trace_enabled else None
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            while heap and heap[0][0] <= end:
                fire_at, seq, fn, payload, target, kind = heappop(heap)
                self.now = fire_at
                if trace is not None:
                    trace.append((fire_at, seq, target, kind.name))
                fn(payload)
        finally:
            if paused:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()
        self.now = end
        return end

    def horizon(self) -> int:
        """The first instant at which another event may act: when the next
        pending event fires, or one ns past the end of the current `run_until`,
        whichever comes first. Up to it, exclusive, nothing else happens."""
        heap, until = self._heap, self._until
        return min(heap[0][0], until) if heap else until

    def drop_pending(self) -> None:
        """Forget every pending event."""
        self._heap.clear()


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """numpy's split of a non-negative int into little-endian uint32 words."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    return [n >> shift & _M32 for shift in range(0, n.bit_length() or 1, 32)]


def _hashmix(v: int, h: int, mult: int) -> tuple[int, int]:
    """SeedSequence's hashmix of v under the running hash constant h: (value, next h)."""
    v = (v ^ h) * (h := h * mult & _M32) & _M32
    return v ^ v >> 16, h


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _mix_words(pool: list[int], h: int, words: list[int]) -> int:
    """Mix each of words into every pool word, in place; return the hash constant after."""
    for w in words:
        for dst in range(4):
            v, h = _hashmix(w, h, 0x931E8875)
            pool[dst] = _mix(pool[dst], v)
    return h


def _entropy_pool(entropy: int) -> tuple[list[int], int]:
    """The part of SeedSequence(entropy, spawn_key=(key,)) that no key changes.

    The pool after the run entropy, padded to the pool size (4 words), is
    mixed in, and the running hash constant there; `_seed_words` mixes a
    key's words into a copy.
    """
    words = _words(entropy)
    words += [0] * (4 - len(words))
    h, pool = 0x43B0D7E5, []
    for w in words[:4]:
        v, h = _hashmix(w, h, 0x931E8875)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h, 0x931E8875)
                pool[dst] = _mix(pool[dst], v)
    return pool, _mix_words(pool, h, words[4:])


def _seed_words(entropy_pool: tuple[list[int], int], key: int) -> list[int]:
    """SeedSequence(entropy, spawn_key=(key,)).generate_state(4, uint64), from
    `_entropy_pool(entropy)`: the key's words follow the run entropy."""
    pool = entropy_pool[0][:]
    _mix_words(pool, entropy_pool[1], _words(key))
    h, out = 0x8B51F9DD, []
    for i in range(8):
        v, h = _hashmix(pool[i % 4], h, 0x58F38DED)
        out.append(v)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """PCG64 (XSL-RR 128/64) with numpy's seeding and draw methods.

    `integers` is Lemire's method as numpy's `Generator` runs it: ranges up
    to 2**32 - 1 use 32-bit halves, keeping the spare high half of a 64-bit
    output for the next such draw; wider ranges use whole 64-bit outputs.
    It starts from the four state words that `_seed_words` derives.
    """

    def __init__(self, seed_words: list[int]):
        s0, s1, i0, i1 = seed_words
        self._inc = (i0 << 64 | i1) << 1 & _M128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128
        self._spare: int | None = None

    def next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, r = (s >> 64) ^ (s & _M64), s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def integers(self, low: int, high: int, endpoint: bool = False) -> int:
        span = high - low - (not endpoint)
        if not 0 <= span <= _M64:
            raise ValueError(f"integers: empty or too wide range [{low}, {high}]")
        if span == 0:
            return low
        excl = span + 1
        if span <= _M32:
            # the 32-bit draw is written out here, PCG step and spare half
            # included, so a backoff draw on the CSMA path makes no call
            while True:
                if (v := self._spare) is not None:
                    self._spare = None
                else:
                    s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
                    x, r = (s >> 64) ^ (s & _M64), s >> 122
                    v = (x >> r | x << (64 - r)) & _M64
                    self._spare = v >> 32
                    v &= _M32
                m = v * excl
                # numpy's threshold, 2**32 % excl, is below excl: it is
                # computed only for the rare leftover below excl
                if m & _M32 >= excl or m & _M32 >= (1 << 32) % excl:
                    return low + (m >> 32)
        m = self.next64() * excl
        if m & _M64 < excl:
            threshold = (1 << 64) % excl
            while m & _M64 < threshold:
                m = self.next64() * excl
        return low + (m >> 64)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * ((self.next64() >> 11) * 2.0 ** -53)


class RngStreams:
    """Splittable per-entity random streams derived from one 64-bit seed.

    Each entity id gets an independent PCG64 stream, so adding or removing a
    vehicle never perturbs the draws seen by the others.
    """

    def __init__(self, seed: int):
        self._pool = _entropy_pool(seed)     # mixed once per run

    def stream(self, entity_id: int) -> Pcg64:
        return Pcg64(_seed_words(self._pool, entity_id))
