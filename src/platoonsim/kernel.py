"""Deterministic discrete-event core: integer-ns clock, ordered queue, seeded streams.

An event is the plain heap tuple (fire_at, seq, fn, payload, target, kind);
dispatching it sets the clock and `Kernel.seq` and calls fn(payload).
"""

from __future__ import annotations

import heapq
from enum import Enum, auto
from typing import Any, Callable

import numpy as np

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


class Kernel:
    """Single-threaded event loop over a (fire_at, seq) min-heap.

    Events with equal fire_at run in scheduling order. Not thread-safe by
    design; parallelism belongs at the whole-run level (one kernel per run).
    """

    def __init__(self, trace: bool = False):
        self.now: int = 0
        self.seq: int = -1          # seq of the event being dispatched
        self._heap: list[tuple[int, int, Callable[[Any], None], Any, int, EventKind]] = []
        self._seq = 0
        self.trace_enabled = trace
        self.trace: list[tuple[int, int, int, str]] = []

    @property
    def next_seq(self) -> int:
        """The seq the next scheduled event gets; earlier events have smaller ones."""
        return self._seq

    def at(self, fire_at: int, target: int, kind: EventKind,
           fn: Callable[[Any], None], payload: Any = None) -> int:
        """Schedule fn(payload) at fire_at on behalf of target; returns its seq."""
        if fire_at < self.now:
            raise ValueError(f"cannot schedule event at {fire_at} ns before now={self.now} ns")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, fn, payload, target, kind))
        return seq

    def run_until(self, end: int) -> int:
        if end < self.now:
            raise ValueError(f"cannot run until {end} ns before now={self.now} ns")
        heap, pop = self._heap, heapq.heappop
        trace = self.trace if self.trace_enabled else None
        while heap and heap[0][0] <= end:
            fire_at, seq, fn, payload, target, kind = pop(heap)
            self.now = fire_at
            self.seq = seq
            if trace is not None:
                trace.append((fire_at, seq, target, kind.name))
            fn(payload)
        self.now = end
        return end


def uniform(rng: np.random.Generator, lo: int, hi: int) -> int:
    """Uniform integer draw in [lo, hi], both ends inclusive."""
    if lo > hi:
        raise ValueError(f"uniform: lo={lo} > hi={hi}")
    if lo == hi:
        return lo
    return int(rng.integers(lo, hi, endpoint=True))


class RngStreams:
    """Splittable per-entity random streams derived from one 64-bit seed.

    Each entity id gets an independent PCG64 stream, so adding or removing a
    vehicle never perturbs the draws seen by the others.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, entity_id: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(entity_id,))
        return np.random.Generator(np.random.PCG64(ss))
