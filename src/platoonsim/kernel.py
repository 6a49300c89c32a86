"""Deterministic discrete-event core: integer-ns clock, ordered queue, seeded streams."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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


@dataclass(slots=True)
class Event:
    """A scheduled occurrence. `seq` is assigned by the kernel and breaks ties."""

    fire_at: int
    target: int
    kind: EventKind
    fn: Callable[["Event"], None]
    payload: Any = None
    seq: int = -1


class Kernel:
    """Single-threaded event loop over a (fire_at, seq) min-heap.

    Events with equal fire_at run in scheduling order. Not thread-safe by
    design; parallelism belongs at the whole-run level (one kernel per run).
    """

    def __init__(self, trace: bool = False):
        self.now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self.trace_enabled = trace
        self.trace: list[tuple[int, int, int, str]] = []

    @property
    def next_seq(self) -> int:
        """The seq the next scheduled event gets; earlier events have smaller ones."""
        return self._seq

    def schedule(self, event: Event) -> Event:
        if event.fire_at < self.now:
            raise ValueError(
                f"cannot schedule event at {event.fire_at} ns before now={self.now} ns"
            )
        event.seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (event.fire_at, event.seq, event))
        return event

    def run_until(self, end: int) -> int:
        while self._heap and self._heap[0][0] <= end:
            fire_at, _seq, ev = heapq.heappop(self._heap)
            self.now = fire_at
            if self.trace_enabled:
                self.trace.append((fire_at, ev.seq, ev.target, ev.kind.name))
            ev.fn(ev)
        self.now = end
        return self.now


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
