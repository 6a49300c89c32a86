"""Baseline medium access: carrier sense with one-shot random backoff.

Sense-before-send without exponential backoff and without acknowledgments:
a frame at the head of the queue transmits immediately on an idle medium;
on a busy medium the node waits for the sensed idle edge, defers a uniform
number of backoff slots, re-senses, and transmits. The window never grows
and every frame is transmitted exactly once.

Each message arrives by its own event at its due time. The arrivals come
from the run's `MessageClock`, which keeps them in one stream and puts only
the earliest in the kernel's heap. Beyond that a MAC raises an event only
where it has something to decide: at a sensed idle edge, at the expiry of a
non-zero backoff, and at the end of its own transmission only when a frame
will wait behind it. A zero backoff transmits at once: a re-sense at the
same instant would read what the first sense read, since no frame is sensed
at the instant it starts.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass

from .frames import Frame
from .kernel import APP_TICK, Kernel, Pcg64, TIMER, US
from .radio import Medium


@dataclass(slots=True)
class CsmaConfig:
    # The contention behaviour is deliberately coarse: a 2-slot window with
    # long slots reproduces observed broadcast-collision levels (roughly a
    # 10-50% band across platoon sizes) under this simplified one-shot
    # backoff. For an 802.11p-flavoured parameterization use cw_slots=16,
    # backoff_slot_ns=13_000; collision rates then collapse at sparse load.
    cw_slots: int = 2
    backoff_slot_ns: int = 800 * US

    def validate(self) -> None:
        if self.cw_slots < 1:
            raise ValueError("cw_slots must be >= 1")
        if self.backoff_slot_ns <= 0:
            raise ValueError("backoff_slot_ns must be > 0")


class MessageClock:
    """The run's stream of message arrivals, one `APP_TICK` event each.

    A MAC arms its next message here (`arm`) where it would otherwise have
    scheduled the event itself. Only the earliest arrivals are kernel events:
    the kernel holds at least the earliest pending arrival and never one
    later than an arrival the clock still holds, and when the last arrival it
    holds fires, the clock hands it the next one before the MAC acts. The
    clock files the others in (due, vehicle id) order. A re-arm is due one
    message interval on, which no pending arrival passes, so it lands at the
    tail; a MAC's first arrival can land anywhere.
    """

    def __init__(self, kernel: Kernel, medium: Medium):
        self.kernel = kernel
        self.medium = medium
        self._stream: deque[tuple[int, int, CsmaMac]] = deque()   # not yet kernel events
        self._queued = 0            # arrivals that are kernel events
        self._last_due = 0          # due time of the latest of them

    def arm(self, mac: CsmaMac, due: int) -> None:
        """File mac's next message arrival at due."""
        if not self._queued or due < self._last_due:
            self.kernel.at(due, mac.vid, APP_TICK, self._on_arrival, mac)
            if not self._queued:
                self._last_due = due
            self._queued += 1
            return
        # a MAC has one arrival armed at a time, so no two keys are equal
        entry = (due, mac.vid, mac)
        if not self._stream or entry > self._stream[-1]:
            self._stream.append(entry)
        else:
            insort(self._stream, entry)

    def _on_arrival(self, mac: CsmaMac) -> None:
        self._queued -= 1
        if not self._queued and self._stream:
            due, vid, nxt = self._stream.popleft()
            self.kernel.at(due, vid, APP_TICK, self._on_arrival, nxt)
            self._queued, self._last_due = 1, due
        mac._on_message()


class CsmaMac:
    """Per-vehicle FIFO with the baseline access procedure.

    The MAC reads its messages from a source (`scenario.ItsService`) and
    queues each at its due time, when the run's `MessageClock` calls it.

    `queue` holds the frames not yet on air; its head is in the access
    procedure. A frame leaves it when it goes on air. The end of that
    transmission is an event only if another frame is already queued or the
    source's next message falls due by the end; while that event is pending,
    a queued frame waits for it. The MAC counts neither messages nor frames:
    the messages it took are the source's `seq`, and the frames it sent are
    its frames in the medium's log, those that ended by the run end among them.
    """

    def __init__(self, vid: int, clock: MessageClock, cfg: CsmaConfig, rng: Pcg64, *, source):
        self.vid = vid
        self.clock = clock
        self.kernel = clock.kernel
        self.medium = clock.medium
        self.rng = rng
        self._cw_max, self._slot_ns = cfg.cw_slots - 1, cfg.backoff_slot_ns  # backoff draw
        self.queue: deque[Frame] = deque()
        self._tx_done_pending = False
        self.deferrals = 0
        self.source = source
        if source.next_due is not None:
            clock.arm(self, source.next_due)

    def _on_message(self) -> None:
        source, queue = self.source, self.queue
        queue.append(source.take())
        if len(queue) == 1 and not self._tx_done_pending:
            self._sense()
        if source.next_due is not None:
            self.clock.arm(self, source.next_due)

    # Access procedure for the head-of-line frame. Each step that waits is a
    # kernel event so concurrent vehicles interleave through simulated time.
    # Each sense is one scan of the medium: busy iff the idle edge lies ahead.

    def _sense(self, _payload=None) -> None:
        now = self.kernel.now
        idle = self.medium.idle_from(self.vid, now)
        if idle > now:
            self.deferrals += 1
            self.kernel.at(idle, self.vid, TIMER, self._on_idle_edge)
        else:
            self._transmit()

    def _on_idle_edge(self, _payload) -> None:
        now = self.kernel.now
        idle = self.medium.idle_from(self.vid, now)
        if idle > now:
            # medium got busy again while waiting: keep waiting for idle
            self.kernel.at(idle, self.vid, TIMER, self._on_idle_edge)
            return
        backoff = self.rng.integers(0, self._cw_max, endpoint=True) * self._slot_ns
        if backoff:
            # at expiry the frame is sensed like a fresh one: if busy again,
            # wait for the new idle edge and draw a fresh backoff there
            self.kernel.at(now + backoff, self.vid, TIMER, self._sense)
        else:
            self._transmit()

    def _transmit(self) -> None:
        end = self.medium.broadcast(self.queue.popleft()).end
        source = self.source
        if self.queue or source.next_due is not None and source.next_due <= end:
            self._tx_done_pending = True
            self.kernel.at(end, self.vid, TIMER, self._on_tx_done)

    def _on_tx_done(self, _payload) -> None:
        self._tx_done_pending = False
        if self.queue:
            self._sense()
