"""Range-limited broadcast medium with receiver-side overlap collision detection.

The channel is idealized: no attenuation, no fading, no capture. A reception
collides iff another transmission whose sender is in range of the receiver
overlaps it on air, or the receiver itself was transmitting (half-duplex).
Carrier sensing sees a transmission only once its signal has propagated to
the listener, so two nodes that start within one propagation delay of each
other are mutually blind and will overlap.

Vehicles never move after they register, so who hears whom, and after what
propagation delay, is computed once per pair at registration. Only control
frames (announce, allocation) are handed to frame handlers, one event per
reception. Data frames, and receptions at vehicles without a handler, carry
no protocol effect at delivery; they are settled together by one event at the
transmission's last arrival. The log is the record of who heard whom and
when: `outcomes` reads each receiver's collided flag back from it, and
`last_clean_arrival` answers liveness questions from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

from .frames import Frame, FrameKind
from .kernel import Event, EventKind, Kernel, SEC


@dataclass(slots=True, frozen=True)
class Position:
    x: float
    y: float

    def distance(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(slots=True)
class RadioConfig:
    range_m: float = 300.0
    data_rate_bps: int = 6_000_000
    propagation_mps: float = 3.0e8
    preamble_ns: int = 0
    # carrier-sense detection latency: a signal must have been arriving for
    # this long before clear-channel assessment reports it (preamble
    # detection / energy integration time; OFDM-scale default)
    cca_detect_ns: int = 4_000

    def validate(self) -> None:
        if self.data_rate_bps <= 0:
            raise ValueError("data_rate_bps must be > 0")
        if self.range_m < 0 or self.propagation_mps <= 0:
            raise ValueError("range_m must be >= 0 and propagation_mps > 0")
        if self.preamble_ns < 0 or self.cca_detect_ns < 0:
            raise ValueError("preamble_ns and cca_detect_ns must be >= 0")

    def prop_delay(self, dist: float) -> int:
        """Propagation delay in ns over dist metres, rounded up."""
        return math.ceil(dist * SEC / self.propagation_mps)


def tx_duration(size_bytes: int, cfg: RadioConfig) -> int:
    """On-air time in ns: preamble plus payload bits at the configured rate."""
    if size_bytes < 0:
        raise ValueError("negative frame size")
    if size_bytes == 0:
        return cfg.preamble_ns
    bits = size_bytes * 8
    return cfg.preamble_ns + -(-bits * SEC // cfg.data_rate_bps)


@dataclass(slots=True)
class Transmission:
    sender: int
    frame: Frame
    start: int
    end: int
    index: int = -1
    # the kernel's next event seq at broadcast: orders the broadcast against
    # events scheduled before or after it
    kernel_seq: int = -1
    receivers_expected: int = 0
    receivers_done: int = 0
    receivers_collided: int = 0
    # vehicles where a reception of this transmission collides, while any
    # reception is still unaccounted
    _interfered: set[int] | None = None

    @property
    def collided(self) -> bool:
        return self.receivers_collided > 0


class Medium:
    """Broadcast channel shared by all registered vehicles.

    A `handler(frame, collided)` registered per vehicle gets each of its
    control-frame receptions at the arrival time; collided frames are
    delivered with the flag set so the handler can discard them (no partial
    decode). Data frames are never handed to handlers; see
    `last_clean_arrival`. Per-receiver outcomes are read back with `outcomes`.
    """

    def __init__(self, kernel: Kernel, cfg: RadioConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.positions: dict[int, Position] = {}
        self.handlers: dict[int, Callable[[Frame, bool], None]] = {}
        self.log: list[Transmission] = []           # all transmissions, by start
        self._starts: list[int] = []                # start of each log entry
        self._sent: dict[int, list[Transmission]] = {}   # per sender, by start
        self._joined: dict[int, int] = {}           # vid -> log length at register
        # vid -> {vid in range: propagation delay ns}, in registration order;
        # every vehicle hears itself first, with delay 0. Entries are only
        # appended, so the receivers of a transmission are always a prefix.
        self._hears: dict[int, dict[int, int]] = {}
        self._sense_slack = cfg.prop_delay(cfg.range_m)
        self._busy_until: dict[int, int] = {}       # per-sender serialization
        self._max_dur = 0

    def register(self, vid: int, pos: Position,
                 handler: Callable[[Frame, bool], None] | None = None) -> None:
        if vid in self.positions:
            raise ValueError(f"vehicle {vid} already registered")
        hears = {vid: 0}
        for other, other_pos in self.positions.items():
            dist = pos.distance(other_pos)
            if dist <= self.cfg.range_m:
                hears[other] = self._hears[other][vid] = self.cfg.prop_delay(dist)
        self._hears[vid] = hears
        self.positions[vid] = pos
        self._joined[vid] = len(self.log)
        if handler is not None:
            self.handlers[vid] = handler

    # -- transmission ------------------------------------------------------

    def broadcast(self, sender: int, frame: Frame, start: int | None = None) -> Transmission:
        now = self.kernel.now
        if start is None:
            start = now
        if start != now:
            raise ValueError("broadcast must start at the current simulated time")
        if sender not in self.positions:
            raise ValueError(f"sender {sender} not registered")
        if now < self._busy_until.get(sender, 0):
            raise RuntimeError(
                f"vehicle {sender} is already transmitting at {now} ns; "
                "MAC layers must serialize their own transmissions"
            )
        end = start + tx_duration(frame.size, self.cfg)
        tx = Transmission(sender=sender, frame=frame, start=start, end=end,
                          index=len(self.log), kernel_seq=self.kernel.next_seq)
        self.log.append(tx)
        self._starts.append(start)
        self._sent.setdefault(sender, []).append(tx)
        self._busy_until[sender] = end
        self._max_dur = max(self._max_dur, end - start)

        hears = self._hears[sender]
        tx.receivers_expected = len(hears) - 1
        handlers = self._handlers(frame)
        unhandled: list[int] = []
        settle_delay = 0
        for vid, delay in islice(hears.items(), 1, None):
            if vid in handlers:
                self.kernel.schedule(Event(end + delay, vid, EventKind.FRAME_DELIVERY,
                                           self._deliver, payload=(tx, vid)))
            else:
                unhandled.append(vid)
                if delay > settle_delay:
                    settle_delay = delay
        if unhandled:
            self.kernel.schedule(Event(end + settle_delay, sender, EventKind.FRAME_DELIVERY,
                                       self._settle, payload=(tx, unhandled)))
        return tx

    def _handlers(self, frame: Frame) -> dict[int, Callable]:
        """The handlers a frame is delivered to: none for data frames."""
        return {} if frame.kind is FrameKind.DATA else self.handlers

    def _deliver(self, ev: Event) -> None:
        # one event per control-frame reception at a handler: accounted
        # inline, unlike _account's batches
        tx, receiver = ev.payload
        collided = receiver in self._interfered(tx)
        tx.receivers_done += 1
        tx.receivers_collided += collided
        if tx.receivers_done == tx.receivers_expected:
            tx._interfered = None
        self.handlers[receiver](tx.frame, collided)

    def _settle(self, ev: Event) -> None:
        """Account, at the last arrival, every reception not handed to a handler."""
        tx, receivers = ev.payload
        self._account(tx, receivers)

    def _account(self, tx: Transmission, receivers: Sequence[int]) -> None:
        hit = self._interfered(tx)
        tx.receivers_done += len(receivers)
        tx.receivers_collided += len(hit.intersection(receivers))
        if tx.receivers_done == tx.receivers_expected:
            tx._interfered = None           # settled; nothing reads it again

    def finalize(self) -> None:
        """Resolve outcomes for receptions whose delivery events never fired.

        Called once at run end, after the kernel has run, so that every logged
        transmission carries the same flags it would have had with more
        simulated time. Frames are not handed to protocol handlers here; only
        accounting is completed. An event has fired iff its time is <= now.
        """
        now = self.kernel.now
        for tx in self.log:
            if tx.receivers_done >= tx.receivers_expected:
                continue
            # the receivers in range at broadcast; the table only grows by appending
            receivers = list(islice(self._hears[tx.sender].items(), 1,
                                    1 + tx.receivers_expected))
            handlers = self._handlers(tx.frame)
            settle_at = tx.end + max((d for vid, d in receivers if vid not in handlers),
                                     default=0)
            self._account(tx, [vid for vid, d in receivers
                               if (tx.end + d if vid in handlers else settle_at) > now])

    # -- collision predicate -------------------------------------------------

    def outcomes(self, tx: Transmission) -> dict[int, bool]:
        """Collided flag per receiver of tx, rebuilt from the log.

        The receivers are the vehicles in range at broadcast. The flags are
        final once the kernel clock reaches tx.end, when nothing more can start
        on air inside tx; the online accounting counts the same flags.
        """
        hit = self._interferers(tx)
        receivers = islice(self._hears[tx.sender], 1, 1 + tx.receivers_expected)
        return {vid: vid in hit for vid in receivers}

    def _interfered(self, tx: Transmission) -> set[int]:
        """_interferers(tx), kept on tx while any reception is unaccounted."""
        if tx._interfered is None:
            tx._interfered = self._interferers(tx)
        return tx._interfered

    def _interferers(self, tx: Transmission) -> set[int]:
        """Vehicles in range of a transmission that overlaps tx on air.

        A reception of tx collides exactly at these vehicles; the sender of an
        overlapping transmission hears itself, which makes reception half-duplex.
        """
        hit: set[int] = set()
        for other in self._overlapping(tx):
            hit.update(self._hears[other.sender])
        return hit

    def _overlapping(self, tx: Transmission):
        """The other transmissions that share air time with tx."""
        log = self.log
        for i in range(bisect_left(self._starts, tx.start - self._max_dur), len(log)):
            other = log[i]
            if other.start >= tx.end:
                break
            if other is not tx and tx.start < other.end:
                yield other

    # -- liveness ------------------------------------------------------------

    def last_clean_arrival(self, listener: int, sender: int, after: int,
                           seq: int) -> int | None:
        """Latest arrival in (after, now] of a clean reception of sender's frames.

        Read from the log, it counts what per-reception events would have
        delivered by the reading event with kernel seq `seq`: an arrival before
        now, or at now from a broadcast made before that event was scheduled.
        The listener must have been registered at the broadcast; a reception
        is clean unless an overlapping transmission's sender is in range of
        the listener (itself included). None if there is no such reception.
        """
        delay = self._hears.get(sender, {}).get(listener)
        if delay is None or listener == sender:
            return None
        now = self.kernel.now
        joined = self._joined[listener]
        hears = self._hears
        for tx in reversed(self._sent.get(sender, ())):
            arrival = tx.end + delay
            if arrival <= after or tx.index < joined:
                break
            if arrival > now or (arrival == now and tx.kernel_seq > seq):
                continue
            if not any(listener in hears[o.sender] for o in self._overlapping(tx)):
                return arrival
        return None

    # -- carrier sense -------------------------------------------------------

    def is_busy(self, listener: int, at: int) -> bool:
        """True iff an in-range signal is on air at the listener and detectable."""
        return self.idle_from(listener, at) > at

    def idle_from(self, listener: int, at: int) -> int:
        """When every transmission sensed at `at` has ended; `at` if none is.

        Sensed intervals are shifted by propagation delay and detection takes
        cca_detect_ns, so a transmission that started moments ago is not yet
        visible; two nodes committing within that window will overlap.
        """
        hears = self._hears[listener]
        horizon = at
        lo = bisect_left(self._starts, at - self._max_dur - self._sense_slack)
        for tx in self.log[lo:]:
            if tx.start > at:
                break
            delay = hears.get(tx.sender)
            if delay is None:
                continue
            if tx.start + delay + self.cfg.cca_detect_ns <= at < tx.end + delay:
                horizon = max(horizon, tx.end + delay)
        return horizon
