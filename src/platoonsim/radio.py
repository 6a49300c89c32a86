"""Range-limited broadcast medium with receiver-side overlap collision detection.

The channel is idealized: no attenuation, no fading, no capture. A reception
collides iff another transmission whose sender is in range of the receiver
overlaps it on air, or the receiver itself was transmitting (half-duplex).
Carrier sensing sees a transmission only once its signal has propagated to
the listener, so two nodes that start within one propagation delay of each
other are mutually blind and will overlap.

Vehicles never move after they register, so who hears whom, and after what
propagation delay, is computed once per pair at registration. The log of
transmissions is the only record of who heard whom and when. Only allocation
frames, which act at once, are handed to frame handlers, one event per
reception; every other reception raises no event. Protocols read announces
(`clean_receptions`) and liveness (`last_clean_arrival`) back from the log,
`outcomes` rebuilds each receiver's collided flag from it, and `finalize`
counts each transmission's collided receptions once, at run end.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Callable

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
    # collided receptions, counted once by Medium.finalize; None until then
    receivers_collided: int | None = None

    @property
    def collided(self) -> bool:
        return self.receivers_collided > 0


class Medium:
    """Broadcast channel shared by all registered vehicles.

    A `handler(frame, collided)` registered per vehicle gets each of its
    allocation receptions at the arrival time; collided frames are delivered
    with the flag set so the handler can discard them (no partial decode).
    Other frames are never handed to handlers; see `clean_receptions` and
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

    def broadcast(self, sender: int, frame: Frame) -> Transmission:
        start = self.kernel.now
        if sender not in self.positions:
            raise ValueError(f"sender {sender} not registered")
        if start < self._busy_until.get(sender, 0):
            raise RuntimeError(
                f"vehicle {sender} is already transmitting at {start} ns; "
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
        if frame.kind is FrameKind.CONTROL_ALLOCATION:
            # an allocation acts at once (it arms slots), so it is delivered
            for vid, delay in islice(hears.items(), 1, None):
                if vid in self.handlers:
                    self.kernel.schedule(Event(end + delay, vid, EventKind.FRAME_DELIVERY,
                                               self._deliver, payload=tx))
        return tx

    def _deliver(self, ev: Event) -> None:
        tx = ev.payload
        self.handlers[ev.target](tx.frame, not self._clean_at(tx, ev.target))

    def finalize(self) -> None:
        """Count each transmission's collided receptions, once, at run end.

        Called after the kernel has run. A reception's flag is final once
        nothing more can start on air inside its transmission, so a run cut
        with frames in flight counts them as the log reads; frames are not
        handed to protocol handlers here.
        """
        for tx in self.log:
            tx.receivers_collided = sum(self.outcomes(tx).values())

    # -- collision predicate -------------------------------------------------

    def outcomes(self, tx: Transmission) -> dict[int, bool]:
        """Collided flag per receiver of tx, rebuilt from the log.

        The receivers are the vehicles in range at broadcast. The flags are
        final once the kernel clock reaches tx.end, when nothing more can start
        on air inside tx; `finalize` counts them.
        """
        hit = self._interferers(tx)
        receivers = islice(self._hears[tx.sender], 1, 1 + tx.receivers_expected)
        return {vid: vid in hit for vid in receivers}

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

    def _clean_at(self, tx: Transmission, listener: int) -> bool:
        """True iff no overlapping transmission's sender is in range of listener."""
        hears = self._hears
        return not any(listener in hears[o.sender] for o in self._overlapping(tx))

    # -- reading receptions from the log ---------------------------------------

    def _heard(self, tx: Transmission, listener: int, delay: int, seq: int) -> bool:
        """Whether tx reached listener clean by the reading event with kernel seq `seq`.

        It counts what a per-reception event would have delivered by then: an
        arrival before now, or at now from a broadcast made before the reading
        event was scheduled. The listener must have been registered at the
        broadcast; the reception is clean unless an overlapping transmission's
        sender is in range of the listener (itself included).
        """
        arrival = tx.end + delay
        now = self.kernel.now
        return (tx.index >= self._joined[listener]
                and (arrival < now or (arrival == now and tx.kernel_seq <= seq))
                and self._clean_at(tx, listener))

    def clean_receptions(self, listener: int, kind: FrameKind, since: int,
                         seq: int) -> list[Frame]:
        """Frames of `kind` broadcast at or after `since` that listener heard clean.

        Heard as `_heard` reads it, by the reading event with kernel seq `seq`;
        in broadcast order. A vehicle never receives its own frames.
        """
        hears = self._hears.get(listener, {})
        return [tx.frame for tx in self.log[bisect_left(self._starts, since):]
                if tx.frame.kind is kind and tx.sender != listener
                and tx.sender in hears and self._heard(tx, listener, hears[tx.sender], seq)]

    def last_clean_arrival(self, listener: int, sender: int, after: int,
                           seq: int) -> int | None:
        """Latest arrival in (after, now] of a clean reception of sender's frames.

        Heard as `_heard` reads it, by the reading event with kernel seq `seq`.
        None if there is no such reception.
        """
        delay = self._hears.get(sender, {}).get(listener)
        if delay is None or listener == sender:
            return None
        for tx in reversed(self._sent.get(sender, ())):
            if tx.end + delay <= after:
                break
            if self._heard(tx, listener, delay, seq):
                return tx.end + delay
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
