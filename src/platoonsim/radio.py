"""Range-limited broadcast medium with receiver-side overlap collision detection.

The channel is idealized: no attenuation, no fading, no capture. A reception
collides iff another transmission whose sender is in range of the receiver
overlaps it on air, or the receiver itself was transmitting (half-duplex).
Carrier sensing sees a transmission only once its signal has propagated to
the listener, and never at the instant it starts, so two nodes that start
within one propagation delay of each other, or at one instant, are mutually
blind and will overlap.

Vehicles never move after they register, so who hears whom, and after what
propagation delay, is computed once per pair at registration, together with
a bitmask per vehicle of the other vehicles it hears. The log holds the broadcast
frames themselves: `broadcast` stamps each frame once with its start, end,
receivers mask and interferer mask, so a frame on air is its own record. The
log is the only record of who heard whom and when. It is sorted by start,
and no frame lasts longer than the longest airtime logged so far, so the
reads that look for frames still on air (pairing at broadcast, carrier
sense) scan it backwards from its end and stop at the first frame that
started too early to matter; the medium keeps no index over start times.
Each frame's interferer mask is filled at broadcast, once per overlapping
pair, and is final once the clock reaches its end, since nothing that starts
later overlaps it. Every reader of who heard a frame clean reads that one
mask, against the receivers mask: a delivery at arrival, the announces and
liveness that protocols read back from the log (`clean_receptions`,
`last_clean_arrival`) and the transmission log's collided flag. A read of the log at
time t counts the clean receptions that arrived before t; the order in which
events were scheduled plays no part.

The medium knows no protocol and no frame kind: a broadcast raises no
event. A protocol that acts on a frame at once, as the slot controller does
on an allocation, asks the medium to `deliver` it: that raises one event per
receiver with a handler, and hands the frame over only where it arrived clean.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterator

from .frames import Frame
from .kernel import FRAME_DELIVERY, Kernel, SEC


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
        if not 0 <= self.range_m < math.inf:
            raise ValueError(f"range_m must be finite and >= 0, got {self.range_m}")
        if not 0 < self.propagation_mps < math.inf:
            raise ValueError(f"propagation_mps must be finite and > 0, got {self.propagation_mps}")
        if not math.isfinite(self.range_m * SEC / self.propagation_mps):
            raise ValueError(f"range_m={self.range_m} at propagation_mps={self.propagation_mps} "
                             "gives a non-finite propagation delay")
        if self.preamble_ns < 0 or self.cca_detect_ns < 0:
            raise ValueError("preamble_ns and cca_detect_ns must be >= 0")

    def prop_delay(self, dist: float) -> int:
        """Propagation delay in ns over dist metres, rounded up."""
        return math.ceil(dist * SEC / self.propagation_mps)

    @property
    def max_delay(self) -> int:
        """The longest propagation delay between two vehicles in range."""
        return self.prop_delay(self.range_m)


def tx_duration(size_bytes: int, cfg: RadioConfig) -> int:
    """On-air time in ns: preamble plus payload bits at the configured rate."""
    if size_bytes < 0:
        raise ValueError("negative frame size")
    return cfg.preamble_ns + -(-size_bytes * 8 * SEC // cfg.data_rate_bps)


class Medium:
    """Broadcast channel shared by all registered vehicles.

    Vehicle v is bit v of every mask, so a mask names its vehicles without
    the registration order. Ids must be >= 0; a run numbers its vehicles from
    0, so no mask is wider than the vehicle count. Each vehicle has one mask
    of the other vehicles it hears: the receivers mask of its broadcasts. Its
    range mask, the same with its own bit, is ORed together where it is read.
    `broadcast` stamps a frame with its time on air and its two masks and
    logs the frame itself. It pairs the new frame with every frame still on
    air, read from the tail of the log back to the first one that started
    more than the longest airtime ago, and ORs each sender's range mask into
    the other's interferer mask (`Frame.hit`), so who collides where is
    recorded once per overlapping pair. The mask is final once the clock
    reaches the frame's end, and every reader reads it then or later: a
    delivery at arrival, `clean_receptions` and `last_clean_arrival` for
    arrivals before now, and the logged collided flag after the run. A
    listener heard a frame clean iff its bit is in the receivers mask and not
    in the interferer mask, and the frame arrived before now: an arrival at
    now is not yet heard. The log is also the only count of a sender's
    frames: a CSMA MAC's frames sent are its frames there, and those that
    ended by the run end are its frames transmitted.

    A `handler(frame)` registered per vehicle gets, at the arrival time, each
    frame that `deliver` was asked for and that reached the vehicle clean; a
    collided reception raises its event but is not handed over (no partial
    decode). The medium hands handlers nothing else. A handler is a bound
    method, and the medium holds its object weakly (a `weakref.ref` beside the
    method's function), so it keeps no controller alive and a controller's
    reference to the medium makes no cycle; whoever registers the handler
    keeps its object alive while frames can reach it. `handlers` keeps one
    key per vehicle registered with a handler.
    """

    def __init__(self, kernel: Kernel, cfg: RadioConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.positions: dict[int, Position] = {}
        # vid -> (weak reference to the handler's object, its function)
        self.handlers: dict[int, tuple[weakref.ref, Callable[[Any, Frame], None]]] = {}
        self.log: list[Frame] = []                  # every broadcast frame, by start
        self._sent: dict[int, list[Frame]] = {}     # per sender, by start
        # vid -> {vid in range: propagation delay ns}, in registration order;
        # every vehicle hears itself first, with delay 0
        self._hears: dict[int, dict[int, int]] = {}
        # vid -> mask of the other vehicles it hears, the receivers of its
        # broadcasts; every frame a sender broadcasts between two
        # registrations shares one int
        self._receivers: dict[int, int] = {}
        self._sense_slack = cfg.max_delay
        self._cca_detect = cfg.cca_detect_ns
        self._max_dur = 0
        # frame size -> tx_duration, filled by `airtime`; a hot path may read
        # it first and call `airtime` on a miss
        self.airtimes: dict[int, int] = {}

    def airtime(self, size: int) -> int:
        """`tx_duration` of a frame of `size` bytes, computed once per size.

        The medium's RadioConfig must not change after the medium is built:
        airtimes, the sensing slack and cca_detect_ns are read from it once.
        """
        dur = self.airtimes.get(size)
        if dur is None:
            dur = self.airtimes[size] = tx_duration(size, self.cfg)
        return dur

    def register(self, vid: int, pos: Position,
                 handler: Callable[[Frame], None] | None = None) -> None:
        if vid in self.positions:
            raise ValueError(f"vehicle {vid} already registered")
        if vid < 0:
            raise ValueError(f"vehicle id must be >= 0, got {vid}")
        bit = 1 << vid
        hears = {vid: 0}
        receivers = 0
        cfg = self.cfg
        range_m = cfg.range_m
        for other, other_pos in self.positions.items():
            dist = pos.distance(other_pos)
            if dist <= range_m:
                hears[other] = self._hears[other][vid] = cfg.prop_delay(dist)
                receivers |= 1 << other
                self._receivers[other] |= bit
        self._hears[vid] = hears
        self._receivers[vid] = receivers
        self._sent[vid] = []
        self.positions[vid] = pos
        if handler is not None:
            self.handlers[vid] = (weakref.ref(handler.__self__), handler.__func__)

    # -- transmission ------------------------------------------------------

    def broadcast(self, frame: Frame, start: int | None = None) -> Frame:
        """Put frame on air from its sender at start, now by default; log it and return it.

        A start may lie ahead of now, for a sender that knows nothing else
        acts before it, but not before now or before the last logged start:
        the log stays sorted by start.
        """
        sender, now, log = frame.sender, self.kernel.now, self.log
        if start is None:
            start = now
        sent = self._sent.get(sender)
        if sent is None:
            raise ValueError(f"sender {sender} not registered")
        if frame.end is not None:
            raise ValueError(f"frame already broadcast at {frame.start} ns")
        if start < now or log and start < log[-1].start:
            raise ValueError(f"cannot broadcast at {start} ns, before " + (
                f"now={now} ns" if start < now else f"the last logged start, {log[-1].start} ns"))
        if sent and start < sent[-1].end:
            raise RuntimeError(
                f"vehicle {sender} is already transmitting at {start} ns; "
                "MAC layers must serialize their own transmissions"
            )
        dur = self.airtimes.get(frame.size) or self.airtime(frame.size)
        end = start + dur
        receivers = self._receivers
        # the sender's range mask: a sender hears itself (half-duplex)
        mask, hit = receivers[sender] | 1 << sender, 0
        # Every logged frame started at or before `start`, so the half-open
        # intervals overlap iff it ends after `start` and starts before `end`;
        # a zero-length frame overlaps nothing that starts with it. A frame
        # that started more than the longest airtime ago has ended, and so
        # has every frame logged before it: the scan stops there.
        floor = start - self._max_dur
        for other in reversed(log):
            if other.start < floor:
                break
            if other.end > start and other.start < end:
                hit |= receivers[other.sender] | 1 << other.sender
                other.hit |= mask
        frame.start, frame.end = start, end
        frame.receivers, frame.hit = receivers[sender], hit
        log.append(frame)
        sent.append(frame)
        if dur > self._max_dur:
            self._max_dur = dur
        return frame

    def deliver(self, frame: Frame) -> None:
        """Hand a frame broadcast now to its receivers' handlers at their arrival times.

        One event per receiver that has a handler, in registration order; at
        the arrival the handler gets the frame iff it arrived clean there.
        Called in the event that broadcast the frame, so the vehicles its
        sender hears are its receivers.
        """
        end, handlers = frame.end, self.handlers
        for vid, delay in islice(self._hears[frame.sender].items(), 1, None):
            if vid in handlers:
                self.kernel.at(end + delay, vid, FRAME_DELIVERY, self._deliver, (frame, vid))

    def _deliver(self, payload: tuple[Frame, int]) -> None:
        frame, vid = payload
        if not frame.hit >> vid & 1:
            owner, fn = self.handlers[vid]
            fn(owner(), frame)

    # -- reading receptions from the log ---------------------------------------

    def clean_receptions(self, listener: int, frames: list[Frame]) -> Iterator[Frame]:
        """The logged `frames` that listener heard clean before now, in their order.

        Lazy: each frame is read when the generator reaches it, so a reader
        that stops at the first frame reads no further. "Now" is the clock at
        the call. A vehicle never receives its own frames.
        """
        hears = self._hears.get(listener, {})
        bit, now = 1 << listener, self.kernel.now
        return (f for f in frames if f.receivers & bit and not f.hit & bit
                and f.end + hears[f.sender] < now)

    def last_clean_arrival(self, listener: int, sender: int, after: int) -> int | None:
        """Latest arrival in (after, now) of a clean reception of sender's frames.

        None if there is no such reception, as for the sender itself: its bit
        is never in its own receivers mask.
        """
        delay = self._hears.get(sender, {}).get(listener)
        if delay is None:
            return None
        bit, now = 1 << listener, self.kernel.now
        for tx in reversed(self._sent[sender]):
            arrival = tx.end + delay
            if arrival <= after:
                break
            if tx.receivers & bit and not tx.hit & bit and arrival < now:
                return arrival
        return None

    # -- carrier sense -------------------------------------------------------

    def idle_from(self, listener: int, at: int) -> int:
        """The first instant at or after `at` at which the listener senses the
        channel idle, given the frames logged so far; `at` if it is idle there.

        The channel is busy at the listener at `at` iff this lies after `at`.

        The listener senses the frames of every vehicle it hears, its own
        included, over [start + delay + cca_detect_ns, end + delay), so two
        nodes committing within one detection latency will overlap. A frame
        is never sensed at the instant it starts, even with no delay and no
        detection latency: two decisions at one instant cannot see each
        other, whichever of them the kernel dispatches first. A busy spell
        lasts through every logged frame that becomes sensed before the spell
        ends, one not yet detected at `at` among them, so the answer is the
        first instant that no sensed interval covers. The log is read
        backwards from its end and the scan stops at the first entry that
        started more than the longest airtime and delay before `at`:
        everything logged before it ended, at every listener, by `at`. During
        a run, when `at` is now, that reads only the frames that may still be
        on air; a read at a past `at` also reads the later entries.
        """
        hears, detect = self._hears[listener], self._cca_detect
        floor = at - self._max_dur - self._sense_slack
        # the frames sensed at `at` cover [at, horizon) together; a frame not
        # yet sensed there waits in `pending` for the spell to reach it
        horizon, pending = at, []
        for tx in reversed(self.log):
            start = tx.start
            if start < floor:
                break
            delay = hears.get(tx.sender)
            if delay is not None:
                until = tx.end + delay
                if until > horizon:
                    # sensed from start + delay + detect, never at start itself
                    since = start + (delay + detect or 1)
                    if since <= at:
                        horizon = until
                    else:
                        pending.append((since, until))
        if pending:
            for since, until in sorted(pending):
                if since > horizon:
                    break
                if until > horizon:
                    horizon = until
        return horizon
