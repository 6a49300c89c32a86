"""An independent carrier-sense oracle: listen before talk, checked from the log.

A frame that its protocol sends after sensing the channel must have started
on a channel that its sender sensed idle. Those frames are every baseline
frame, and in slot-controller mode every announce, every allocation and
every frame that starts in slot 1 (a master's slot-1 burst); data frames in
the members' own slots do not sense.

The rule: no frame may be sensed at a sensed frame's sender at its start.
What a listener senses is one function, `sensed_until`, which the tests of
the medium's own sensing scan read too. A frame g is sensed at vehicle v at
time t iff g's sender is v or lies within `range_m` of v, g started before
t, and g.start + delay + cca_detect_ns <= t < g.end + delay, with delay the
propagation delay over their distance (0 for v's own frames). A frame that
starts at t is not sensed at t, so the order of the log's same-instant
records plays no part.

Like the overlap oracle, it works from (kind, sender, start, end) records,
the vehicle positions and the `RadioConfig` alone, never from the medium's
neighbour table or its sensing scan.
"""

from __future__ import annotations

from platoonsim.frames import DATA
from platoonsim.radio import Position, RadioConfig
from platoonsim.scenario import MODE_TSNCTL
from platoonsim.tsnctl import WindowConfig


def log_records(run) -> list[tuple]:
    """A run's (kind, sender, start, end) records, in log order."""
    return [(tx.kind, tx.sender, tx.start, tx.end) for tx in run.medium.log]


def sensed_until(start: int, end: int, dist: float, radio: RadioConfig, t: int) -> int | None:
    """When a listener `dist` metres from the sender of a frame on air over
    [start, end) stops sensing it, if it senses the frame at t; else None."""
    if dist > radio.range_m:
        return None
    delay = radio.prop_delay(dist)
    if start < t and start + delay + radio.cca_detect_ns <= t < end + delay:
        return end + delay
    return None


def sensed_busy(records: list[tuple], positions: dict[int, Position], radio: RadioConfig,
                window: WindowConfig | None = None) -> list[int]:
    """Indices of the sensed records whose sender sensed an earlier record at their start.

    `window` is the slot controller's window geometry, or None for the CSMA
    baseline, where every frame is sensed. The records must be in start
    order, as a log in broadcast order is.
    """
    starts = [start for _, _, start, _ in records]
    if starts != sorted(starts):
        raise ValueError("the records are not in start order")
    # a record that started `span` or more before t has ended at every listener by t
    span = max((end - start for _, _, start, end in records), default=0) + radio.max_delay
    flagged, first = [], 0
    for i, (kind, sender, t, _) in enumerate(records):
        if window is not None and kind is DATA \
                and t % window.window_ns // window.slot_len_ns != 1:
            continue                    # a data frame outside slot 1 does not sense
        while first < i and records[first][2] + span <= t:
            first += 1
        here = positions[sender]
        for _, other, start, end in records[first:i]:
            if sensed_until(start, end, here.distance(positions[other]), radio, t) is not None:
                flagged.append(i)
                break
    return flagged


def run_sensed_busy(run) -> list[int]:
    """`sensed_busy` over a run's log, with its config's positions, radio and mode."""
    cfg = run.cfg
    positions = {spec.vid: spec.position for spec in run.specs}
    window = cfg.window if cfg.mode == MODE_TSNCTL else None
    return sensed_busy(log_records(run), positions, cfg.radio, window)
