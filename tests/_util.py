"""Shared test helpers: a data frame, scripted randomness, a scripted message
source, hand-assembled platoon scenarios, a reference election, and the one
copy, which `tools/equivalence.py` reads too, of the facts a run keeps no
counter for: join retries, frames transmitted, an FSM record's line, and a
frame's collision counts and reception outcomes, read from its two masks.

Every MAC and controller reads its messages from a source, as in a run. A
test that does not build a `scenario.ItsService` scripts the messages it
needs, down to none, in a `ScriptedSource`."""

from __future__ import annotations

from collections import deque

from platoonsim.csma import CsmaMac
from platoonsim.frames import Frame, FrameKind
from platoonsim.kernel import EventKind, Kernel, MS
from platoonsim.radio import Medium, Position, RadioConfig
from platoonsim.tsnctl import (JOINING, WINDOW_START, TsnCtl, WindowClock, WindowConfig,
                               election_key)


def data_frame(sender: int, size: int = 800, seq: int = 0) -> Frame:
    """A data frame of `size` bytes generated at time zero."""
    return Frame(kind=FrameKind.DATA, sender=sender, size=size, generated_at=0, seq=seq)


def elect_master(candidates: dict[int, int]) -> int:
    """The reference election over vid -> announce timestamp: the earliest
    timestamp wins, ties to the lowest id."""
    if not candidates:
        raise ValueError("election requires at least one candidate")
    return min(candidates, key=lambda vid: election_key(candidates[vid], vid))


class ConstRng:
    """Stands in for a `kernel.Pcg64` stream; every draw returns a clamped constant."""

    def __init__(self, value: int):
        self.value = value

    def integers(self, lo: int, hi: int, endpoint: bool = False) -> int:
        top = hi if endpoint else hi - 1
        return min(max(self.value, lo), top)


class ScriptedRng:
    """Returns a scripted sequence of draws, clamped into each requested range."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, lo: int, hi: int, endpoint: bool = False) -> int:
        top = hi if endpoint else hi - 1
        v = self.values.pop(0) if self.values else lo
        return min(max(v, lo), top)


class ScriptedSource:
    """Stands in for a `scenario.ItsService`: it hands out scripted frames at scripted due times.

    `script` lists (due time, frame) pairs in due order. `end` is the run end,
    as an `ItsService` holds it: a controller takes no burst step after it,
    and a MAC's frames that end by then count as transmitted.
    """

    def __init__(self, script=(), *, end: int):
        self._script = deque(script)
        dues = [due for due, _ in self._script]
        if dues != sorted(dues):
            raise ValueError("the script must be in due order")
        self.end = end
        self.seq = 0        # messages taken
        # due time of the next message; None once all are taken
        self.next_due: int | None = dues[0] if dues else None

    def take(self) -> Frame:
        """The next scripted frame; its due time has been reached."""
        _, frame = self._script.popleft()
        self.seq += 1
        self.next_due = self._script[0][0] if self._script else None
        return frame


def assemble_platoon(spawn_times: dict[int, int], offsets: dict[int, int],
                     *, slot_ms: int = 2, window_ms: int = 100, run_ms: int = 600,
                     positions: dict[int, Position] | None = None,
                     radio: RadioConfig | None = None,
                     sources: dict | None = None,
                     ) -> tuple[Kernel, Medium, dict[int, TsnCtl]]:
    """Build controllers with fixed spawn times and constant announce offsets.

    Each reads its messages from `sources[vid]`, by default a source with no messages.
    """
    kernel = Kernel()
    medium = Medium(kernel, radio or RadioConfig())
    clock = WindowClock(kernel, medium,
                        WindowConfig(window_ns=window_ms * MS, slot_len_ns=slot_ms * MS))
    ctls: dict[int, TsnCtl] = {}

    def spawn(vid: int) -> None:
        source = (sources or {}).get(vid) or ScriptedSource(end=run_ms * MS)
        ctl = TsnCtl(vid, clock, ConstRng(offsets[vid]), source=source)
        ctls[vid] = ctl
        pos = (positions or {}).get(vid, Position(float(vid), 0.0))
        medium.register(vid, pos, handler=ctl.on_frame_delivery)

    for vid, at in spawn_times.items():
        kernel.at(at, vid, EventKind.SPAWN, spawn, vid)
    kernel.run_until(run_ms * MS)
    return kernel, medium, ctls


def frames_transmitted(mac: CsmaMac) -> int:
    """A CSMA MAC's frames that ended by its run end, read from the medium's log."""
    vid, end = mac.vid, mac.source.end
    return sum(tx.sender == vid and tx.end <= end for tx in mac.medium.log)


def join_retries(ctl: TsnCtl) -> int:
    """A controller's window starts taken while JOINING, read from its FSM record."""
    return sum(before.status is JOINING and event is WINDOW_START
               for before, event, _, _ in ctl.transitions)


def fsm_record_line(record: tuple) -> str:
    """One (before, event, outcome, after) FSM record as the golden digest hashes it."""
    before, event, outcome, after = record
    return (f"{before.status.name}/{before.role.name} {event.name} {outcome} "
            f"{after.status.name}/{after.role.name}")


def outcomes(frame: Frame) -> dict[int, bool]:
    """Collided flag per receiver of a broadcast frame, by vehicle id.

    Vehicle v is bit v of the frame's two masks. The flags are final once the
    kernel clock reaches frame.end.
    """
    receivers, hit = frame.receivers, frame.hit
    return {vid: bool(hit >> vid & 1) for vid in range(receivers.bit_length())
            if receivers >> vid & 1}


def receivers_expected(frame: Frame) -> int:
    """The receivers of a broadcast frame: the vehicles in range at broadcast."""
    return frame.receivers.bit_count()


def receivers_collided(frame: Frame) -> int:
    """The receivers of a broadcast frame at which it collided."""
    return (frame.hit & frame.receivers).bit_count()


def recount(log: list[Frame], rule: str) -> tuple[int, int]:
    """(sent, collided) under a rule of `scenario.COUNTING_RULES`, from each frame's two masks.

    A frame that nobody was in range to receive is left out.
    """
    heard = [tx for tx in log if tx.receivers]
    if rule == "receptions":
        return sum(map(receivers_expected, heard)), sum(map(receivers_collided, heard))
    if rule == "data_frames":
        heard = [tx for tx in heard if tx.kind is FrameKind.DATA]
    return len(heard), sum(receivers_collided(tx) > 0 for tx in heard)
