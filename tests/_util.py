"""Shared test helpers: a data frame, scripted randomness, a scripted message
source, hand-assembled platoon scenarios, a reference election, a frame's
collision counts and reception outcomes read from its two masks, and
`run_digest`, the one digest of what a run decided.

`run_digest` is what the golden grid (`test_golden.py`) pins, what the kernel
shuffle (`_shuffle.py`) compares across dispatch orders and what
`tools/equivalence.py` compares across two source trees: the written log,
every logged frame with the message it carries, a one-repetition
`results.csv` under each counting rule, and each controller's and MAC's
counters, including the facts a run keeps no counter for (join retries,
frames transmitted, each FSM record's line).

Every MAC and controller reads its messages from a source, as in a run. A
test that does not build a `scenario.ItsService` scripts the messages it
needs, down to none, in a `ScriptedSource`."""

from __future__ import annotations

import hashlib
import tempfile
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

from platoonsim.csma import CsmaMac
from platoonsim.frames import Frame, FrameKind
from platoonsim.kernel import EventKind, Kernel, MS
from platoonsim.metrics import ExperimentResult, collect_stats, emit_csv, write_transmission_log
from platoonsim.radio import Medium, Position, RadioConfig
from platoonsim.scenario import COUNTING_RULES
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
    """One (before, event, outcome, after) FSM record as `run_digest` hashes it."""
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


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _record(**counts) -> str:
    return " ".join(f"{name}={value}" for name, value in counts.items())


def run_digest(run) -> dict:
    """Every output field of a run, in a fixed order.

    - `log_sha256`: the sha256 of the written transmission log, whose
      same-instant records follow the dispatch order of same-instant events;
    - `transmissions` and `collided`: the logged frames, and those that
      collided at a receiver;
    - `frames`: one sha256 over the logged frames in sorted order, each with
      its sender, start, end, size, kind, the `seq` and `generated_at` of the
      message it carries, and its receivers and hit masks;
    - `results.csv by <rule>`: the sha256 of a one-repetition `results.csv`
      under each rule of `scenario.COUNTING_RULES`;
    - `controller <vid>` and `mac <vid>`: one record of each one's counters,
      messages taken (its source's `seq`), frames transmitted (its frames
      that ended by the run end), frames queued at the end and, for a
      controller, join retries and the sha256 of its FSM record lines.
    """
    log, end = run.medium.log, run.cfg.sim_duration_ns
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write_transmission_log(run, path)
        fields = {
            "log_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "transmissions": len(log),
            "collided": sum(receivers_collided(tx) > 0 for tx in log),
            "frames": _sha256(sorted(
                f"{tx.sender} {tx.start} {tx.end} {tx.size} {tx.kind.name} {tx.seq} "
                f"{tx.generated_at} {tx.receivers} {tx.hit}" for tx in log)),
        }
        for rule in COUNTING_RULES:
            cfg = replace(run.cfg, counting=rule)
            emit_csv(ExperimentResult.from_stats(cfg, [collect_stats(replace(run, cfg=cfg))]),
                     path)
            fields[f"results.csv by {rule}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    transmitted = Counter(tx.sender for tx in log if tx.end <= end)
    for vid, ctl in sorted(run.controllers.items()):
        fields[f"controller {vid}"] = _record(
            deferred=ctl.deferred, rejected_joins=ctl.rejected_joins,
            join_retries=join_retries(ctl), announce_skips=ctl.announce_skips,
            taken=ctl.source.seq, transmitted=transmitted[vid], queued=len(ctl.queues),
            fsm=_sha256(map(fsm_record_line, ctl.transitions)))
    for vid, mac in sorted(run.macs.items()):
        fields[f"mac {vid}"] = _record(
            deferrals=mac.deferrals, taken=mac.source.seq, transmitted=transmitted[vid],
            queued=len(mac.queue))
    return fields
