"""Shared test helpers: scripted randomness, hand-assembled platoon scenarios and
a reference election."""

from __future__ import annotations

from platoonsim.kernel import EventKind, Kernel, MS
from platoonsim.radio import Medium, Position, RadioConfig
from platoonsim.tsnctl import TsnCtl, WindowClock, WindowConfig, election_key


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


def assemble_platoon(spawn_times: dict[int, int], offsets: dict[int, int],
                     *, slot_ms: int = 2, window_ms: int = 100, run_ms: int = 600,
                     positions: dict[int, Position] | None = None,
                     radio: RadioConfig | None = None,
                     ) -> tuple[Kernel, Medium, dict[int, TsnCtl]]:
    """Build controllers with fixed spawn times and constant announce offsets."""
    kernel = Kernel()
    medium = Medium(kernel, radio or RadioConfig())
    clock = WindowClock(kernel, medium,
                        WindowConfig(window_ns=window_ms * MS, slot_len_ns=slot_ms * MS))
    ctls: dict[int, TsnCtl] = {}

    def spawn(vid: int) -> None:
        ctl = TsnCtl(vid, clock, ConstRng(offsets[vid]))
        ctls[vid] = ctl
        pos = (positions or {}).get(vid, Position(float(vid), 0.0))
        medium.register(vid, pos, handler=ctl.on_frame_delivery)

    for vid, at in spawn_times.items():
        kernel.at(at, vid, EventKind.SPAWN, spawn, vid)
    kernel.run_until(run_ms * MS)
    return kernel, medium, ctls
