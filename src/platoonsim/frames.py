"""Frame model: frame kinds, priority classes and control frame sizes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class FrameKind(IntEnum):
    CONTROL_ANNOUNCE = 1
    CONTROL_ALLOCATION = 2
    DATA = 3


# The members, bound once for the per-frame paths (see `kernel.EventKind`).
CONTROL_ANNOUNCE, CONTROL_ALLOCATION, DATA = FrameKind


# Priority classes; index 0 is the highest (safety traffic).
PRIO_SAFETY = 0

# Default control frame sizes in bytes. An announce is a fixed 100 B; an
# allocation grows 8 B per listed member on top of the same 100 B base.
ANNOUNCE_SIZE = 100
ALLOCATION_BASE_SIZE = 100
ALLOCATION_PER_MEMBER = 8


def allocation_size(member_count: int) -> int:
    return ALLOCATION_BASE_SIZE + ALLOCATION_PER_MEMBER * member_count


@dataclass(slots=True)
class Frame:
    """One message; `size` drives on-air duration.

    `Medium.broadcast` fills the last four fields, once: a frame on air is
    its own record in the medium's log.
    """

    kind: FrameKind
    sender: int
    size: int
    generated_at: int
    priority: int = PRIO_SAFETY
    seq: int = 0
    # Allocation payload: vehicle id -> its data slot index.
    allocations: dict[int, int] | None = None
    # on air over [start, end); None until broadcast
    start: int | None = None
    end: int | None = None
    # bitmask of the vehicles in range of the sender at broadcast, the sender
    # excluded: the receivers. A snapshot; later registrations do not join it.
    receivers: int = 0
    # bitmask of the vehicles in range of the sender of an overlapping
    # frame, that sender included (half-duplex): a reception collides
    # exactly there. Filled at broadcast, pair by pair; final at end.
    hit: int = 0


def make_announce(sender: int, generated_at: int) -> Frame:
    return Frame(
        kind=CONTROL_ANNOUNCE,
        sender=sender,
        size=ANNOUNCE_SIZE,
        generated_at=generated_at,
    )


def make_allocation(sender: int, generated_at: int,
                    allocations: dict[int, int]) -> Frame:
    return Frame(
        kind=CONTROL_ALLOCATION,
        sender=sender,
        size=allocation_size(len(allocations)),
        generated_at=generated_at,
        allocations=dict(allocations),
    )
