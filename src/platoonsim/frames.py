"""Frame model and the fixed-layout binary wire format for control frames."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum


class FrameKind(IntEnum):
    CONTROL_ANNOUNCE = 1
    CONTROL_ALLOCATION = 2
    DATA = 3

    @property
    def label(self) -> str:
        return _KIND_LABELS[self]


_KIND_LABELS = {
    FrameKind.CONTROL_ANNOUNCE: "control-announce",
    FrameKind.CONTROL_ALLOCATION: "control-allocation",
    FrameKind.DATA: "data",
}
KIND_BY_LABEL = {v: k for k, v in _KIND_LABELS.items()}


class NodeType(IntEnum):
    CAR = 0
    EMERGENCY = 1


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
    """One transmitted message; `size` drives on-air duration."""

    kind: FrameKind
    sender: int
    size: int
    generated_at: int
    priority: int = PRIO_SAFETY
    seq: int = 0
    slots_requested: int = 1
    node_type: NodeType = NodeType.CAR
    # Allocation payload: mapping vehicle id -> (first slot index, slot count).
    allocations: dict[int, tuple[int, int]] | None = None


# Wire layout (control frames), all integers big-endian:
#   kind: u8 | sender: u32 | generated_at: u64 (ns) | slots_requested: u8 |
#   node_type: u8 | [member_count: u16 | (vehicle: u32, first_slot: u16,
#   slot_count: u16) per member] | zero padding to the declared frame size.
_HEADER = struct.Struct(">BIQBB")
_MEMBER = struct.Struct(">IHH")
_COUNT = struct.Struct(">H")


def encode_control(frame: Frame) -> bytes:
    if frame.kind is FrameKind.DATA:
        raise ValueError("data frames have no control wire format")
    buf = bytearray(
        _HEADER.pack(frame.kind, frame.sender, frame.generated_at,
                     frame.slots_requested, frame.node_type)
    )
    if frame.kind is FrameKind.CONTROL_ALLOCATION:
        members = frame.allocations or {}
        buf += _COUNT.pack(len(members))
        for vid in sorted(members):
            first, count = members[vid]
            buf += _MEMBER.pack(vid, first, count)
    if len(buf) > frame.size:
        raise ValueError(
            f"control payload ({len(buf)} B) exceeds declared frame size ({frame.size} B)"
        )
    buf += b"\x00" * (frame.size - len(buf))
    return bytes(buf)


def decode_control(data: bytes) -> Frame:
    if len(data) < _HEADER.size:
        raise ValueError("control frame too short")
    kind_raw, sender, generated_at, slots_requested, node_type = _HEADER.unpack_from(data)
    kind = FrameKind(kind_raw)
    allocations = None
    if kind is FrameKind.CONTROL_ALLOCATION:
        (count,) = _COUNT.unpack_from(data, _HEADER.size)
        allocations = {}
        off = _HEADER.size + _COUNT.size
        for _ in range(count):
            vid, first, slot_count = _MEMBER.unpack_from(data, off)
            allocations[vid] = (first, slot_count)
            off += _MEMBER.size
    elif kind is not FrameKind.CONTROL_ANNOUNCE:
        raise ValueError(f"not a control frame kind: {kind_raw}")
    return Frame(
        kind=kind,
        sender=sender,
        size=len(data),
        generated_at=generated_at,
        slots_requested=slots_requested,
        node_type=NodeType(node_type),
        allocations=allocations,
    )


def make_announce(sender: int, generated_at: int, slots_requested: int = 1,
                  node_type: NodeType = NodeType.CAR, size: int = ANNOUNCE_SIZE) -> Frame:
    return Frame(
        kind=FrameKind.CONTROL_ANNOUNCE,
        sender=sender,
        size=size,
        generated_at=generated_at,
        slots_requested=slots_requested,
        node_type=node_type,
    )


def make_allocation(sender: int, generated_at: int,
                    allocations: dict[int, tuple[int, int]]) -> Frame:
    return Frame(
        kind=FrameKind.CONTROL_ALLOCATION,
        sender=sender,
        size=allocation_size(len(allocations)),
        generated_at=generated_at,
        allocations=dict(allocations),
    )
