from platoonsim.frames import (
    ALLOCATION_BASE_SIZE,
    ANNOUNCE_SIZE,
    allocation_size,
    make_allocation,
    make_announce,
)


def test_control_frame_sizes():
    assert make_announce(sender=7, generated_at=0).size == ANNOUNCE_SIZE
    frame = make_allocation(sender=3, generated_at=42,
                            allocations={3: 2, 5: 3, 9: 4})
    assert frame.size == allocation_size(3) == ALLOCATION_BASE_SIZE + 24
