import pytest
from _util import ScriptedRng

from platoonsim.csma import CsmaConfig, CsmaMac
from platoonsim.frames import Frame, FrameKind
from platoonsim.kernel import Kernel, MS, US, RngStreams
from platoonsim.metrics import brute_force_outcomes
from platoonsim.radio import Medium, Position, RadioConfig


def _data(sender, size=800, seq=0):
    return Frame(kind=FrameKind.DATA, sender=sender, size=size, generated_at=0, seq=seq)


def _setup(n=2, cw=4, backoff_us=100, gap_m=30.0):
    kernel = Kernel()
    medium = Medium(kernel, RadioConfig(range_m=300.0))
    cfg = CsmaConfig(cw_slots=cw, backoff_slot_ns=backoff_us * US)
    macs = {}
    for vid in range(n):
        medium.register(vid, Position(vid * gap_m, 0.0))
        macs[vid] = CsmaMac(vid, kernel, medium, cfg, RngStreams(77).stream(vid))
    return kernel, medium, macs


def test_idle_medium_transmits_at_submit_time():
    kernel, medium, macs = _setup()
    kernel.run_until(3 * MS)
    macs[0].submit(_data(0))
    assert medium.log[-1].start == 3 * MS


def test_busy_medium_defers_to_idle_edge_plus_backoff():
    kernel, medium, macs = _setup()
    macs[0].submit(_data(0))                     # occupies [0, 1_066_667)
    kernel.run_until(200 * US)
    k = 3
    macs[1].rng = ScriptedRng([k])
    macs[1].submit(_data(1))
    kernel.run_until(20 * MS)
    tx = medium.log[1]
    # sensed idle edge is the frame end plus propagation to the listener
    t1 = medium.log[0].end + medium.cfg.prop_delay(30.0)
    assert tx.start == t1 + k * 100 * US


def test_backoff_draw_stays_inside_contention_window():
    kernel, medium, macs = _setup(cw=4, backoff_us=100)
    macs[0].submit(_data(0))
    kernel.run_until(200 * US)
    macs[1].submit(_data(1))
    kernel.run_until(20 * MS)
    t1 = medium.log[0].end + medium.cfg.prop_delay(30.0)
    offset = medium.log[1].start - t1
    assert offset % (100 * US) == 0
    assert 0 <= offset // (100 * US) < 4


def test_busy_again_at_expiry_draws_fresh_backoff_without_doubling():
    kernel, medium, macs = _setup(n=3, cw=4, backoff_us=100)
    macs[0].submit(_data(0))                       # busy until ~1.07 ms
    kernel.run_until(200 * US)
    macs[1].rng = ScriptedRng([3, 1])              # first draw 3, fresh draw 1
    macs[1].submit(_data(1))
    # vehicle 2 grabs the channel inside vehicle 1's backoff gap
    first_end = medium.log[0].end + medium.cfg.prop_delay(60.0)
    kernel.run_until(first_end + 50 * US)
    macs[2].submit(_data(2))
    kernel.run_until(30 * MS)
    tx1 = next(tx for tx in medium.log if tx.sender == 1)
    tx2 = next(tx for tx in medium.log if tx.sender == 2)
    # fresh draw of 1 slot from vehicle 2's sensed idle edge, not 2*cw anything
    t1 = tx2.end + medium.cfg.prop_delay(30.0)
    assert tx1.start == t1 + 1 * 100 * US


def test_fifo_order_preserved():
    kernel, medium, macs = _setup()
    for seq in range(3):
        macs[0].submit(_data(0, seq=seq))
    kernel.run_until(50 * MS)
    sent = [tx.frame.seq for tx in medium.log if tx.sender == 0]
    assert sent == [0, 1, 2]


def test_every_submitted_frame_transmitted_exactly_once():
    kernel, medium, macs = _setup(n=4)
    for vid, mac in macs.items():
        for seq in range(5):
            mac.submit(_data(vid, seq=seq))
    kernel.run_until(200 * MS)
    for vid, mac in macs.items():
        assert mac.frames_submitted == mac.frames_transmitted == 5
        own = [tx for tx in medium.log if tx.sender == vid]
        assert len(own) == 5


def test_own_transmissions_never_overlap():
    kernel, medium, macs = _setup(n=3)
    for vid, mac in macs.items():
        for seq in range(6):
            mac.submit(_data(vid, seq=seq))
    kernel.run_until(200 * MS)
    for vid in macs:
        own = sorted((tx.start, tx.end) for tx in medium.log if tx.sender == vid)
        for (s1, e1), (s2, e2) in zip(own, own[1:]):
            assert e1 <= s2


def test_simultaneous_submits_both_transmit_and_collide():
    kernel, medium, macs = _setup(n=3)
    macs[0].submit(_data(0))
    macs[1].submit(_data(1))       # same instant, idle medium
    kernel.run_until(20 * MS)
    assert len(medium.log) == 2
    assert medium.log[0].start == medium.log[1].start == 0
    # confirmed against the independent pairwise-overlap oracle
    records = [(tx.sender, tx.start, tx.end) for tx in medium.log]
    positions = {0: Position(0.0, 0.0), 1: Position(30.0, 0.0), 2: Position(60.0, 0.0)}
    want = brute_force_outcomes(records, positions, 300.0)
    for tx, expected in zip(medium.log, want):
        assert medium.outcomes(tx) == expected  # in particular both collided at vehicle 2
        assert expected[2] is True


def test_config_validation():
    with pytest.raises(ValueError):
        CsmaConfig(cw_slots=0).validate()
    with pytest.raises(ValueError):
        CsmaConfig(backoff_slot_ns=0).validate()
