"""The equivalence sweep finds no difference between a tree and itself, and
names the first field where a changed copy differs, a queue that sends its
messages out of order among them; with `--expect-diff` it reports what moved
and fails only on a run check's fault or an error that the sides do not
share. Each run check has a broken tree that fails the sweep in both modes;
the replay's passes the carrier-sense oracle."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest
from _checks import CHECKS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("equivalence", ROOT / "tools" / "equivalence.py")
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def test_a_tree_matches_itself():
    summary, fault = equivalence.sweep(SRC, SRC, "baseline", 2, 1)
    assert fault is None
    assert summary["differences"] == 0 and summary["first_difference"] is None
    for check in CHECKS:
        assert summary[f"{check}_faults"] == {"base": 0, "head": 0}
    assert summary["transmissions"]["head"] > 0


def _changed_copy(tmp_path, module, old, new):
    """A copy of the package under tmp_path with `old` replaced by `new` in `module`."""
    shutil.copytree(SRC / "platoonsim", tmp_path / "platoonsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "platoonsim" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_a_changed_copy_is_named_at_its_first_differing_field(tmp_path):
    _changed_copy(tmp_path, "frames.py", "ANNOUNCE_SIZE = 100\n", "ANNOUNCE_SIZE = 101\n")
    summary, fault = equivalence.sweep(tmp_path, SRC, "tsnctl", 2, 1)
    assert summary["differences"] == 2
    assert summary["first_difference"]["config"] == 0
    assert summary["first_difference"]["field"] == "log_sha256"
    assert fault.startswith("config 0 ") and "'log_sha256'" in fault


@pytest.mark.parametrize("mode, module, old, new, seed, differences", [
    ("baseline", "csma.py", "self.queue.popleft()", "self.queue.pop()", 3, 1),
    ("tsnctl", "tsnctl.py", "return q.popleft()", "return q.pop()", 1, 2),
], ids=["baseline", "tsnctl"])
def test_a_queue_that_sends_its_newest_message_first_differs_at_its_frames(
        tmp_path, mode, module, old, new, seed, differences):
    # the log shows neither a frame's seq nor its generated_at, so it stays
    # byte-identical; the configs of the draw seed keep queues backlogged
    head = _changed_copy(tmp_path, module, old, new)
    summary, fault = equivalence.sweep(SRC, head, mode, 2, seed)
    assert summary["differences"] == differences
    assert summary["first_difference"]["field"] == "frames"
    assert "first fault at 'frames'" in fault
    assert summary["transmissions"]["base"] == summary["transmissions"]["head"] > 0


def test_expect_diff_reports_what_moved_and_exits_0(tmp_path, capsys):
    base = _changed_copy(tmp_path, "frames.py", "ANNOUNCE_SIZE = 100\n", "ANNOUNCE_SIZE = 101\n")
    code = equivalence.main(["--base", str(base), "--head", str(SRC), "--mode", "tsnctl",
                             "--configs", "2", "--seed", "1", "--expect-diff"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["differences"] == 2
    assert summary["oracle_faults"] == {"base": 0, "head": 0}
    assert summary["errors"] == {"base": 0, "head": 0}
    for side in ("base", "head"):
        assert 0 < summary["collided"][side] <= summary["transmissions"][side]
    assert isinstance(summary["collided_share_change"], float)
    # without the flag the same trees fail at their first difference
    assert equivalence.main(["--base", str(base), "--head", str(SRC), "--mode", "tsnctl",
                             "--configs", "2", "--seed", "1"]) == 1


def test_expect_diff_matches_an_error_both_sides_raise(tmp_path, capsys):
    # every run raises, as for a config that neither tree accepts
    both = _changed_copy(tmp_path, "scenario.py", "    cfg.validate()\n    kernel = Kernel(",
                         "    raise ValueError('refused')\n    kernel = Kernel(")
    code = equivalence.main(["--base", str(both), "--head", str(both), "--mode", "baseline",
                             "--configs", "2", "--seed", "1", "--expect-diff"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["differences"] == 0
    assert summary["errors"] == {"base": 2, "head": 2}
    # an error that only one side raises is a fault
    code = equivalence.main(["--base", str(SRC), "--head", str(both), "--mode", "baseline",
                             "--configs", "2", "--seed", "1", "--expect-diff"])
    assert code == 1
    assert "first fault at 'error'" in capsys.readouterr().err


# for each run check, a source edit that breaks it, and the mode and draw
# seed of a sweep whose configs reach the break
BROKEN = {
    # every sender counts itself among the receivers of its frames
    "oracle": ("baseline", 1, "radio.py", "frame.hit = receivers[sender], hit\n",
               "frame.hit = mask, hit\n"),
    # a listener senses a frame only until it ends at the sender, not until
    # its trailing edge arrives
    "carrier_sense": ("baseline", 1, "radio.py", "until = tx.end + delay\n", "until = tx.end\n"),
    # an announce may start anywhere in slot 0, so it can overrun it
    "window_clock": ("tsnctl", 1, "tsnctl.py", "cfg.slot_len_ns - tx_dur, endpoint=True",
                     "cfg.slot_len_ns, endpoint=True"),
    # a listener senses a frame at the instant it starts, so two co-located
    # MACs with no detection latency that decide at one instant race; both
    # configs of seed 3 put every vehicle at one spot with cca_detect_ns = 0
    "order_free": ("baseline", 3, "radio.py", "start + (delay + detect or 1)",
                   "start + (delay + detect)"),
    # a listener senses a frame without the detection latency, so a MAC
    # defers where it should have sent; it sends only on a channel it senses
    # idle, so the carrier-sense oracle passes it (config 0 of seed 17)
    "replay": ("baseline", 17, "radio.py", "start + (delay + detect or 1)",
               "start + (delay or 1)"),
}

# the checks that a broken tree passes, where that is the point of its row
PASSED = {"replay": ("carrier_sense",)}


def test_every_run_check_has_a_broken_tree():
    assert list(BROKEN) == list(CHECKS)


@pytest.mark.parametrize("check", BROKEN)
def test_a_tree_that_breaks_a_check_fails_the_sweep_in_both_modes(tmp_path, capsys, check):
    """The broken tree on both sides: no difference, and the check's fault
    fails the sweep, on both sides but for `order_free`, which only the head
    side's shuffle reruns."""
    mode, seed, module, old, new = BROKEN[check]
    tree = _changed_copy(tmp_path, module, old, new)
    for flags in ([], ["--expect-diff"]):
        code = equivalence.main(["--base", str(tree), "--head", str(tree), "--mode", mode,
                                 "--configs", "2", "--seed", str(seed), *flags])
        out = capsys.readouterr()
        summary = json.loads(out.out)
        assert code == 1
        assert summary["differences"] == 0
        found = summary[f"{check}_faults"]
        assert found["head"] > 0
        assert found["base"] == (0 if check == "order_free" else found["head"])
        assert f"first fault at '{check}'" in out.err
        for passed in PASSED.get(check, ()):
            assert summary[f"{passed}_faults"] == {"base": 0, "head": 0}
