"""The equivalence sweep finds no difference between a tree and itself, and
names the first field where a changed copy differs."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("equivalence", ROOT / "tools" / "equivalence.py")
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def test_a_tree_matches_itself():
    summary, fault = equivalence.sweep(SRC, SRC, "baseline", 2, 1)
    assert fault is None
    assert summary["differences"] == 0 and summary["first_difference"] is None
    assert summary["oracle_faults"] == {"base": 0, "head": 0}
    assert summary["transmissions"]["head"] > 0


def test_a_changed_copy_is_named_at_its_first_differing_field(tmp_path):
    shutil.copytree(SRC / "platoonsim", tmp_path / "platoonsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    frames = tmp_path / "platoonsim" / "frames.py"
    text = frames.read_text(encoding="utf-8")
    assert "ANNOUNCE_SIZE = 100\n" in text
    frames.write_text(text.replace("ANNOUNCE_SIZE = 100\n", "ANNOUNCE_SIZE = 101\n"),
                      encoding="utf-8")
    summary, fault = equivalence.sweep(tmp_path, SRC, "tsnctl", 2, 1)
    assert summary["differences"] == 2
    assert summary["first_difference"]["config"] == 0
    assert summary["first_difference"]["field"] == "log_sha256"
    assert fault.startswith("config 0 ") and "'log_sha256'" in fault
