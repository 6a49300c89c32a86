"""Golden digests: refactors of the simulator must not change one byte of output.

Each grid point runs one seeded scenario and compares the sha256 of its
transmission log, the sha256 of its per-transmission reception accounting and
a few counts against `golden_digests.json`. The grid covers both modes, 1/2/3 ms
slots, two seeds, a 2 s run and a run cut off mid-window (frames in flight).
Each point has two keys: `rec0` hashes the online accounting alone, and `rec1`
appends to each transmission's accounting line its per-receiver outcomes, as
`Medium.outcomes` rebuilds them from the log.

A change that alters output on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from platoonsim.kernel import MS
from platoonsim.metrics import write_transmission_log
from platoonsim.scenario import MODE_BASELINE, MODE_TSNCTL, ScenarioConfig, run_scenario
from platoonsim.tsnctl import WindowConfig

FIXTURE = Path(__file__).with_name("golden_digests.json")

# 2 s ends on a window boundary; the other cut lands 10.54 ms into a window,
# inside the data slots, while frames are still on air
DURATIONS = (2_000_000_000, 1_910_543_210)


def _grid() -> list[tuple[str, str, int, int, int, bool]]:
    points = []
    for mode, slots in ((MODE_TSNCTL, (1, 2, 3)), (MODE_BASELINE, (2,))):
        for slot_ms in slots:
            for seed in (1, 2):
                for duration in DURATIONS:
                    for record in (False, True):
                        key = f"{mode}-{slot_ms}ms-seed{seed}-{duration}ns-rec{int(record)}"
                        points.append((key, mode, slot_ms, seed, duration, record))
    return points


def digest(mode: str, slot_ms: int, seed: int, duration: int, record: bool,
           tmp: Path) -> dict:
    cfg = ScenarioConfig(vehicle_count=20, mode=mode, sim_duration_ns=duration,
                         seed=seed, repetitions=1,
                         window=WindowConfig(slot_len_ns=slot_ms * MS))
    run = run_scenario(cfg, seed)
    log = tmp / "transmissions.log"
    write_transmission_log(run, log)
    accounting = hashlib.sha256()
    for tx in run.medium.log:
        line = f"{tx.receivers_expected} {tx.receivers_done} {tx.receivers_collided}"
        if record:
            outcomes = sorted(run.medium.outcomes(tx).items())
            line += " " + " ".join(f"{r}:{int(c)}" for r, c in outcomes)
        accounting.update(line.encode() + b"\n")
    txs = run.medium.log
    return {
        "log_sha256": hashlib.sha256(log.read_bytes()).hexdigest(),
        "accounting_sha256": accounting.hexdigest(),
        "tx": len(txs),
        "collided": sum(tx.collided for tx in txs),
        "receptions": sum(tx.receivers_expected for tx in txs),
        "receptions_done": sum(tx.receivers_done for tx in txs),
        "receptions_collided": sum(tx.receivers_collided for tx in txs),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(p[0] for p in _grid())


@pytest.mark.parametrize("key,mode,slot_ms,seed,duration,record", _grid(),
                         ids=[p[0] for p in _grid()])
def test_output_matches_golden_digest(golden, tmp_path, key, mode, slot_ms, seed,
                                      duration, record):
    assert digest(mode, slot_ms, seed, duration, record, tmp_path) == golden[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        table = {key: digest(mode, slot_ms, seed, duration, record, Path(d))
                 for key, mode, slot_ms, seed, duration, record in _grid()}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {FIXTURE}", file=sys.stderr)
