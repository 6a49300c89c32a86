"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Smoke runs use tiny stand-in configs so that every workload finishes in
seconds; they go through `run.main` and the worker processes exactly as the
full workloads do.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from platoonsim.metrics import brute_force_flags, write_transmission_log  # noqa: E402
from platoonsim.radio import Position  # noqa: E402
from platoonsim.scenario import ScenarioConfig, run_scenario  # noqa: E402

TINY = {
    "baseline-100": {"kind": "simulate",
                     "config": "perfbench/tests/configs/tiny-baseline.cfg"},
    "tsnctl-100-1ms": {"kind": "simulate",
                       "config": "perfbench/tests/configs/tiny-tsnctl.cfg"},
    "run-verify": {"kind": "cli", "config": "perfbench/tests/configs/tiny-platoon.cfg"},
}
SEED = 3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Swap every workload for its tiny stand-in, with no golden digests."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "load_golden", lambda: {})


def result_of(capsys, argv: list[str]) -> tuple[dict, dict]:
    assert run.main(argv) == 0
    info, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    return info, result


def small_log(tmp_path: Path, mode: str, seed: int) -> str:
    cfg = ScenarioConfig(vehicle_count=8, mode=mode, sim_duration_ns=500_000_000,
                         area_length_m=400.0)
    cfg.csma.backoff_slot_ns = 50_000
    path = tmp_path / f"{mode}-{seed}.log"
    write_transmission_log(run_scenario(cfg, seed), path)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", ["baseline", "tsnctl"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_matches_brute_force(tmp_path, mode, seed):
    text = small_log(tmp_path, mode, seed)
    log = oracle.parse_log(text)
    positions = {v: Position(x, y) for v, (x, y, _) in log.vehicles.items()}
    spawn = {v: s for v, (_, _, s) in log.vehicles.items()}
    records = [(s, a, b) for s, a, b, _ in log.records]
    assert oracle.expected_flags(log) == brute_force_flags(records, positions,
                                                           log.range_m, spawn)
    assert oracle.check_log(text).bad == []


def test_oracle_flags_a_flipped_collision_bit(tmp_path):
    lines = small_log(tmp_path, "baseline", 1).splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    k = random.Random(0).choice(data)
    *head, flag = lines[k].split()
    lines[k] = " ".join(head + ["0" if flag == "1" else "1"])
    assert oracle.check_log("\n".join(lines)).bad == [data.index(k)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_declared_metric(tiny, capsys, name, trace):
    info, result = result_of(capsys, ["--workload", name, "--seed", str(SEED),
                                      "--seconds", "0", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    for env_key in ("nproc", "python", "numpy", "loadavg_start", "seed"):
        assert env_key in info["env"]


def test_traced_counters_see_each_layer(tiny, capsys):
    _, base = result_of(capsys, ["--workload", "baseline-100", "--seed", str(SEED),
                                 "--seconds", "0", "--trace", "1"])
    _, cli = result_of(capsys, ["--workload", "run-verify", "--seed", str(SEED),
                                "--seconds", "0", "--trace", "1"])
    base = {k: v["value"] for k, v in base["metrics"].items()}
    cli = {k: v["value"] for k, v in cli["metrics"].items()}
    assert base["radio.sense_calls"] > 0 and base["radio.handled_ratio"] == 0
    assert base["tsnctl.fsm_steps"] == 0 and base["metrics.oracle_records"] == 0
    assert cli["radio.handled_ratio"] == 1 and cli["tsnctl.fsm_steps"] > 0
    assert cli["metrics.oracle_records"] > 0 and cli["cli.verify_s"] > 0
    assert cli["cli.simulations_per_rep"] == 2.0


def test_digest_mismatch_is_a_failed_operation(tiny, monkeypatch, capsys):
    record = run.measure("run-verify", SEED, 0, False, golden={})
    files = run.digests(run.WORK / "run-verify")
    wrong = dict(files, **{"results.csv": "0" * 64})
    checks = [oracle.check_log(p.read_text(encoding="utf-8"))
              for p in (run.WORK / "run-verify").glob("*.log")]
    golden = {"run-verify": {str(SEED): {"files": wrong, "tx": record["runs"][0]["tx"],
                                         "collided": sum(c.collided for c in checks)}}}
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    info, result = result_of(capsys, ["--workload", "run-verify", "--seed", str(SEED),
                                      "--seconds", "0", "--trace", "0"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("golden" in p for p in info["problems"])


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baseline-100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
