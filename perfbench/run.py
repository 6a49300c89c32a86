"""platoonsim benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/platoonsim`; nothing needs
to be installed or built. Every workload is a batch job in a closed loop:
one client runs one workload sample at a time, each in a fresh
single-threaded process (`worker.py`), from this one process.

With `--trace 0` it first starts a few set-up-only processes, then repeats
the workload for about `--seconds` seconds and prints the median of each
end-to-end metric. With `--trace 1` it makes one profiled run and prints the
per-layer metrics. Both check every output: the sha256 of every file against
`golden.json` when the seed is listed there, that every sample wrote the same
bytes, every transmission log against the independent oracle in `oracle.py`,
results.csv against the logs, and the CLI exit codes. A sample whose outputs
fail a check counts as failed. Times are scaled to a reference host speed
measured during each run (see `scaled` and worker.SpeedProbe).

The second-to-last line of stdout records the environment, the sample count,
every sample's values and any problem found; the last line is the result.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from worker import digests

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
GOLDEN_FILE = BENCH_DIR / "golden.json"

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "baseline-100": {"kind": "simulate", "config": "perfbench/configs/baseline-100.cfg"},
    "tsnctl-100-1ms": {"kind": "simulate", "config": "perfbench/configs/tsnctl-100-1ms.cfg"},
    "run-verify": {"kind": "cli", "config": "perfbench/configs/platoon.cfg"},
}
RUN_KEYS = ("wall_s", "cpu_s", "peak_rss_mb", "tx", "probe_sum_s", "probe_mean_s")
SETUP_PROBES = 5            # set-up-only processes per timed run, for setup_s
TIME_LIMIT_S = 170          # every process this run starts ends within this
# The profiler's own overhead is not charged to any function, so the module
# self times cover a little less than the traced wall time.
MIN_PROFILE_COVERAGE = 0.9
# A shared host's speed can swing by 2x within seconds, so every time is
# scaled to the host speed at which worker.probe_once() takes PROBE_REF_S.
PROBE_REF_S = 0.0004


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def child(spec: dict, deadline: float) -> dict:
    """Run worker.py once; return its report, or {"error": ...} if it failed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "time limit reached before start"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_problems(name: str, seed: int, out: Path, golden: dict) -> list[str]:
    """Check what the last sample left in `out`; an empty list means correct."""
    problems = []
    checks: dict[str, oracle.LogCheck] = {}
    for log in sorted(out.glob("*.log")):
        check = oracle.check_log(log.read_text(encoding="utf-8"))
        checks[log.name] = check
        if check.bad:
            problems.append(f"{log.name}: {len(check.bad)} flag(s) disagree with the "
                            f"oracle, first at index {check.bad[0]}")
    if not checks:
        problems.append("no transmission log written")
    csv_path = out / "results.csv"
    if csv_path.exists():
        by_seed = {seed + int(n.removeprefix("transmissions_rep").removesuffix(".log")): c
                   for n, c in checks.items()}
        problems += oracle.check_results_csv(csv_path.read_text(encoding="utf-8"), by_seed)
    want = golden.get(name, {}).get(str(seed))
    if want is not None:
        if digests(out) != want["files"]:
            problems.append(f"output digests differ from golden.json for seed {seed}")
        tx = sum(c.tx for c in checks.values())
        collided = sum(c.collided for c in checks.values())
        if (tx, collided) != (want["tx"], want["collided"]):
            problems.append(f"tx/collided {tx}/{collided} != golden "
                            f"{want['tx']}/{want['collided']}")
    return problems


def sample_problems(report: dict, files: dict) -> list[str]:
    if "error" in report:
        return [report["error"]]
    problems = [f"{cmd} exited {rc}" for cmd, rc in report["codes"].items() if rc != 0]
    if report["files"] != files:
        problems.append("sample wrote other bytes than the checked output")
    if "untraced_files" in report:
        if report["untraced_files"] != files:
            problems.append("traced and untraced runs wrote different bytes")
        problems += [f"untraced {cmd} exited {rc}"
                     for cmd, rc in report["untraced_codes"].items() if rc != 0]
        named = sum(t for layer, t in report["layer_self_s"].items() if layer != "other")
        total = sum(report["layer_self_s"].values())
        wall = report["traced_wall_s"]
        if named < MIN_PROFILE_COVERAGE * wall or total > 1.01 * wall:
            problems.append(f"module self times ({named:.3f} s named, {total:.3f} s "
                            f"total) do not account for the traced {wall:.3f} s")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            golden: dict | None = None) -> dict:
    """Run one workload; return every sample's measurements and problems."""
    workload = WORKLOADS[name]
    golden = load_golden() if golden is None else golden
    deadline = time.monotonic() + TIME_LIMIT_S
    out = WORK / name
    spec = {"workload": {"kind": workload["kind"],
                         "config": str(ROOT / workload["config"])},
            "seed": seed, "out": str(out)}

    setups = []
    reports = []
    if trace:
        reports.append(child({**spec, "mode": "trace"}, deadline))
    else:
        for _ in range(SETUP_PROBES):
            probe = child({**spec, "mode": "setup"}, deadline)
            if "error" in probe:
                raise RuntimeError(f"set-up failed: {probe['error']}")
            setups.append(probe["setup"])
        # Start another sample while at least half of one still fits in
        # `seconds`, so a run overshoots by at most half a sample.
        start = time.monotonic()
        while True:
            reports.append(child({**spec, "mode": "sample"}, deadline))
            elapsed = time.monotonic() - start
            if "error" in reports[-1] or elapsed + elapsed / len(reports) / 2 >= seconds:
                break

    done = [r for r in reports if "error" not in r]
    common = output_problems(name, seed, out, golden) if done else []
    files = digests(out) if done else {}
    problems = [sample_problems(r, files) + common for r in reports]
    record = {
        "samples": len(reports),
        "problems": sorted({p for ps in problems for p in ps}),
        "setup": setups + [r["setup"] for r in done],
        "runs": [{k: r[k] for k in RUN_KEYS} for r in done if "wall_s" in r],
    }
    if trace and done:
        record["layers"] = done[0]["layers"]
        record["layer_self_s"] = done[0]["layer_self_s"]
        record["traced_wall_s"] = done[0]["traced_wall_s"]
    if done:
        record["numpy"] = done[0]["numpy"]
    record["completed"] = len(done)
    record["failed"] = sum(1 for ps in problems if ps)
    return record


def scaled(seconds: float, speed: dict) -> float:
    """A time measured under the speed probe, without the probes' own time,
    at the reference host speed."""
    return (seconds - speed["probe_sum_s"]) * PROBE_REF_S / speed["probe_mean_s"]


def metric_values(record: dict, trace: bool) -> dict[str, float]:
    """Medians over samples, with every time scaled to the reference speed."""
    if trace:
        return dict(record["layers"])
    runs = record["runs"]
    wall = [scaled(r["wall_s"], r) for r in runs]
    return {
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(scaled(r["cpu_s"], r) for r in runs),
        "tx_per_s": statistics.median(r["tx"] / t for r, t in zip(runs, wall)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(scaled(s["setup_s"], s) for s in record["setup"]),
    }


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "platoonsim" / "__init__.py").is_file():
        print(f"error: no platoonsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    env = environment(args.seed)
    trace = bool(args.trace)
    declared = bench["per_layer" if trace else "end_to_end"]

    record = measure(args.workload, args.seed, seconds, trace)
    env["numpy"] = record.pop("numpy", None)
    print(json.dumps({"env": env, "workload": args.workload, **record}))
    if not record["completed"]:
        print("error: no sample completed: " + "; ".join(record["problems"]),
              file=sys.stderr)
        return 1
    values = metric_values(record, trace)
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["samples"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
