"""Equivalence sweep: random scenarios run on two source trees, every output compared.

    python tools/equivalence.py --base <src dir> --head <src dir> \\
        --mode tsnctl|baseline --configs N --seed S [--expect-diff]

Each `<src dir>` holds a `platoonsim` package (a checkout's `src/`). The
script draws N scenario configs from `--seed` over the ranges of the sweeps
that `BENCH_21.json` records: 2-40 vehicles, 50 us-50 ms spawn intervals,
0-1,000 m roads, 150/300 m range, 0/4,000 ns detection latency, 0/40 us
preambles, 1/2/16 contention slots of 13/800 us, 1-800 B payloads,
0.3-100 ms message intervals, 20/50/100 ms windows, 1-3 ms slots, and runs
cut at any ns from 50 ms to 1.5 s. Each side runs every config in its own
subprocess, and the two run side by side.

Per run it compares every field of tier-1's `run_digest` (`tests/_util.py`),
the one digest that the golden grid and the kernel shuffle read too, and runs
every check of tier-1's list of run checks (`tests/_checks.py`) on both
sides. The head side runs `order_free` salted with the config's seed; the
base side passes it no salt, so it reruns nothing there.

It prints a JSON summary on stdout: how many configs differ, the first
field that differs, and the transmission and collided totals of each side
with the mean change in collided share (head minus base, over the configs
where both sides sent a frame), and, under `<check>_faults`, the configs
where each check found a fault, per side. The exit status is 0 when every
run matches and every check is clean; otherwise it is 1, and stderr names
the first config and field that differ or check that found a fault.

`--expect-diff` is for a change that alters output on purpose: the summary
then says what moved, and the exit status is 0 unless a check finds a
fault or a side errors (its process fails, or a run raises where the other
side's run does not raise the same error). A config that raises the same
error on both sides is a match in both modes: it is outside what either
tree accepts, not a fault of the change.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MS = 1_000_000
# tier-1's helpers: the run digest and the run checks
TESTS = Path(__file__).resolve().parents[1] / "tests"
MODES = ("tsnctl", "baseline")


def draw_configs(mode: str, count: int, seed: int) -> list[dict]:
    """`count` scenario configs, as plain field dicts, drawn from `seed`."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        configs.append({
            "seed": rng.randrange(2**32),
            "scenario": {
                "mode": mode,
                "vehicle_count": rng.randint(2, 40),
                "spawn_interval_ns": rng.randint(50_000, 50 * MS),
                "area_length_m": rng.choice((0.0, rng.uniform(0.0, 1000.0))),
                "payload_size_b": rng.randint(1, 800),
                "message_interval_ns": rng.randint(300_000, 100 * MS),
                "sim_duration_ns": rng.randint(50 * MS, 1500 * MS),
                "repetitions": 1,
            },
            "radio": {
                "range_m": rng.choice((150.0, 300.0)),
                "cca_detect_ns": rng.choice((0, 4_000)),
                "preamble_ns": rng.choice((0, 40_000)),
            },
            "csma": {
                "cw_slots": rng.choice((1, 2, 16)),
                "backoff_slot_ns": rng.choice((13_000, 800_000)),
            },
            "window": {
                "window_ns": rng.choice((20, 50, 100)) * MS,
                "slot_len_ns": rng.randint(1 * MS, 3 * MS),
            },
        })
    return configs


# -- one side: runs in a subprocess with its src dir first on sys.path ----------


def digest(config: dict, shuffle: bool) -> dict:
    """One run's `run_digest`, with each run check's faults by check name under
    `faults`; with `shuffle`, `order_free` reruns the config salted with its seed."""
    from _checks import run_faults
    from _util import run_digest

    from platoonsim.csma import CsmaConfig
    from platoonsim.radio import RadioConfig
    from platoonsim.scenario import ScenarioConfig, run_scenario
    from platoonsim.tsnctl import WindowConfig

    cfg = ScenarioConfig(**config["scenario"], seed=config["seed"],
                         radio=RadioConfig(**config["radio"]),
                         csma=CsmaConfig(**config["csma"]),
                         window=WindowConfig(**config["window"]))
    try:
        run = run_scenario(cfg, config["seed"])
    except Exception as exc:        # both sides must fail alike
        return {"error": f"{type(exc).__name__}: {exc}"}
    fields = run_digest(run)
    return {**fields, "faults": run_faults(run, [config["seed"]] if shuffle else [], fields)}


def worker(src: Path, configs_path: Path, out_path: Path, shuffle: bool) -> None:
    """Run every config against the package under src; one JSON line per run.

    With `shuffle` each run is also rerun under the kernel shuffle."""
    sys.path[:0] = [str(src), str(TESTS)]      # the helpers in tests/ read that package
    import platoonsim

    where = Path(platoonsim.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.exit(f"imported platoonsim from {where}, not from {src}")
    configs = json.loads(configs_path.read_text(encoding="utf-8"))
    with out_path.open("w", encoding="utf-8") as out:
        for config in configs:
            out.write(json.dumps(digest(config, shuffle)) + "\n")


# -- the driver ------------------------------------------------------------------


def first_difference(base: dict, head: dict) -> str | None:
    """The first field, in the order the runs report them, whose values
    differ; the checks' faults are not compared."""
    for field in [*base, *(f for f in head if f not in base)]:
        if field != "faults" and base.get(field) != head.get(field):
            return field
    return None


def collided_share_change(base: list[dict], head: list[dict]) -> float | None:
    """Mean of head's minus base's collided share per config; None if no config counts.

    A config counts when both sides ran it and sent at least one frame.
    """
    changes = [h["collided"] / h["transmissions"] - b["collided"] / b["transmissions"]
               for b, h in zip(base, head)
               if b.get("transmissions") and h.get("transmissions")]
    return round(sum(changes) / len(changes), 6) if changes else None


def sweep(base_src: Path, head_src: Path, mode: str, count: int, seed: int,
          expect_diff: bool = False) -> tuple[dict, str | None]:
    """Run both sides; return the summary and the line naming the first fault.

    Without `expect_diff` a fault is a difference, a check's fault or a side
    whose process fails; with it, a check's fault, a side whose process fails
    or a run that raises where the other side does not raise the same error.
    """
    configs = draw_configs(mode, count, seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs_path = tmp / "configs.json"
        configs_path.write_text(json.dumps(configs), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        started = time.perf_counter()
        procs = {side: subprocess.Popen([sys.executable, __file__, "--worker", str(src),
                                         str(configs_path), str(tmp / f"{side}.jsonl"),
                                         *(["--shuffle"] if side == "head" else [])], env=env)
                 for side, src in (("base", base_src), ("head", head_src))}
        codes = {side: proc.wait() for side, proc in procs.items()}
        seconds = round(time.perf_counter() - started, 1)
        for side, code in codes.items():
            if code != 0:
                fault = f"the {side} side exited {code}"
                return {"mode": mode, "configs": count, "seed": seed, "error": fault}, fault
        results = {side: [json.loads(line) for line in
                          (tmp / f"{side}.jsonl").read_text(encoding="utf-8").splitlines()]
                   for side in procs}

    # both sides run this checkout's checks; a run that raised ran none
    checks = dict.fromkeys(c for r in results["head"] for c in r.get("faults", ()))
    faults = {f"{check}_faults": {"base": 0, "head": 0} for check in checks}
    differences, first, first_fault = 0, None, None
    for k, (b, h) in enumerate(zip(results["base"], results["head"])):
        hit = None          # the first check that found a fault on either side
        for check in checks:
            for side, fields in (("base", b), ("head", h)):
                if fields.get("faults", {}).get(check):
                    faults[f"{check}_faults"][side] += 1
                    hit = hit or check
        field = first_difference(b, h)
        differences += field is not None
        if first is None and (field is not None or hit):
            first = (k, field or hit)
        raised = ("error" in b or "error" in h) and b.get("error") != h.get("error")
        if first_fault is None and (hit or raised):
            first_fault = (k, hit or "error")
    summary = {
        "mode": mode,
        "configs": count,
        "seed": seed,
        "base": str(base_src),
        "head": str(head_src),
        "differences": differences,
        **faults,
        "errors": {side: sum("error" in r for r in results[side]) for side in results},
        "transmissions": {side: sum(r.get("transmissions", 0) for r in results[side])
                          for side in results},
        "collided": {side: sum(r.get("collided", 0) for r in results[side])
                     for side in results},
        "collided_share_change": collided_share_change(results["base"], results["head"]),
        "seconds": seconds,
        "first_difference": None if first is None else {
            "config": first[0], "field": first[1], "scenario": configs[first[0]]},
    }
    fault, at = None, first_fault if expect_diff else first
    if at is not None:
        k, field = at
        base, head = (results[side][k].get("faults", {}) if field in checks
                      else results[side][k] for side in ("base", "head"))
        fault = (f"config {k} (run seed {configs[k]['seed']}) first fault at {field!r}: "
                 f"base {base.get(field)!r}, head {head.get(field)!r}")
    return summary, fault


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        src, configs_path, out_path = map(Path, argv[1:4])
        worker(src, configs_path, out_path, argv[4:] == ["--shuffle"])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="src dir of the base side")
    parser.add_argument("--head", required=True, type=Path, help="src dir of the head side")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--configs", type=int, default=100, help="configs to draw")
    parser.add_argument("--seed", type=int, default=1, help="seed of the config draw")
    parser.add_argument("--expect-diff", action="store_true",
                        help="report what changed; fail only on a check's fault or "
                             "an error")
    args = parser.parse_args(argv)
    for src in (args.base, args.head):
        if not (src / "platoonsim" / "__init__.py").is_file():
            parser.error(f"{src} holds no platoonsim package")
    summary, fault = sweep(args.base, args.head, args.mode, args.configs, args.seed,
                           args.expect_diff)
    print(json.dumps(summary, indent=1))
    if fault is not None:
        print(fault, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
