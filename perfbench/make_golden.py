"""Regenerate golden.json: the expected output of every workload per seed.

    python3 perfbench/make_golden.py

Runs each workload once for the default seed and the held-out seed, checks
the outputs with the oracle, and records the sha256 of every output file and
the transmission and collided counts. Rerun it only when a change alters
the simulator's output on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import time

import oracle
import run

SEEDS = (1, 7)      # the default seed and one held-out seed


def main() -> int:
    golden: dict[str, dict[str, dict]] = {}
    for name in run.WORKLOADS:
        for seed in SEEDS:
            record = run.measure(name, seed, 0, False, golden={})
            if record["failed"]:
                print(f"{name} seed {seed}: {record['problems']}", file=sys.stderr)
                return 1
            out = run.WORK / name
            checks = [oracle.check_log(p.read_text(encoding="utf-8"))
                      for p in sorted(out.glob("*.log"))]
            golden.setdefault(name, {})[str(seed)] = {
                "files": run.digests(out),
                "tx": sum(c.tx for c in checks),
                "collided": sum(c.collided for c in checks),
            }
            print(f"{name} seed {seed}: {golden[name][str(seed)]['tx']} tx", flush=True)
    run.GOLDEN_FILE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    start = time.monotonic()
    code = main()
    print(f"done in {time.monotonic() - start:.0f} s")
    sys.exit(code)
