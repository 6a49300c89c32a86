"""One workload sample in a fresh process: set up, run, measure, write outputs.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload (`kind` and `config`), the seed, the output
directory and the mode:

- `setup`: import the package and load the config, then stop;
- `sample`: also run the workload once, untraced, and measure it;
- `trace`: run it untraced, then again under cProfile, then re-simulate its
  scenarios with the kernel trace on to read the public counters.

The last line of stdout is one JSON object with the measurements. The
worker only calls platoonsim's public entry points; `run.py` checks the
outputs it leaves in the output directory.

While set-up and the untraced run go on, a SpeedProbe samples the speed of
the host from the same thread, so that run.py can scale the times to a
reference speed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()    # set-up is timed from here, before the package import

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

# Each platoonsim module and the layer its self time is charged to.
LAYER_OF_MODULE = {
    "kernel": "kernel", "radio": "radio", "csma": "csma", "tsnctl": "tsnctl",
    "scenario": "scenario", "frames": "scenario", "metrics": "metrics",
    "cli": "cli", "config": "config",
}
LOG_NAME = "transmissions.log"
PROBE_INTERVAL_S = 0.025
PROBE_ITERS = 600           # about 0.4-0.6 ms per probe, under 2.5% of the time


def probe_once() -> float:
    """Seconds for a fixed unit of pure-Python work that shares no code with platoonsim."""
    t0 = time.perf_counter()
    heap: list[int] = []
    table: dict[int, float] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        heapq.heappush(heap, i * 7919 % 10007)
        if len(heap) > 64:
            acc += heapq.heappop(heap)
        table[i & 255] = math.hypot(i, acc)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed during a measurement, without a second thread.

    On a shared host the speed can swing by 2x within seconds, with CPU time
    swinging alike, so neither wall nor CPU time repeats. An interval timer interrupts the work every
    PROBE_INTERVAL_S and the SIGALRM handler, which Python runs in the main
    thread between bytecodes, times probe_once(). The mean probe time over a
    measurement is the host's speed during exactly that measurement, and the
    sum is the time the probes took out of it.
    """

    def __init__(self):
        self.times: list[float] = []

    def _on_alarm(self, _signum, _frame) -> None:
        self.times.append(probe_once())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> dict:
        """The probes since the last take; probes once now if none fired."""
        times, self.times = self.times, []
        mean = sum(times) / len(times) if times else probe_once()
        return {"probe_sum_s": sum(times), "probe_mean_s": mean}


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def count_records(path: Path) -> int:
    with path.open(encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and not line.startswith("#"))


class Workload:
    """The body of one workload and the scenarios whose output it writes."""

    def __init__(self, spec: dict, out: Path):
        from platoonsim.config import load_config

        self.kind = spec["workload"]["kind"]
        self.config = spec["workload"]["config"]
        self.seed = spec["seed"]
        self.out = out
        self.cfg = load_config(self.config)
        self.phases: dict[str, float] = {}

    def scenarios(self) -> list[tuple[object, int]]:
        """(config, seed) of every simulation whose transmissions are output."""
        if self.kind == "simulate":
            return [(self.cfg, self.seed)]
        return [(self.cfg, self.seed + k) for k in range(self.cfg.repetitions)]

    def body(self):
        if self.kind == "simulate":
            from platoonsim.metrics import collect_stats
            from platoonsim.scenario import run_scenario

            run = run_scenario(self.cfg, self.seed)
            collect_stats(run)
            return run
        from platoonsim import cli

        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            run_rc = cli.main(["run", "--config", self.config, "--seed", str(self.seed),
                               "--out", str(self.out)])
            t1 = time.perf_counter()
            verify_rc = cli.main(["verify", "--log",
                                  str(self.out / "transmissions_rep0.log")])
            t2 = time.perf_counter()
        self.phases = {"run_s": t1 - t0, "verify_s": t2 - t1}
        return {"run_rc": run_rc, "verify_rc": verify_rc}

    def finish(self, result) -> dict:
        """Write what the body left in memory; report exit codes, tx and digests."""
        if self.kind == "simulate":
            from platoonsim.metrics import write_transmission_log

            write_transmission_log(result, self.out / LOG_NAME)
            codes = {}
        else:
            codes = result
        tx = sum(count_records(p) for p in self.out.glob("*.log"))
        return {"codes": codes, "tx": tx, "files": digests(self.out)}

    def reset_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)


def timed(workload: Workload, probe: SpeedProbe) -> dict:
    workload.reset_out()
    probe.take()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    result = workload.body()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    speed = probe.take()
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": ru1.ru_maxrss / 1024.0, **speed,
            "phases": dict(workload.phases), **workload.finish(result)}


# -- traced run ---------------------------------------------------------------


class ProfileSplit:
    """Self time of a cProfile run, grouped by platoonsim module.

    Functions outside the package (C builtins such as heapq, bisect and
    math.hypot, dataclass-generated __init__, the standard library) are
    charged to the package functions that called them, in proportion to the
    time spent on each calling edge. What no package function called is
    charged to `other`.
    """

    def __init__(self, stats: dict, pkg_dir: Path):
        self.stats = stats
        self.pkg_dir = pkg_dir.resolve()
        self._module: dict[str, str | None] = {}
        self._shares: dict[tuple, dict[str, float]] = {}

    def module(self, func: tuple) -> str | None:
        filename = func[0]
        if filename not in self._module:
            path = Path(filename)
            inside = filename.endswith(".py") and path.resolve().parent == self.pkg_dir
            self._module[filename] = path.stem if inside else None
        return self._module[filename]

    def shares(self, func: tuple, visiting: frozenset = frozenset()) -> dict[str, float]:
        mod = self.module(func)
        if mod is not None:
            return {LAYER_OF_MODULE.get(mod, "other"): 1.0}
        if func in self._shares:
            return self._shares[func]
        callers = self.stats[func][4] if func in self.stats else {}
        callers = {c: e for c, e in callers.items() if c not in visiting}
        weights = {c: e[2] for c, e in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[0] for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in self.shares(caller, visiting | {func}).items():
                out[layer] = out.get(layer, 0.0) + share * weight / total
        if not visiting:
            self._shares[func] = out
        return out

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            for layer, share in self.shares(func).items():
                out[layer] = out.get(layer, 0.0) + tt * share
        return out

    def _funcs(self, module: str, name: str):
        return [(f, v) for f, v in self.stats.items()
                if f[2] == name and self.module(f) == module]

    def calls(self, module: str, name: str, from_module: str | None = None) -> int:
        n = 0
        for _f, (_cc, nc, _tt, _ct, callers) in self._funcs(module, name):
            if from_module is None:
                n += nc
            else:
                n += sum(e[0] for c, e in callers.items() if self.module(c) == from_module)
        return n

    def cum(self, module: str, name: str) -> float:
        return sum(v[3] for _f, v in self._funcs(module, name))


def counters(workload: Workload) -> dict:
    """Public counters of the workload's scenarios, re-simulated with trace=True."""
    from platoonsim.scenario import run_scenario

    kinds: Counter[str] = Counter()
    c = dict.fromkeys(("handled", "broadcasts", "deferrals", "fsm_steps", "deferred",
                       "rejected_joins", "app_ticks"), 0)
    t0 = time.perf_counter()
    for cfg, seed in workload.scenarios():
        run = run_scenario(cfg, seed, trace=True)
        handlers = run.medium.handlers
        for _at, _seq, target, kind in run.medium.kernel.trace:
            kinds[kind] += 1
            if kind == "FRAME_DELIVERY" and target in handlers:
                c["handled"] += 1
        c["broadcasts"] += len(run.medium.log)
        c["deferrals"] += sum(mac.deferrals for mac in run.macs.values())
        c["fsm_steps"] += sum(len(ctl.transitions) for ctl in run.controllers.values())
        c["deferred"] += sum(ctl.deferred for ctl in run.controllers.values())
        c["rejected_joins"] += sum(ctl.rejected_joins for ctl in run.controllers.values())
        c["app_ticks"] += sum(s.generated for s in run.services.values())
    c["wall_s"] = time.perf_counter() - t0
    c["scenarios"] = len(workload.scenarios())
    return {"kinds": dict(kinds), **c}


def layer_metrics(split: ProfileSplit, cnt: dict, untraced: dict, traced_wall: float,
                  config_s: float, oracle_records: int) -> tuple[dict, dict]:
    """The per-layer metrics, and the self time of each layer."""
    self_s = split.self_times()
    kinds = cnt["kinds"]
    events = sum(kinds.values())
    deliveries = kinds.get("FRAME_DELIVERY", 0)
    broadcasts = cnt["broadcasts"]
    phases = untraced["phases"]
    return {
        "kernel.events": events,
        "kernel.events.frame_delivery": deliveries,
        "kernel.events.timer": kinds.get("TIMER", 0),
        "kernel.events.app_tick": kinds.get("APP_TICK", 0),
        "kernel.self_s": self_s.get("kernel", 0.0),
        "kernel.events_per_s": events / cnt["wall_s"],
        "radio.self_s": self_s.get("radio", 0.0),
        "radio.broadcasts": broadcasts,
        "radio.deliveries": deliveries,
        "radio.deliveries_per_tx": deliveries / broadcasts if broadcasts else 0.0,
        "radio.distance_calls": split.calls("radio", "distance", from_module="radio"),
        "radio.finalize_s": split.cum("radio", "finalize"),
        "radio.handled_ratio": cnt["handled"] / deliveries if deliveries else 0.0,
        "radio.sense_calls": split.calls("radio", "is_busy") + split.calls("radio", "idle_from"),
        "radio.sense_s": split.cum("radio", "is_busy") + split.cum("radio", "idle_from"),
        "csma.self_s": self_s.get("csma", 0.0),
        "csma.deferrals": cnt["deferrals"],
        "tsnctl.self_s": self_s.get("tsnctl", 0.0),
        "tsnctl.frames_handled": cnt["handled"],
        "tsnctl.fsm_steps": cnt["fsm_steps"],
        "tsnctl.deferred": cnt["deferred"],
        "tsnctl.rejected_joins": cnt["rejected_joins"],
        "scenario.self_s": self_s.get("scenario", 0.0),
        "scenario.app_ticks": cnt["app_ticks"],
        "metrics.oracle_s": split.cum("metrics", "brute_force_outcomes"),
        "metrics.oracle_records": oracle_records,
        "metrics.log_write_s": split.cum("metrics", "write_transmission_log"),
        "metrics.log_load_s": split.cum("metrics", "load_transmission_log"),
        "metrics.csv_s": split.cum("metrics", "emit_csv"),
        "metrics.collect_s": split.cum("metrics", "collect_stats"),
        "cli.run_s": phases.get("run_s", 0.0),
        "cli.verify_s": phases.get("verify_s", 0.0),
        "cli.simulations_per_rep": split.calls("scenario", "run_scenario") / cnt["scenarios"],
        "config.load_s": config_s,
        "trace.overhead_s": traced_wall - untraced["wall_s"],
    }, self_s


def traced(workload: Workload, probe: SpeedProbe, config_s: float) -> dict:
    import platoonsim

    untraced = timed(workload, probe)
    probe.stop()
    untraced["wall_s"] -= untraced["probe_sum_s"]
    workload.reset_out()
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    result = workload.body()
    profile.disable()
    traced_wall = time.perf_counter() - t0
    out = workload.finish(result)
    split = ProfileSplit(pstats.Stats(profile).stats, Path(platoonsim.__file__).parent)
    verified = workload.out / "transmissions_rep0.log"
    oracle_records = count_records(verified) if workload.kind == "cli" else 0
    layers, self_s = layer_metrics(split, counters(workload), untraced, traced_wall,
                                   config_s, oracle_records)
    return {
        **out,
        "untraced_files": untraced["files"],
        "untraced_codes": untraced["codes"],
        "traced_wall_s": traced_wall,
        "layer_self_s": self_s,
        "layers": layers,
    }


def main() -> None:
    probe = SpeedProbe()
    probe.start()
    spec = json.loads(sys.argv[1])
    import numpy
    import platoonsim  # noqa: F401  (the import is part of set-up)
    from platoonsim import cli, config, metrics, scenario  # noqa: F401

    t_import = time.perf_counter()
    workload = Workload(spec, Path(spec["out"]))
    t_setup = time.perf_counter()
    report = {"setup": {"setup_s": t_setup - T0, **probe.take()},
              "config_s": t_setup - t_import, "numpy": numpy.__version__}
    if spec["mode"] == "sample":
        report.update(timed(workload, probe))
    elif spec["mode"] == "trace":
        report.update(traced(workload, probe, report["config_s"]))
    probe.stop()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
