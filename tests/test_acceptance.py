"""Acceptance suite: one test per headline criterion, one printed verdict line each.

Scenario grids follow the experiment design: 100 ms windows, 800 B beacons at
10 Hz, vehicles spawned at 1 ms or 100 us intervals inside a 100 m area, five
seeded repetitions per scenario.
"""

import itertools

import numpy as np
from _checks import CHECKS, run_faults
from _util import ScriptedSource, assemble_platoon, receivers_collided

from platoonsim.frames import Frame, FrameKind
from platoonsim.kernel import MS, SEC, US
from platoonsim.metrics import emit_csv, run_experiment, write_transmission_log
from platoonsim.radio import RadioConfig
from platoonsim.scenario import (
    MODE_BASELINE,
    MODE_TSNCTL,
    ScenarioConfig,
    run_scenario,
)
from platoonsim.tsnctl import PriorityQueueSet, Role, Status, WindowConfig

PLATOON_SIZES = (5, 10, 15, 20, 25, 30)
SPAWNS_NS = (1 * MS, 100 * US)
PAYLOAD_SWEEP = (200, 350, 500, 650, 800)
REPS = 5
BASE_SEED = 1

_cache: dict[tuple, float] = {}


def _mean_rate(mode: str, n: int, spawn_ns: int, slot_ns: int,
               payload: int = 800, dur_s: int = 5) -> float:
    key = (mode, n, spawn_ns, slot_ns, payload, dur_s)
    if key not in _cache:
        cfg = ScenarioConfig(
            vehicle_count=n, spawn_interval_ns=spawn_ns, payload_size_b=payload,
            mode=mode, sim_duration_ns=dur_s * SEC, seed=BASE_SEED, repetitions=REPS,
            window=WindowConfig(slot_len_ns=slot_ns),
        )
        _cache[key] = run_experiment(cfg).mean_rate
    return _cache[key]


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_slot_gated_near_zero_collisions():
    failures = []
    worst = 0.0
    for slot_ms, spawn, n in itertools.product((2, 3), SPAWNS_NS, PLATOON_SIZES):
        rate = _mean_rate(MODE_TSNCTL, n, spawn, slot_ms * MS)
        worst = max(worst, rate)
        if rate >= 1.0:
            failures.append(f"slot={slot_ms}ms spawn={spawn}ns n={n}: {rate:.2f}%")
    _verdict(1, "slot-gated near-zero collisions", not failures,
             f"worst mean {worst:.3f}% over {2 * len(SPAWNS_NS) * len(PLATOON_SIZES)} "
             f"scenarios (tolerance < 1%)" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_2_undersized_slot_degradation():
    spawn = 100 * US
    one_ms = {n: _mean_rate(MODE_TSNCTL, n, spawn, 1 * MS, dur_s=10)
              for n in (20, 25, 30)}
    two_ms = {n: _mean_rate(MODE_TSNCTL, n, spawn, 2 * MS, dur_s=10)
              for n in (20, 25, 30)}
    ordered = all(one_ms[n] > two_ms[n] for n in one_ms)
    above_floor = all(one_ms[n] > 5.0 for n in one_ms)
    trend = one_ms[20] <= one_ms[25] <= one_ms[30] and one_ms[20] < one_ms[30]
    detail = (f"1ms slots {one_ms[20]:.1f}/{one_ms[25]:.1f}/{one_ms[30]:.1f}% "
              f"vs 2ms {two_ms[20]:.2f}/{two_ms[25]:.2f}/{two_ms[30]:.2f}% at n=20/25/30")
    _verdict(2, "undersized-slot degradation", ordered and above_floor and trend, detail)


def test_criterion_3_baseline_collision_floor():
    failures = []
    worst = 100.0
    for spawn, n in itertools.product(SPAWNS_NS, PLATOON_SIZES):
        rate = _mean_rate(MODE_BASELINE, n, spawn, 2 * MS)
        worst = min(worst, rate)
        if rate < 10.0:
            failures.append(f"spawn={spawn}ns n={n}: {rate:.2f}%")
    sweep_rates = [_mean_rate(MODE_BASELINE, 20, 1 * MS, 2 * MS, payload=p)
                   for p in PAYLOAD_SWEEP]
    monotone = all(a <= b + 1e-9 for a, b in zip(sweep_rates, sweep_rates[1:]))
    if not monotone:
        failures.append("payload sweep not non-decreasing: "
                        + ", ".join(f"{r:.2f}" for r in sweep_rates))
    _verdict(3, "baseline collision floor", not failures,
             f"floor {worst:.1f}% (tolerance >= 10%), payload sweep "
             + "/".join(f"{r:.1f}" for r in sweep_rates)
             + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_4_oracle_equivalence():
    """Every run check on each run, whose config carries the run's seed for
    the replay, with no salt, so the kernel shuffle reruns nothing: the
    overlap oracle, the carrier-sense oracle, the window clock's facts and
    the replay count."""
    rng = np.random.default_rng(2024)
    faults = dict.fromkeys(CHECKS, 0)
    for i in range(50):
        cfg = ScenarioConfig(
            vehicle_count=int(rng.integers(2, 11)),
            spawn_interval_ns=int(rng.choice([100 * US, 1 * MS, 10 * MS])),
            payload_size_b=int(rng.integers(100, 801)),
            mode=MODE_BASELINE if rng.integers(2) else MODE_TSNCTL,
            sim_duration_ns=int(rng.integers(200, 1001)) * MS,
            area_length_m=float(rng.uniform(50.0, 300.0)),
            window=WindowConfig(slot_len_ns=int(rng.choice([1, 2, 5])) * MS),
        )
        cfg.radio = RadioConfig(range_m=float(rng.uniform(100.0, 300.0)))
        cfg.seed = int(rng.integers(0, 2**32))
        run = run_scenario(cfg, cfg.seed)
        for name, found in run_faults(run, salts=()).items():
            faults[name] += len(found)
    _verdict(4, "oracle equivalence", not any(faults.values()),
             ", ".join(f"{faults[name]} {name}" for name in CHECKS if name != "order_free")
             + " faults across 50 randomized scenarios (tolerance: exactly 0)")


def _explore_formation(n: int) -> list[str]:
    problems = []
    vids = list(range(n))
    for spawn_perm in itertools.permutations(vids):
        for offset_perm in itertools.permutations(vids):
            spawn_times = {vid: (rank + 1) * MS for rank, vid in enumerate(spawn_perm)}
            offsets = {vid: rank * 200 * US for rank, vid in enumerate(offset_perm)}
            _, _, ctls = assemble_platoon(spawn_times, offsets, run_ms=320)
            tag = f"n={n} spawn={spawn_perm} offsets={offset_perm}"
            masters = [v for v, c in ctls.items()
                       if c.state.status is Status.IN_PLATOON and c.state.role is Role.MASTER]
            slaves = [v for v, c in ctls.items()
                      if c.state.status is Status.IN_PLATOON and c.state.role is Role.SLAVE]
            if masters != [spawn_perm[0]] or len(slaves) != n - 1:
                problems.append(f"{tag}: masters={masters} in_platoon={len(slaves) + len(masters)}")
                continue
            slots = [ctl.my_slot for ctl in ctls.values()]
            if len(set(slots)) != n or {0, 1, None} & set(slots):
                problems.append(f"{tag}: slot clash {slots}")
    return problems


def test_criterion_5_fsm_exhaustive_interleavings():
    problems = []
    runs = 0
    for n in (2, 3, 4):
        problems.extend(_explore_formation(n))
        runs += (
            len(list(itertools.permutations(range(n)))) ** 2
        )
    _verdict(5, "FSM exhaustive interleavings", not problems,
             f"{runs} interleavings of 2-4 vehicles on a perfect channel; "
             f"{len(problems)} violations" + ("; " + problems[0] if problems else ""))


def test_criterion_6_determinism(tmp_path):
    identical = True
    for mode in (MODE_TSNCTL, MODE_BASELINE):
        cfg = ScenarioConfig(vehicle_count=10, mode=mode, sim_duration_ns=2 * SEC,
                             spawn_interval_ns=100 * US, seed=42, repetitions=2)
        pair = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{mode}_{tag}.csv"
            emit_csv(run_experiment(cfg), csv_path)
            logs = b""
            for k in range(cfg.repetitions):
                log_path = tmp_path / f"{mode}_{tag}_{k}.log"
                write_transmission_log(run_scenario(cfg, cfg.seed + k), log_path)
                logs += log_path.read_bytes()
            pair.append((csv_path.read_bytes(), logs))
        identical &= pair[0] == pair[1]
    _verdict(6, "determinism", identical,
             "re-runs with identical config and seed produce byte-identical "
             "CSV and transmission logs")


def test_criterion_7_priority_discipline():
    violations = 0
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        queues = PriorityQueueSet(3)
        backlog = []
        for seq in range(int(rng.integers(1, 12))):
            prio = int(rng.integers(0, 3))
            frame = Frame(FrameKind.DATA, 0, 100, 0, priority=prio, seq=seq)
            queues.push(frame)
            backlog.append(frame)
        budget = int(rng.integers(1, len(backlog) + 1))
        emitted = []
        for _ in range(budget):
            if not queues:
                break
            queued_best = min(f.priority for f in backlog if f not in emitted)
            head = queues.pop()
            if head.priority > queued_best:
                violations += 1
            emitted.append(head)
        for a, b in zip(emitted, emitted[1:]):
            if a.priority == b.priority and a.seq > b.seq:
                violations += 1

    # directed end-to-end check: a mixed burst leaves the radio in priority order
    low = Frame(FrameKind.DATA, 1, 800, 0, priority=1, seq=0)
    high = Frame(FrameKind.DATA, 1, 800, 0, priority=0, seq=1)
    source = ScriptedSource([(250 * MS, low), (250 * MS, high)], end=450 * MS)
    kernel, medium, ctls = assemble_platoon({0: 0, 1: 1 * MS}, {0: 0, 1: 300 * US},
                                            slot_ms=3, run_ms=250, sources={1: source})
    kernel.run_until(450 * MS)
    order = [tx.priority for tx in medium.log
             if tx.sender == 1 and tx.kind is FrameKind.DATA]
    if order[:2] != [0, 1]:
        violations += 1
    _verdict(7, "priority discipline", violations == 0,
             f"{violations} violations over 10000 seeded bursts plus a directed "
             "on-air burst (tolerance: 0)")


def test_steady_state_platoon_invariants():
    # slot-gated mode with fitting frames: after formation settles, exactly one
    # master, disjoint assignments, every data frame inside its sender's slot,
    # and no collided data frames at all (every run check passes, the
    # overlap oracle among them)
    cfg = ScenarioConfig(vehicle_count=20, mode=MODE_TSNCTL, sim_duration_ns=3 * SEC,
                         spawn_interval_ns=100 * US, seed=5)
    run = run_scenario(cfg, 5)
    assert run_faults(run) == {name: [] for name in CHECKS}
    ctls = run.controllers
    assert all(c.state.status is Status.IN_PLATOON for c in ctls.values())
    masters = [v for v, c in ctls.items() if c.state.role is Role.MASTER]
    assert len(masters) == 1
    slots = [c.my_slot for c in ctls.values()]
    assert len(set(slots)) == len(slots)
    assert not ({0, 1, None} & set(slots))

    window = cfg.window.window_ns
    slot = cfg.window.slot_len_ns
    for vid, c in ctls.items():
        ins = [i for i, t in enumerate(c.transitions)
               if t[3].status is Status.IN_PLATOON]
        assert ins, f"vehicle {vid} never joined"
    data = [tx for tx in run.medium.log if tx.kind is FrameKind.DATA]
    assert data
    for tx in data:
        assert receivers_collided(tx) == 0
        idx = (tx.start % window) // slot
        allowed = {ctls[tx.sender].my_slot}
        if tx.sender == masters[0]:
            allowed.add(1)
        assert idx in allowed, f"frame from {tx.sender} outside its slots: {idx}"
