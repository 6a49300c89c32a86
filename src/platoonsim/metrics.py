"""Collision accounting, the overlap oracles, experiment batches, CSV output."""

from __future__ import annotations

import copy
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .frames import CONTROL_ALLOCATION, CONTROL_ANNOUNCE, DATA
from .radio import Position, RadioConfig
from .scenario import (COUNTING_RULES, MODE_BASELINE, MODE_TSNCTL, RunResult, ScenarioConfig,
                       run_scenario)


@dataclass(slots=True)
class CollisionStats:
    """A run's counts under its config's rule; per-reception counting counts receptions."""
    frames_sent: int = 0
    frames_collided: int = 0
    deferred_frames: int = 0
    rejected_joins: int = 0

    def rate(self) -> float:
        """Collided share in percent; nan when nothing was counted (undefined)."""
        if self.frames_sent == 0:
            return math.nan
        return 100.0 * self.frames_collided / self.frames_sent


def collect_stats(run: RunResult) -> CollisionStats:
    """Collision counts of a run under its config's rule, read off each transmission's two masks.

    Under `frames` a frame counts once, collided iff it collided at one or
    more receivers; `data_frames` counts data frames alone that way, and
    `receptions` counts each reception of every frame instead. A frame that
    nobody was in range to receive is left out of every count.
    """
    data_only, per_receiver = (run.cfg.counting == rule for rule in COUNTING_RULES[1:])
    sent = collided = 0
    for tx in run.medium.log:
        receivers = tx.receivers
        if not receivers or (data_only and tx.kind is not DATA):
            continue
        hit = tx.hit & receivers
        if per_receiver:
            sent += receivers.bit_count()
            collided += hit.bit_count()
        else:
            sent += 1
            collided += hit != 0
    deferred = (sum(mac.deferrals for mac in run.macs.values())
                + sum(ctl.deferred for ctl in run.controllers.values()))
    rejected = sum(ctl.rejected_joins for ctl in run.controllers.values())
    return CollisionStats(sent, collided, deferred, rejected)


# -- independent oracle --------------------------------------------------------
#
# Post-hoc checkers, structurally unrelated to the medium's online bookkeeping:
# they work from (sender, start, end) triples, vehicle positions and the range
# alone, never from the medium's neighbour table or its scan back from the
# tail of the log.
#
# The brute-force checker enumerates every transmission pair and applies the
# range rule per receiver. It is quadratic and serves tests as the reference.
# The sweep checker, used by `verify` and `oracle_check_run`, sorts the
# transmissions by start itself (it never trusts the log's order), scans
# forward from each one to the first that starts at or after its end, and
# applies the range rule as bitmasks over vehicles: O(T log T + pairs scanned
# + N^2) for T transmissions among N vehicles. The pairs scanned are the
# overlapping pairs, plus any zero-length frame paired with a frame that
# starts at the same instant.


def brute_force_outcomes(records: list[tuple[int, int, int]],
                         positions: dict[int, Position],
                         range_m: float,
                         spawn: dict[int, int] | None = None) -> list[dict[int, bool]]:
    """Per-transmission, per-receiver collided flags from (sender, start, end) triples.

    A vehicle can only receive frames broadcast at or after its spawn time;
    with no spawn map every vehicle is assumed present from time zero.
    """
    out: list[dict[int, bool]] = []
    for i, (sender_i, start_i, end_i) in enumerate(records):
        pos_i = positions[sender_i]
        flags: dict[int, bool] = {}
        for rid, rpos in positions.items():
            if rid == sender_i:
                continue
            if spawn is not None and spawn.get(rid, 0) > start_i:
                continue
            if pos_i.distance(rpos) > range_m:
                continue
            collided = False
            for j, (sender_j, start_j, end_j) in enumerate(records):
                if j == i:
                    continue
                if start_j < end_i and start_i < end_j \
                        and positions[sender_j].distance(rpos) <= range_m:
                    collided = True
                    break
            flags[rid] = collided
        out.append(flags)
    return out


def brute_force_flags(records: list[tuple[int, int, int]],
                      positions: dict[int, Position],
                      range_m: float,
                      spawn: dict[int, int] | None = None) -> list[bool | None]:
    """Sender-side collided flag per record; None when nobody was in range."""
    flags = []
    for outcome in brute_force_outcomes(records, positions, range_m, spawn):
        flags.append(any(outcome.values()) if outcome else None)
    return flags


def _sweep_masks(records: list[tuple[int, int, int]],
                 positions: dict[int, Position],
                 range_m: float,
                 spawn: dict[int, int]) -> list[tuple[int, int]]:
    """(receivers, collided receivers) per record, as bitmasks in which vehicle v is bit v.

    Same rule as brute_force_outcomes, for records in any order.
    """
    # heard_by[v]: the vehicles within range of v, v itself included, so an
    # overlapping transmission also ruins its own sender's reception
    heard_by = {a: sum(1 << b for b, pos_b in positions.items()
                       if pos_a.distance(pos_b) <= range_m)
                for a, pos_a in positions.items()}
    arrival = {vid: spawn.get(vid, 0) for vid in positions}
    by_spawn = sorted(positions, key=arrival.__getitem__)

    # Record i pairs with each record j after it in start order that starts
    # before i ends (start_i <= start_j < end_i); the pair overlaps iff j also
    # ends after i starts, which leaves out a zero-length j at start_i.
    n, vehicles = len(records), len(by_spawn)
    order = sorted(range(n), key=[start for _, start, _ in records].__getitem__)
    interferers = [0] * n               # vehicles in range of an overlapping sender
    receivers = [0] * n
    present = k = 0                     # the k vehicles spawned by the current start
    for after, i in enumerate(order, 1):
        sender, start, end = records[i]
        while k < vehicles and arrival[by_spawn[k]] <= start:
            present |= 1 << by_spawn[k]
            k += 1
        mask, hit = heard_by[sender], 0
        receivers[i] = mask & present & ~(1 << sender)
        for q in range(after, n):
            j = order[q]
            other, start_j, end_j = records[j]
            if start_j >= end:
                break
            if end_j > start:
                hit |= heard_by[other]
                interferers[j] |= mask
        interferers[i] |= hit
    return [(r, r & hit) for r, hit in zip(receivers, interferers)]


def oracle_check_run(run: RunResult) -> list[int]:
    """Indices of transmissions whose receivers or collided receivers disagree with the oracle."""
    medium = run.medium
    records = [(tx.sender, tx.start, tx.end) for tx in medium.log]
    positions = {spec.vid: spec.position for spec in run.specs}
    spawn = {spec.vid: spec.spawn_at for spec in run.specs}
    expected = _sweep_masks(records, positions, run.cfg.radio.range_m, spawn)
    return [i for i, (tx, want) in enumerate(zip(medium.log, expected))
            if (tx.receivers, tx.hit & tx.receivers) != want]


# -- experiment batches ----------------------------------------------------------


@dataclass(slots=True)
class ExperimentResult:
    cfg: ScenarioConfig
    per_repetition: list[CollisionStats]
    rates: list[float]
    mean_rate: float
    std_rate: float

    @classmethod
    def from_stats(cls, cfg: ScenarioConfig,
                   per_repetition: list[CollisionStats]) -> ExperimentResult:
        """Rates of the repetitions, and their mean and spread.

        One undefined (nan) rate makes the mean and the spread undefined too.
        """
        rates = [s.rate() for s in per_repetition]
        mean = statistics.fmean(rates)
        if math.isnan(mean):
            std = math.nan          # statistics.stdev raises on nan
        else:
            std = statistics.stdev(rates) if len(rates) > 1 else 0.0
        return cls(cfg, per_repetition, rates, mean, std)


def run_experiment(cfg: ScenarioConfig, log_dir: str | Path | None = None) -> ExperimentResult:
    """Run the config's repetitions on seeds seed, seed+1, ..., one at a time:
    each run is freed, by reference counting, before the next starts.

    With `log_dir`, each repetition's transmission log is written there as
    `transmissions_rep<k>.log`.
    """
    cfg.validate()
    per_repetition = []
    for k in range(cfg.repetitions):
        run = run_scenario(cfg, cfg.seed + k)
        per_repetition.append(collect_stats(run))
        if log_dir is not None:
            write_transmission_log(run, Path(log_dir) / f"transmissions_rep{k}.log")
        del run
    return ExperimentResult.from_stats(cfg, per_repetition)


CSV_HEADER = ("mode,vehicles,slot_len_ns,window_ns,payload_B,spawn_interval_ns,"
              "seed,frames_sent,frames_collided,collision_rate_pct,deferred,rejected")


def emit_csv(result: ExperimentResult, path: str | Path) -> None:
    cfg = result.cfg
    lines = [CSV_HEADER]
    prefix = (f"{cfg.mode},{cfg.vehicle_count},{cfg.window.slot_len_ns},"
              f"{cfg.window.window_ns},{cfg.payload_size_b},{cfg.spawn_interval_ns}")
    for k, s in enumerate(result.per_repetition):
        lines.append(
            f"{prefix},{cfg.seed + k},{s.frames_sent},{s.frames_collided},"
            f"{result.rates[k]:.2f},{s.deferred_frames},{s.rejected_joins}"
        )
    mean_sent, mean_coll, mean_def, mean_rej = (
        statistics.fmean(getattr(s, name) for s in result.per_repetition)
        for name in CollisionStats.__slots__)
    lines.append(
        f"{prefix},{cfg.seed},{mean_sent:.2f},{mean_coll:.2f},"
        f"{result.mean_rate:.2f},{mean_def:.2f},{mean_rej:.2f}"
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


SWEEP_AXES = ("platoon_size", "packet_size", "slot_len")
SLOT_SWEEP_NS = (1_000_000, 2_000_000, 3_000_000)


def _cfg_for(base: ScenarioConfig, axis: str, value: int, mode: str,
             slot_len_ns: int | None) -> ScenarioConfig:
    cfg = copy.deepcopy(base)
    cfg.mode = mode
    if axis == "platoon_size":
        cfg.vehicle_count = value
    elif axis == "packet_size":
        cfg.payload_size_b = value
    else:
        slot_len_ns = value
    if slot_len_ns is not None:
        cfg.window.slot_len_ns = slot_len_ns
    return cfg


def sweep(axis: str, values: list[int],
          base: ScenarioConfig) -> list[tuple[int, str, int | None, ExperimentResult]]:
    """Run baseline plus the controller at each SLOT_SWEEP_NS slot length for every axis value.

    Returns rows of (axis value, mode, slot_len_ns, result), ordered by
    (value, mode, slot length) for deterministic output. Baseline rows have
    no slot length (None): CSMA does not use slots, so a slot_len sweep runs
    its baseline once and repeats that result in every baseline row.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    out: list[tuple[int, str, int | None, ExperimentResult]] = []
    baseline = None
    for value in values:
        if baseline is None or axis != "slot_len":
            baseline = run_experiment(_cfg_for(base, axis, value, MODE_BASELINE, None))
        out.append((value, MODE_BASELINE, None, baseline))
        tsn_slots = (None,) if axis == "slot_len" else SLOT_SWEEP_NS
        for slot in tsn_slots:
            cfg_t = _cfg_for(base, axis, value, MODE_TSNCTL, slot)
            out.append((value, MODE_TSNCTL, cfg_t.window.slot_len_ns, run_experiment(cfg_t)))
    return out


SWEEP_HEADER = ("axis,value,mode,slot_len_ns,repetition,seed,frames_sent,"
                "frames_collided,collision_rate_pct,mean_rate_pct,std_rate_pct")


def emit_sweep_csv(axis: str, rows: list[tuple[int, str, int | None, ExperimentResult]],
                   path: str | Path) -> None:
    """One line per repetition; a baseline row leaves slot_len_ns empty."""
    lines = [SWEEP_HEADER]
    for value, mode, slot_len, result in rows:
        slot = "" if slot_len is None else slot_len
        for k, s in enumerate(result.per_repetition):
            lines.append(
                f"{axis},{value},{mode},{slot},{k},{result.cfg.seed + k},"
                f"{s.frames_sent},{s.frames_collided},{result.rates[k]:.2f},"
                f"{result.mean_rate:.2f},{result.std_rate:.2f}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# -- transmission log ------------------------------------------------------------
#
# Line format: sender start_ns end_ns size_B kind collided, preceded by header
# comments carrying the radio parameters and vehicle positions so the log is
# self-contained for oracle replay.

LOG_VERSION = "platoonsim transmission log v1"
# the radio header's keys, in the order written, each with its parser
LOG_RADIO = {"range_m": float, "data_rate_bps": int, "propagation_mps": float, "preamble_ns": int}
# the label of each frame kind in a record
KIND_LABELS = {CONTROL_ANNOUNCE: "control-announce", CONTROL_ALLOCATION: "control-allocation",
               DATA: "data"}


def write_transmission_log(run: RunResult, path: str | Path) -> None:
    """Write the run's header lines, then one record per frame of the medium's log.

    A record's collided flag is read off the frame's two masks, as
    `collect_stats` and `oracle_check_run` read them: set iff its interferer
    mask meets its receivers mask.
    """
    radio = run.cfg.radio
    lines = [f"# {LOG_VERSION}",
             "# radio " + " ".join(f"{key}={getattr(radio, key)!r}" for key in LOG_RADIO)]
    for spec in run.specs:
        lines.append(f"# vehicle {spec.vid} {spec.position.x!r} {spec.position.y!r} "
                     f"{spec.spawn_at}")
    lines.append("# sender start_ns end_ns size_B kind collided")
    labels = KIND_LABELS
    lines += [f"{tx.sender} {tx.start} {tx.end} {tx.size} {labels[tx.kind]} "
              f"{1 if tx.hit & tx.receivers else 0}" for tx in run.medium.log]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass(slots=True)
class LoadedLog:
    radio: RadioConfig
    positions: dict[int, Position]
    spawn: dict[int, int]
    records: list[tuple[int, int, int]]         # sender, start, end
    collided: list[bool]


def load_transmission_log(path: str | Path) -> LoadedLog:
    """Parse a transmission log; raise ValueError on any malformed or missing part."""
    radio: RadioConfig | None = None
    positions: dict[int, Position] = {}
    spawn: dict[int, int] = {}
    records: list[tuple[int, int, int]] = []
    collided: list[bool] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            duplicate = False
            try:
                if parts[:1] == ["radio"]:
                    duplicate = radio is not None
                    kv = dict(p.split("=", 1) for p in parts[1:])
                    # the keys written, once each
                    if len(parts) != len(LOG_RADIO) + 1 or kv.keys() != LOG_RADIO.keys():
                        raise ValueError
                    radio = RadioConfig(**{key: read(kv[key]) for key, read in LOG_RADIO.items()})
                    radio.validate()
                elif parts[:1] == ["vehicle"]:
                    _, vid, x, y, at = parts
                    vid, x, y, at = int(vid), float(x), float(y), int(at)
                    duplicate = vid in positions
                    if not (math.isfinite(x) and math.isfinite(y)) or at < 0:
                        raise ValueError
                    positions[vid], spawn[vid] = Position(x, y), at
            except (IndexError, KeyError, ValueError):
                raise ValueError(
                    f"line {lineno}: malformed {parts[0]} header {line!r}") from None
            if duplicate:
                raise ValueError(f"line {lineno}: duplicate {parts[0]} header {line!r}")
            continue
        try:
            sender, start, end, size, kind, flag = line.split()
            sender, start, end = int(sender), int(start), int(end)
            if int(size) < 0 or kind not in KIND_LABELS.values() or flag not in ("0", "1"):
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: malformed record {line!r}") from None
        if end < start:
            raise ValueError(f"line {lineno}: transmission ends before it starts")
        records.append((sender, start, end))
        collided.append(flag == "1")
    if radio is None:
        raise ValueError("log has no '# radio' header")
    unknown = sorted({sender for sender, _, _ in records} - positions.keys())
    if unknown:
        raise ValueError(f"no '# vehicle' line for sender(s) {unknown}")
    # vehicle v is bit v of the oracle's masks, so an id bounds their width;
    # a run numbers its n vehicles 0 to n - 1
    stray = sorted(positions.keys() - range(len(positions)))
    if stray:
        raise ValueError(f"vehicle ids must be 0 to {len(positions) - 1}, one per "
                         f"'# vehicle' line; got {stray}")
    return LoadedLog(radio, positions, spawn, records, collided)


class FlagMismatch(NamedTuple):
    index: int      # position of the record in the log
    sender: int
    start: int
    logged: bool    # the oracle's flag is the opposite


def verify_log(path: str | Path) -> list[FlagMismatch]:
    """Replay a saved log through the oracle; return the records whose flag disagrees.

    The expected flag is set iff the frame collided at one or more receivers,
    so it is clear for a frame nobody was in range to receive.
    """
    log = load_transmission_log(path)
    masks = _sweep_masks(log.records, log.positions, log.radio.range_m, log.spawn)
    bad = []
    for i, (sender, start, _end) in enumerate(log.records):
        _receivers, collided = masks[i]
        if log.collided[i] != bool(collided):
            bad.append(FlagMismatch(i, sender, start, log.collided[i]))
    return bad
