"""Independent check of platoonsim transmission logs and results.csv.

The benchmark checks every log a workload writes with this sweep-line
oracle. It imports nothing from platoonsim: it parses the log text itself
and applies the collision rule from the log's own header (radio range,
vehicle positions, spawn times). A reception of transmission i at receiver r
collided iff some other transmission j overlaps i on air and r is within
range of j's sender (a sender is in range of itself, so half-duplex counts).
Only vehicles spawned at or before i's start can receive it. The logged
flag is sender-side: set iff the frame collided at one or more receivers,
and never set when nobody was in range.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


@dataclass(slots=True)
class ParsedLog:
    range_m: float
    vehicles: dict[int, tuple[float, float, int]]   # vid -> (x, y, spawn_ns)
    records: list[tuple[int, int, int, bool]]       # sender, start, end, flag


@dataclass(slots=True)
class LogCheck:
    tx: int             # transmissions in the log
    collided: int       # transmissions whose logged flag is set
    sent: int           # transmissions with at least one receiver in range
    bad: list[int]      # indices whose logged flag disagrees with the oracle


def parse_log(text: str) -> ParsedLog:
    range_m = None
    vehicles: dict[int, tuple[float, float, int]] = {}
    records: list[tuple[int, int, int, bool]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["radio"]:
                fields = dict(p.split("=", 1) for p in parts[1:])
                range_m = float(fields["range_m"])
            elif parts[:1] == ["vehicle"]:
                vehicles[int(parts[1])] = (float(parts[2]), float(parts[3]),
                                           int(parts[4]))
            continue
        sender, start, end, _size, _kind, flag = line.split()
        if flag not in ("0", "1"):
            raise ValueError(f"bad collided flag {flag!r}")
        records.append((int(sender), int(start), int(end), flag == "1"))
    if range_m is None:
        raise ValueError("log has no radio header")
    return ParsedLog(range_m, vehicles, records)


def expected_flags(log: ParsedLog) -> list[bool | None]:
    """Oracle flag per record; None when no spawned vehicle was in range."""
    vids = sorted(log.vehicles)
    bit = {vid: 1 << k for k, vid in enumerate(vids)}
    # Range sets as bitmasks over vehicle index; each vehicle hears itself.
    heard_by = {}
    for a in vids:
        ax, ay, _ = log.vehicles[a]
        mask = 0
        for b in vids:
            bx, by, _ = log.vehicles[b]
            if math.hypot(ax - bx, ay - by) <= log.range_m:
                mask |= bit[b]
        heard_by[a] = mask
    by_spawn = sorted(vids, key=lambda v: log.vehicles[v][2])
    spawn_times = [log.vehicles[v][2] for v in by_spawn]
    spawned = [0]                   # spawned[k] = mask of the first k spawns
    for v in by_spawn:
        spawned.append(spawned[-1] | bit[v])

    records = log.records
    order = sorted(range(len(records)), key=lambda i: records[i][1])
    starts = [records[i][1] for i in order]
    max_dur = max((end - start for _, start, end, _ in records), default=0)

    out: list[bool | None] = []
    for i, (sender, start, end, _flag) in enumerate(records):
        present = spawned[bisect_right(spawn_times, start)]
        receivers = heard_by[sender] & present & ~bit[sender]
        if not receivers:
            out.append(None)
            continue
        # j overlaps i iff start_j < end and end_j > start; since
        # end_j <= start_j + max_dur, only start_j > start - max_dur can.
        lo = bisect_right(starts, start - max_dur)
        hi = bisect_left(starts, end)
        interfered = 0
        for j in order[lo:hi]:
            if j != i and records[j][2] > start:
                interfered |= heard_by[records[j][0]]
        out.append(bool(receivers & interfered))
    return out


def check_log(text: str) -> LogCheck:
    log = parse_log(text)
    bad = []
    sent = 0
    for i, want in enumerate(expected_flags(log)):
        got = log.records[i][3]
        if want is None:
            if got:
                bad.append(i)
            continue
        sent += 1
        if got != want:
            bad.append(i)
    collided = sum(flag for *_, flag in log.records)
    return LogCheck(len(log.records), collided, sent, bad)


def check_results_csv(text: str, logs: dict[int, LogCheck]) -> list[str]:
    """Compare each per-repetition row of results.csv with its checked log.

    `logs` maps a repetition's seed to the check of its log. Returns a list
    of disagreements; the trailing mean row is not compared.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != len(logs) + 1:
        problems.append(f"results.csv has {len(rows)} rows for {len(logs)} logs")
        return problems
    for row in rows[:-1]:
        seed = int(row["seed"])
        log = logs.get(seed)
        if log is None:
            problems.append(f"results.csv row for seed {seed} has no log")
            continue
        if int(row["frames_sent"]) != log.sent:
            problems.append(f"seed {seed}: frames_sent {row['frames_sent']} != {log.sent}")
        if int(row["frames_collided"]) != log.collided:
            problems.append(
                f"seed {seed}: frames_collided {row['frames_collided']} != {log.collided}")
    return problems
