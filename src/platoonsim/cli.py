"""Command-line harness: run experiments, sweep axes, verify saved logs."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .metrics import SWEEP_AXES, emit_csv, emit_sweep_csv, run_experiment, sweep, verify_log
from .scenario import MODE_BASELINE

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: its object graph is cyclic."""
    parser = argparse.ArgumentParser(
        prog="platoonsim",
        description="Slot-scheduled V2V platooning simulator and CSMA/CA baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment (repetition batch)")
    run_p.add_argument("--config", required=True, help="scenario config file")
    run_p.add_argument("--seed", type=int, default=None, help="override base seed")
    run_p.add_argument("--repetitions", type=int, default=None,
                       help="override repetition count")
    run_p.add_argument("--out", default=".", help="output directory")

    sweep_p = sub.add_parser("sweep", help="sweep one axis over a value list")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated integer values")
    sweep_p.add_argument("--config", required=True, help="base scenario config file")
    sweep_p.add_argument("--out", default=".", help="output directory")

    verify_p = sub.add_parser("verify", help="replay a transmission log through the oracle")
    verify_p.add_argument("--log", required=True, help="transmission log file")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.repetitions is not None:
        cfg.repetitions = args.repetitions
    cfg.validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(cfg, out)
    emit_csv(result, out / "results.csv")
    slot = "-" if cfg.mode == MODE_BASELINE else f"{cfg.window.slot_len_ns} ns"
    print(f"{cfg.mode}: {cfg.vehicle_count} vehicles, "
          f"slot {slot}, payload {cfg.payload_size_b} B -> "
          f"mean collision rate {result.mean_rate:.2f}% "
          f"(std {result.std_rate:.2f}) over {cfg.repetitions} repetitions")
    print(f"wrote {out / 'results.csv'}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {exc}") from None
    if not values:
        raise ConfigError("--values must name at least one value")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep(args.axis, values, cfg)
    path = out / f"sweep_{args.axis}.csv"
    emit_sweep_csv(args.axis, rows, path)
    for value, mode, slot_len, result in rows:
        print(f"{args.axis}={value} {mode} slot={'-' if slot_len is None else slot_len}: "
              f"mean {result.mean_rate:.2f}% std {result.std_rate:.2f}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        bad = verify_log(args.log)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot verify {args.log}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if bad:
        print(f"{len(bad)} transmission(s) disagree with the overlap oracle:")
        for m in bad[:20]:
            print(f"  index {m.index}: sender {m.sender}, start {m.start} ns, "
                  f"logged collided={int(m.logged)}, oracle collided={int(not m.logged)}")
        if len(bad) > 20:
            print(f"  ... and {len(bad) - 20} more")
        return EXIT_RUNTIME
    print("all logged collision flags match the overlap oracle")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure -> exit 1, per CLI contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
