"""The run checks: what every run must hold beyond the output its digest pins.

`CHECKS` lists them in order. Each maps a run, its digest
(`_util.run_digest`) and the kernel shuffle's salts to the list of its
faults, empty on a sound run: the overlap oracle
(`metrics.oracle_check_run`), the carrier-sense oracle (`_carrier_sense`),
the window clock's two facts (`window_clock_faults`) and the kernel shuffle
(`_shuffle.order_faults`). The golden grid runs every check on each point,
`test_checks.py` on each random draw, and `tools/equivalence.py` on both
sides of each sweep config, so a new check is one entry here. The sweep's
base side passes no salt, so `order_free` reruns nothing there.
"""

from __future__ import annotations

from _carrier_sense import run_sensed_busy
from _shuffle import order_faults
from _util import run_digest

from platoonsim.frames import CONTROL_ALLOCATION, CONTROL_ANNOUNCE
from platoonsim.metrics import oracle_check_run
from platoonsim.scenario import MODE_TSNCTL

# the kernel shuffle's salts on the golden grid and the random draw
SALTS = (1, 2, 3)


def window_clock_faults(run) -> list[int]:
    """Indices of the slot-controller frames that break what the window clock rests on.

    Only announces start before the end of slot 0 plus the guard
    (`max_delay`), and each announce fits slot 0, so the clock can take a
    window's announces from where the window opened in the log. Every
    announce and allocation carries its sender's `created_at`, so a
    controller can tell its master's frames by election key alone. A
    baseline run has none.
    """
    cfg = run.cfg
    if cfg.mode != MODE_TSNCTL:
        return []
    window, slot = cfg.window.window_ns, cfg.window.slot_len_ns
    slot0_end = slot + cfg.radio.max_delay
    faults = []
    for i, tx in enumerate(run.medium.log):
        offset = tx.start % window
        if tx.kind is CONTROL_ANNOUNCE:
            sound = offset + tx.end - tx.start <= slot
        else:
            sound = offset >= slot0_end
        if tx.kind in (CONTROL_ANNOUNCE, CONTROL_ALLOCATION):
            sound = sound and tx.generated_at == run.controllers[tx.sender].created_at
        if not sound:
            faults.append(i)
    return faults


CHECKS = {
    "oracle": lambda run, digest, salts: oracle_check_run(run),
    "carrier_sense": lambda run, digest, salts: run_sensed_busy(run),
    "window_clock": lambda run, digest, salts: window_clock_faults(run),
    "order_free": lambda run, digest, salts: order_faults(run.cfg, digest, salts),
}


def run_faults(run, salts=SALTS, digest: dict | None = None) -> dict[str, list]:
    """Every check's faults on a run made under its config's seed, by check
    name; `digest` is the run's `run_digest`, computed here if not given."""
    digest = run_digest(run) if digest is None else digest
    return {name: check(run, digest, salts) for name, check in CHECKS.items()}
