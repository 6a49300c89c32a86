"""The kernel shuffle (`_shuffle`): it dispatches the events of one instant
in a seeded random order, spawns first. `_checks.CHECKS` runs it on every
run as the check `order_free`."""

from _shuffle import RACE, late_spawns, shuffled

from platoonsim.scenario import run_scenario


def test_the_shuffle_reorders_same_instant_events_and_runs_spawns_first():
    real = run_scenario(RACE, RACE.seed, trace=True).medium.kernel.trace
    with shuffled(1):
        mixed = run_scenario(RACE, RACE.seed, trace=True).medium.kernel.trace
    assert [(at, target, kind) for at, _seq, target, kind in mixed] != \
        [(at, target, kind) for at, _seq, target, kind in real]
    assert sorted((at, target, kind) for at, _seq, target, kind in mixed) == \
        sorted((at, target, kind) for at, _seq, target, kind in real)
    spawns = [(at, target) for at, _seq, target, kind in mixed if kind == "SPAWN"]
    assert spawns == [(at, target) for at, _seq, target, kind in real if kind == "SPAWN"]
    assert late_spawns(mixed) == []
