"""A run's outcome does not depend on the order of same-instant events.

Rerun under a kernel shuffle (`_shuffle`), which dispatches the events of one
instant in a seeded random order with spawns first, a run keeps every field
of its digest (`_util.run_digest`) but the log's sha256: the frames with
the messages they carry, the `results.csv` under each counting rule, and
every controller's and MAC's record. The golden grid's runs go through it
in `test_golden.py`; here it runs on random configs of both modes,
co-located and zero-latency ones among them.
"""

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from _shuffle import late_spawns, order_faults, shuffled
from _util import run_digest

from platoonsim.config import ConfigError
from platoonsim.csma import CsmaConfig
from platoonsim.kernel import MS, US
from platoonsim.radio import RadioConfig
from platoonsim.scenario import MODE_BASELINE, MODE_TSNCTL, ScenarioConfig, run_scenario
from platoonsim.tsnctl import WindowConfig

SALTS = (1, 2, 3)
# every vehicle at one spot with no detection latency: under a rule that
# senses a frame at the instant it starts, two MACs that decide at one
# instant race, and the one dispatched first is sensed by the other
RACE = ScenarioConfig(vehicle_count=3, mode=MODE_BASELINE, area_length_m=0.0,
                      message_interval_ns=2 * MS, sim_duration_ns=200 * MS, seed=1,
                      radio=RadioConfig(cca_detect_ns=0))


def _trace(cfg):
    return run_scenario(cfg, cfg.seed, trace=True).medium.kernel.trace


def test_the_shuffle_reorders_same_instant_events_and_runs_spawns_first():
    real = _trace(RACE)
    with shuffled(1):
        mixed = _trace(RACE)
    assert [(at, target, kind) for at, _seq, target, kind in mixed] != \
        [(at, target, kind) for at, _seq, target, kind in real]
    assert sorted((at, target, kind) for at, _seq, target, kind in mixed) == \
        sorted((at, target, kind) for at, _seq, target, kind in real)
    spawns = [(at, target) for at, _seq, target, kind in mixed if kind == "SPAWN"]
    assert spawns == [(at, target) for at, _seq, target, kind in real if kind == "SPAWN"]
    assert late_spawns(mixed) == []


@st.composite
def _configs(draw):
    """A small valid run of either mode on a coarse grid of times, so events
    meet at one instant; co-located and zero-latency configs among them."""
    cfg = ScenarioConfig(
        vehicle_count=draw(st.integers(2, 16)),
        mode=draw(st.sampled_from((MODE_BASELINE, MODE_TSNCTL))),
        spawn_interval_ns=draw(st.sampled_from((250 * US, 1 * MS, 50 * MS))),
        area_length_m=draw(st.sampled_from((0.0, 0.0, 50.0, 600.0))),
        message_interval_ns=draw(st.sampled_from((500 * US, 2 * MS, 20 * MS, 100 * MS))),
        payload_size_b=draw(st.sampled_from((100, 750, 800))),
        sim_duration_ns=draw(st.integers(100, 400)) * MS,
        seed=draw(st.integers(0, 2**32)),
        csma=CsmaConfig(cw_slots=draw(st.sampled_from((1, 2, 16))),
                        backoff_slot_ns=draw(st.sampled_from((13 * US, 800 * US)))),
        radio=RadioConfig(range_m=draw(st.sampled_from((150.0, 300.0))),
                          cca_detect_ns=draw(st.sampled_from((0, 4_000))),
                          preamble_ns=draw(st.sampled_from((0, 40_000)))),
        window=WindowConfig(slot_len_ns=draw(st.integers(1, 3)) * MS),
    )
    try:
        cfg.validate()
    except ConfigError:
        reject()
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=_configs())
@example(cfg=RACE)
def test_same_instant_order_leaves_random_runs_unchanged(cfg):
    assert order_faults(cfg, run_digest(run_scenario(cfg, cfg.seed)), SALTS) == []
