import gc
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from _util import recount

import platoonsim.config
import platoonsim.scenario
from platoonsim import metrics
from platoonsim.cli import main
from platoonsim.config import load_config
from platoonsim.csma import CsmaConfig
from platoonsim.kernel import MS, SEC
from platoonsim.metrics import emit_csv, emit_sweep_csv, run_experiment, write_transmission_log
from platoonsim.radio import RadioConfig
from platoonsim.scenario import COUNTING_RULES, ScenarioConfig, run_scenario
from platoonsim.tsnctl import WindowConfig

GOOD_CONFIG = """\
[scenario]
vehicle_count = 4
spawn_interval_ns = 1000000
message_interval_ns = 100000000
payload_size_b = 800
mode = baseline
sim_duration_ns = 1000000000
seed = 7
repetitions = 2

[window]
window_ns = 100000000
slot_len_ns = 2000000
"""


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


def test_run_writes_results_and_logs(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "transmissions_rep0.log").exists()
    assert (out / "transmissions_rep1.log").exists()
    assert "mean collision rate" in capsys.readouterr().out


def test_run_prints_slot_length_only_for_tsnctl(tmp_path, capsys):
    # the baseline uses no slots, so its summary names none
    cfg = _write(tmp_path, GOOD_CONFIG)
    assert main(["run", "--config", str(cfg), "--repetitions", "1",
                 "--out", str(tmp_path / "b")]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("baseline: 4 vehicles, slot -, payload 800 B -> ")
    cfg = _write(tmp_path, GOOD_CONFIG.replace("mode = baseline", "mode = tsnctl"))
    assert main(["run", "--config", str(cfg), "--repetitions", "1",
                 "--out", str(tmp_path / "t")]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("tsnctl: 4 vehicles, slot 2000000 ns, payload 800 B -> ")


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, GOOD_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "transmissions_rep0.log").read_bytes() == \
        (b / "transmissions_rep0.log").read_bytes()


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG + "\n[scenario]\nwarp_factor = 9\n")
    # configparser rejects the duplicate section before our schema does
    assert main(["run", "--config", str(cfg)]) == 2
    cfg2 = _write(tmp_path, GOOD_CONFIG.replace("seed = 7", "seed = 7\nwarp_factor = 9"))
    assert main(["run", "--config", str(cfg2)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, section", [
    ("[warp]\nfactor = 9\n", "warp"),
    # [DEFAULT] is no section of ours: alone it would run on the defaults,
    # and beside another its keys would land in that section
    ("[DEFAULT]\nvehicle_count = 3\n", "DEFAULT"),
    ("[DEFAULT]\nvehicle_count = 3\n[scenario]\nmode = tsnctl\n", "DEFAULT"),
    ("[DEFAULT]\n", "DEFAULT"),
], ids=["unknown", "default-alone", "default-beside-scenario", "empty-default"])
def test_unknown_section_exits_2_naming_it(tmp_path, capsys, text, section):
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config section [{section}]\n"
    assert not out.exists()


def test_unparsable_value_exits_2_naming_the_key(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG.replace("vehicle_count = 4", "vehicle_count = abc"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: bad value for [scenario] vehicle_count = 'abc': ")


def test_runtime_failure_exits_1(tmp_path, capsys):
    # the output directory cannot be made under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write(tmp_path, GOOD_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(blocker / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_mode_exits_2(tmp_path):
    cfg = _write(tmp_path, GOOD_CONFIG.replace("mode = baseline", "mode = aloha"))
    assert main(["run", "--config", str(cfg)]) == 2


def test_degenerate_window_exits_2(tmp_path):
    bad = GOOD_CONFIG.replace("slot_len_ns = 2000000", "slot_len_ns = 60000000")
    cfg = _write(tmp_path, bad)
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key, value, message", [("seed", "-1", "seed must be >= 0"),
                                                 ("repetitions", "0", "repetitions must be >= 1")])
def test_out_of_range_seed_or_repetitions_exits_2_naming_the_key(tmp_path, capsys,
                                                                 key, value, message):
    out = tmp_path / "out"
    cfg = _write(tmp_path, GOOD_CONFIG)
    assert main(["run", "--config", str(cfg), f"--{key}", value, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    default = next(line for line in GOOD_CONFIG.splitlines() if line.startswith(f"{key} ="))
    cfg = _write(tmp_path, GOOD_CONFIG.replace(default, f"{key} = {value}"))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()         # rejected before anything is written


# nan and inf in each key, finite radio values whose propagation delay across
# the range overflows, and a propagation speed of zero
NON_FINITE = [(section, key, value)
              for section, key in [("scenario", "area_length_m"), ("radio", "range_m"),
                                   ("radio", "propagation_mps")]
              for value in ("nan", "inf")] + [("radio", "range_m", "1e300"),
                                              ("radio", "propagation_mps", "1e-300"),
                                              ("radio", "propagation_mps", "0")]


@pytest.mark.parametrize("mode", ["baseline", "tsnctl"])
@pytest.mark.parametrize("section, key, value", NON_FINITE)
def test_non_finite_float_exits_2_naming_the_key(tmp_path, capsys, section, key, value, mode):
    text = GOOD_CONFIG.replace("mode = baseline", f"mode = {mode}") + "\n[radio]\n"
    cfg = _write(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if value in ("nan", "inf"):
        assert f"config error: {key} must be finite" in err
    elif value == "0":
        assert f"config error: {key} must be finite and > 0, got 0.0" in err
    else:       # both keys are named
        assert "config error: range_m=" in err
        assert "at propagation_mps=" in err and "gives a non-finite propagation delay" in err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, GOOD_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "7"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "8"]) == 0
    assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()


def test_sweep_writes_long_csv(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--axis", "platoon_size", "--values", "3,4",
                 "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "sweep_platoon_size.csv").read_text()
    assert text.startswith("axis,value,mode")
    assert "platoon_size,3,baseline,,0," in text
    assert "platoon_size,4,tsnctl,2000000,0," in text
    printed = capsys.readouterr().out
    assert "platoon_size=3 baseline slot=-:" in printed
    assert "platoon_size=3 tsnctl slot=2000000:" in printed


def test_sweep_bad_values_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    for values, message in [("3,x", "bad --values list: "), ("1.5", "bad --values list: "),
                            (",", "--values must name at least one value")]:
        assert main(["sweep", "--axis", "platoon_size", "--values", values,
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}"), values
    assert not out.exists()


def test_verify_accepts_generated_log_and_rejects_tampered(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    log = out / "transmissions_rep0.log"
    capsys.readouterr()
    assert main(["verify", "--log", str(log)]) == 0
    assert capsys.readouterr().out == "all logged collision flags match the overlap oracle\n"

    lines = log.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    fields = lines[idx].split()
    fields[-1] = "1" if fields[-1] == "0" else "0"
    lines[idx] = " ".join(fields)
    log.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--log", str(log)]) == 1


def test_verify_leaves_nothing_for_the_collector(tmp_path, capsys):
    """The parser is built once per process, so a later call makes no cyclic garbage."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write(tmp_path, GOOD_CONFIG)), "--out", str(out)]) == 0
    argv = ["verify", "--log", str(out / "transmissions_rep0.log")]
    assert main(argv) == 0
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_run_leaves_only_the_config_parsers_garbage(tmp_path, capsys):
    """`configparser.ConfigParser` is cyclic (each section proxy holds converter
    partials that point back to it), so every `load_config` leaves its parser
    for the next full collection: 47 objects on CPython 3.11. `run` leaves
    exactly as many, so it adds no cyclic garbage of its own."""
    cfg = _write(tmp_path, GOOD_CONFIG)
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    load_config(cfg)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        after_run = gc.collect()
        load_config(cfg)
        assert gc.collect() == after_run
    finally:
        if was:
            gc.enable()


def test_run_simulates_each_repetition_once(tmp_path, monkeypatch):
    seeds = []

    def counting_run_scenario(cfg, seed, **kwargs):
        seeds.append(seed)
        return run_scenario(cfg, seed, **kwargs)

    monkeypatch.setattr(metrics, "run_scenario", counting_run_scenario)
    cfg_path = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--repetitions", "3",
                 "--out", str(out)]) == 0
    assert seeds == [7, 8, 9]

    ref = tmp_path / "ref"
    ref.mkdir()
    cfg = load_config(cfg_path)
    cfg.repetitions = 3
    emit_csv(run_experiment(cfg), ref / "results.csv")
    for k in range(3):
        write_transmission_log(run_scenario(cfg, cfg.seed + k), ref / f"transmissions_rep{k}.log")
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ref.iterdir())
    for p in ref.iterdir():
        assert (out / p.name).read_bytes() == p.read_bytes()


def _csv_rows(path: Path, mode_col: int) -> dict[str, list[list[str]]]:
    """The repetition rows of a results or sweep CSV, by mode."""
    rows: dict[str, list[list[str]]] = {}
    for line in path.read_text().splitlines()[1:]:
        row = line.split(",")
        rows.setdefault(row[mode_col], []).append(row)
    return rows


@pytest.mark.parametrize("rule", COUNTING_RULES)
@pytest.mark.parametrize("mode", ["baseline", "tsnctl"])
def test_run_and_sweep_count_alike_under_each_rule(tmp_path, mode, rule):
    text = (GOOD_CONFIG.replace("mode = baseline", f"mode = {mode}")
            + f"\n[metrics]\ncounting = {rule}\n")
    cfg_path = _write(tmp_path, text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--axis", "slot_len", "--values", "2000000",
                 "--config", str(cfg_path), "--out", str(tmp_path / "sweep")]) == 0
    # results.csv ends with its summary row; a slot_len sweep holds one row per
    # mode and repetition
    ran = _csv_rows(tmp_path / "run" / "results.csv", 0)[mode][:-1]
    swept = _csv_rows(tmp_path / "sweep" / "sweep_slot_len.csv", 2)[mode]
    cfg = load_config(cfg_path)
    assert len(ran) == len(swept) == cfg.repetitions
    for k, (r, s) in enumerate(zip(ran, swept)):
        sent, collided = recount(run_scenario(cfg, cfg.seed + k).medium.log, rule)
        rate = f"{100.0 * collided / sent:.2f}" if sent else "nan"
        assert r[7:10] == s[6:9] == [str(sent), str(collided), rate], (k, r, s)


def test_verify_names_each_disagreeing_transmission(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    log = out / "transmissions_rep0.log"
    lines = log.read_text().splitlines()
    records = [l.split() for l in lines if not l.startswith("#")]
    assert len(records) > 20
    flipped = [l if l.startswith("#") else l[:-1] + ("1" if l[-1] == "0" else "0")
               for l in lines]
    log.write_text("\n".join(flipped) + "\n")
    capsys.readouterr()
    assert main(["verify", "--log", str(log)]) == 1
    shown = capsys.readouterr().out.splitlines()
    assert shown[0] == f"{len(records)} transmission(s) disagree with the overlap oracle:"
    sender, start, _end, _size, _kind, flag = records[0]
    assert shown[1] == (f"  index 0: sender {sender}, start {start} ns, "
                        f"logged collided={1 - int(flag)}, oracle collided={flag}")
    assert len(shown) == 1 + 20 + 1
    assert shown[-1] == f"  ... and {len(records) - 20} more"


def test_verify_rejects_log_without_radio_header(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    log = out / "transmissions_rep0.log"
    lines = [l for l in log.read_text().splitlines() if not l.startswith("# radio")]
    log.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--log", str(log)]) == 1
    assert "log has no '# radio' header" in capsys.readouterr().err


def test_verify_missing_log_exits_1(tmp_path):
    assert main(["verify", "--log", str(tmp_path / "none.log")]) == 1


ALL_KEYS_CONFIG = """\
[scenario]
vehicle_count = 4
spawn_interval_ns = 2000000
area_length_m = 150.0
message_interval_ns = 50000000
payload_size_b = 700
mode = baseline
sim_duration_ns = 1000000000
seed = 7
repetitions = 2

[window]
window_ns = 60000000
slot_len_ns = 3000000

[radio]
range_m = 250.0
data_rate_bps = 12000000
propagation_mps = 299792458
preamble_ns = 40000
cca_detect_ns = 8000

[csma]
cw_slots = 16
backoff_slot_ns = 13000

[metrics]
counting = receptions
"""


def test_all_module_sections_parse(tmp_path):
    cfg = _write(tmp_path, ALL_KEYS_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    parsed = load_config(cfg)
    assert parsed == ScenarioConfig(
        vehicle_count=4, spawn_interval_ns=2 * MS, area_length_m=150.0,
        message_interval_ns=50 * MS, payload_size_b=700,
        mode="baseline", sim_duration_ns=SEC, seed=7, repetitions=2,
        window=WindowConfig(window_ns=60 * MS, slot_len_ns=3 * MS),
        radio=RadioConfig(range_m=250.0, data_rate_bps=12_000_000,
                          propagation_mps=299_792_458.0, preamble_ns=40_000,
                          cca_detect_ns=8_000),
        csma=CsmaConfig(cw_slots=16, backoff_slot_ns=13_000),
        counting="receptions",
    )
    # every key parsed to the default's type, and off its default
    default = ScenarioConfig()
    landed = set()
    for obj, ref in [(parsed, default)] + [(getattr(parsed, n), getattr(default, n))
                                           for n in ("window", "radio", "csma")]:
        for f in fields(ref):
            value, dflt = getattr(obj, f.name), getattr(ref, f.name)
            if not is_dataclass(dflt):
                assert type(value) is type(dflt), f.name
                assert value != dflt, f.name
                landed.add(f.name)
    # each of the 19 keys landed off its default in a config that validates
    assert len(landed) == 19


@pytest.mark.parametrize("line, message", [
    ("counting = bogus", "counting must be one of frames, data_frames, receptions"),
    ("count_control_frames = false", "unknown key 'count_control_frames' in section [metrics]"),
])
def test_bad_counting_key_exits_2(tmp_path, capsys, line, message):
    text = GOOD_CONFIG + f"\n[metrics]\n{line}\n"
    assert main(["run", "--config", str(_write(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err


@pytest.mark.parametrize("line", ["counting = receptions", "slot_len_ns = 1000000"])
def test_key_of_another_section_under_scenario_exits_2(tmp_path, capsys, line):
    cfg = _write(tmp_path, GOOD_CONFIG.replace("seed = 7", f"seed = 7\n{line}"))
    assert main(["run", "--config", str(cfg)]) == 2
    key = line.split()[0]
    assert f"config error: unknown key {key!r} in section [scenario]" in capsys.readouterr().err


def test_slot_len_sweep_runs_its_baseline_once(tmp_path, monkeypatch):
    runs = []

    def counting_run_experiment(cfg):
        runs.append((cfg.mode, cfg.window.slot_len_ns))
        return run_experiment(cfg)

    monkeypatch.setattr(metrics, "run_experiment", counting_run_experiment)
    # eight vehicles, so that the baseline rows hold collisions
    cfg_path = _write(tmp_path, GOOD_CONFIG.replace("vehicle_count = 4", "vehicle_count = 8"))
    values = (1 * MS, 2 * MS, 3 * MS)
    assert main(["sweep", "--axis", "slot_len", "--values", ",".join(map(str, values)),
                 "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert runs == [("baseline", 1 * MS)] + [("tsnctl", v) for v in values]

    # the same CSV as one baseline experiment per value
    rows = []
    for v in values:
        for mode in ("baseline", "tsnctl"):
            cfg = load_config(cfg_path)
            cfg.mode, cfg.window.slot_len_ns = mode, v
            rows.append((v, mode, v if mode == "tsnctl" else None, run_experiment(cfg)))
    emit_sweep_csv("slot_len", rows, tmp_path / "ref.csv")
    assert (tmp_path / "sweep_slot_len.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_REPO = Path(__file__).resolve().parents[1]
_BLOCKED_NUMPY_RUN = """
import sys
import platoonsim.cli
assert "numpy" not in sys.modules, "importing platoonsim.cli loaded numpy"
sys.modules["numpy"] = None  # from here on, any import of numpy raises ImportError
sys.exit(platoonsim.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("config", ["platoon.cfg", "baseline.cfg"])
def test_run_needs_no_numpy(tmp_path, config):
    args = ["run", "--config", str(_REPO / "configs" / config), "--repetitions", "1"]
    assert main(args + ["--out", str(tmp_path / "here")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_REPO / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _BLOCKED_NUMPY_RUN, *args,
                           "--out", str(tmp_path / "bare")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("results.csv", "transmissions_rep0.log"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports platoonsim from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_package_root_loads_no_submodule():
    done = _fresh_python("import sys, platoonsim\n"
                         "print(sorted(m for m in sys.modules if m.startswith('platoonsim.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_config_module_imports_alone():
    path = _REPO / "configs" / "platoon.cfg"
    done = _fresh_python("import platoonsim.config\n"
                         f"print(platoonsim.config.load_config({str(path)!r}).mode)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "tsnctl"


def test_config_error_is_the_scenario_value_error():
    assert platoonsim.config.ConfigError is platoonsim.scenario.ConfigError
    assert issubclass(platoonsim.scenario.ConfigError, ValueError)
