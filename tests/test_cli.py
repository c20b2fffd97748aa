"""End-to-end command line tests, run through a real subprocess."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hilcheck
from hilcheck import config_io
from hilcheck.config_io import load_config
from hilcheck.engine import Group
from hilcheck.scenarios import SCENARIOS, build_model, is_okay
from hilcheck.trace_io import read_trace


def run_cli(*argv, check=None):
    """Run the CLI in a subprocess.  A run explores at a ceiling of 10,000
    paths unless it sets its own, so a search that would not end fails
    instead of running to the default ceiling."""
    if argv[:1] == ("run",) and "--path-ceiling" not in argv:
        argv += ("--path-ceiling", "10000")
    proc = subprocess.run(
        [sys.executable, "-m", "hilcheck.cli", *argv],
        capture_output=True, text=True)
    if check is not None:
        assert proc.returncode == check, proc.stderr or proc.stdout
    return proc


# --- exit codes and verdict reporting ---------------------------------------

def test_safe_scenario_exits_zero():
    proc = run_cli("run", "ideal", check=0)
    assert "scenario: ideal" in proc.stdout
    assert "verdict: Safe(100)" in proc.stdout
    assert "paths explored: 4" in proc.stdout


def test_unsafe_scenario_exits_one_and_names_the_property():
    proc = run_cli("run", "lowered-speed", check=1)
    assert "verdict: Unsafe(FatigueBounded)" in proc.stdout
    assert "failed property: FatigueBounded" in proc.stdout
    assert "violation at iteration: 4" in proc.stdout
    assert "paths explored: 3" in proc.stdout


def test_manual_override_exits_one():
    proc = run_cli("run", "manual-override", check=1)
    assert "verdict: Unsafe(SeparationMaintained)" in proc.stdout
    assert "violation at iteration: 3" in proc.stdout
    assert "paths explored: 1" in proc.stdout


def test_unknown_scenario_is_a_usage_error():
    proc = run_cli("run", "flying-cars", check=2)
    assert "invalid choice" in proc.stderr


def test_scenario_and_config_are_mutually_exclusive(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    proc = run_cli("run", "ideal", "--config", str(cfg), check=2)
    assert "exactly one" in proc.stderr
    proc = run_cli("run", check=2)
    assert "exactly one" in proc.stderr


def test_bad_bound_is_a_usage_error():
    proc = run_cli("run", "ideal", "--bound", "0", check=2)
    assert "bound" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--bound", "1_0"),
                                         ("--bound", "\u0663"),
                                         ("--path-ceiling", "+5")])
def test_integer_flags_take_plain_decimals_as_config_files_do(flag, value):
    proc = run_cli("run", "ideal", flag, value, check=2)
    assert f"argument {flag}: needs an integer" in proc.stderr
    assert "verdict" not in proc.stdout


# --- config files ------------------------------------------------------------

def test_empty_config_is_the_default_scenario(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out_a = tmp_path / "a.trace"
    out_b = tmp_path / "b.trace"
    run_cli("run", "--config", str(cfg),
            "--trace-out", str(out_a), "--trace-always", check=0)
    run_cli("run", "ideal",
            "--trace-out", str(out_b), "--trace-always", check=0)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_override_shows_up_in_the_trace(tmp_path):
    """Slowing the exhausted reaction factor must change the witness state."""
    base = tmp_path / "base.cfg"
    base.write_text("scenario = lowered-speed\n")
    slower = tmp_path / "slower.cfg"
    slower.write_text("scenario = lowered-speed\neFactor = 5\n")

    final_rt = {}
    for cfg in (base, slower):
        out = tmp_path / (cfg.stem + ".trace")
        run_cli("run", "--config", str(cfg), "--trace-out", str(out), check=1)
        model = build_model(load_config(cfg))
        loaded = read_trace(out, model)
        assert loaded.header["verdict"] == "Unsafe"
        assert loaded.header["failed"] == "FatigueBounded"
        final_rt[cfg.stem] = loaded.trace[-1].value(
            Group.BEH_STATE, "reaction_time")
    assert final_rt == {"base": 3, "slower": 5}


def test_config_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = ideal\nroute = 0,0,onRoad,0\n")
    proc = run_cli("run", "--config", str(cfg), check=2)
    assert "line 2" in proc.stderr

    cfg.write_text("wibble = 3\n")
    proc = run_cli("run", "--config", str(cfg), check=2)
    assert "line 1" in proc.stderr and "wibble" in proc.stderr


def test_duplicate_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("bound = 5\nbound = 6\n")
    proc = run_cli("run", "--config", str(cfg), check=2)
    assert "duplicate" in proc.stderr and "line 2" in proc.stderr


def test_config_operators_share_the_cli_parser(tmp_path):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("bound = 5\noperators = Max,Max\n")
    with pytest.raises(config_io.ConfigError, match="line 2: .*twice"):
        config_io.load_config(cfg)


@pytest.mark.parametrize("text", ["tiredAfter = 8\nexhaustedAfter = 8",
                                  "tiredAfter = 0"])
def test_inconsistent_fatigue_thresholds_are_config_errors(text, tmp_path):
    # not a crash of the model's first trial step
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text(text + "\n")
    with pytest.raises(config_io.ConfigError, match="tired_after") as raised:
        load_config(cfg)
    assert "update for" not in str(raised.value)


def test_missing_config_file_is_an_error(tmp_path):
    proc = run_cli("run", "--config", str(tmp_path / "nope.cfg"), check=2)
    assert proc.stderr.startswith("error:")


# --- operator restriction ----------------------------------------------------

@pytest.mark.parametrize("op", ["Max", "Min", "Sum", "RoundedMean"])
def test_each_operator_alone_keeps_ideal_safe(op):
    proc = run_cli("run", "ideal", "--operators", op, check=0)
    assert "verdict: Safe(100)" in proc.stdout
    assert "paths explored: 1" in proc.stdout


def test_operator_list_is_validated():
    proc = run_cli("run", "ideal", "--operators", "Max,Telepathy", check=2)
    assert "Telepathy" in proc.stderr
    proc = run_cli("run", "ideal", "--operators", "Max,Max", check=2)
    assert "twice" in proc.stderr


# --- trace files --------------------------------------------------------------

def test_safe_trace_needs_the_always_flag(tmp_path):
    out = tmp_path / "unwanted.trace"
    proc = run_cli("run", "ideal", "--trace-out", str(out), check=0)
    assert "trace written" not in proc.stdout
    assert not out.exists()


def test_safe_trace_shape(tmp_path):
    out = tmp_path / "safe.trace"
    run_cli("run", "ideal", "--operators", "Max",
            "--trace-out", str(out), "--trace-always", check=0)
    lines = out.read_text().splitlines()
    kinds = [line.split(" ", 1)[0] for line in lines]
    assert kinds[0] == "header"
    assert kinds.count("state") == 101          # initial state plus the bound
    assert kinds.count("choice") == 0           # nothing was ever drawn
    assert lines[0] == ("header scenario=ideal bound=100 verdict=Safe "
                        "failed=- paths=1")


def test_reader_can_reestablish_the_violation(tmp_path):
    """The exported witness carries enough state to re-check the broken
    property without rerunning the search."""
    out = tmp_path / "witness.trace"
    proc = run_cli("run", "manual-override", "--trace-out", str(out), check=1)
    assert f"trace written to {out}" in proc.stdout

    config = SCENARIOS["manual-override"]
    model = build_model(config)
    loaded = read_trace(out, model)
    assert loaded.header["failed"] == "SeparationMaintained"
    final = loaded.trace[-1]
    fatigue = final.value(Group.BEH_STATE, "fatigue")
    okay = is_okay(
        fatigue,
        stopping_distance=(final.value(Group.SYS_STATE, "speed")
                           * final.value(Group.BEH_STATE, "reaction_time")),
        gap=final.value(Group.SYS_STATE, "gap"),
        base_separation=config.base_separation)
    assert not okay
    # and every earlier snapshot satisfied it
    for state in loaded.trace[:-1]:
        assert is_okay(
            state.value(Group.BEH_STATE, "fatigue"),
            stopping_distance=(state.value(Group.SYS_STATE, "speed")
                               * state.value(Group.BEH_STATE, "reaction_time")),
            gap=state.value(Group.SYS_STATE, "gap"),
            base_separation=config.base_separation)


# --- console script -----------------------------------------------------------

def test_console_script_is_installed(tmp_path):
    """Install this checkout the way a user would, with build isolation on
    and no index, so the build must need nothing that is not already here."""
    checkout = Path(__file__).resolve().parents[1]
    target = tmp_path / "install"
    install = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-cache-dir", "--disable-pip-version-check",
         "--target", str(target), str(checkout)],
        capture_output=True, text=True)
    assert install.returncode == 0, install.stderr or install.stdout
    assert (target / f"hilcheck-{hilcheck.__version__}.dist-info").is_dir()

    # only the install directory, so the checkout's `src` cannot stand in
    env = dict(os.environ, PYTHONPATH=str(target))
    exe = shutil.which("hil-check", path=str(target / "bin"))
    assert exe, "hil-check entry point not installed"
    imported = subprocess.run(
        [sys.executable, "-c", "import hilcheck; print(hilcheck.__file__)"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert Path(imported.stdout.strip()).is_relative_to(target), imported

    proc = subprocess.run([exe, "run", "ideal", "--bound", "5",
                           "--path-ceiling", "4"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0
    assert "verdict: Safe(5)" in proc.stdout
