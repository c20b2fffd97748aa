"""The config file surface: every key with a valid value gives the base
preset with exactly that override, every kind of bad value is rejected on
its own line, and README's "Config files" section lists the accepted keys."""

import ast
import re
from argparse import ArgumentTypeError
from dataclasses import replace
from pathlib import Path

import pytest

from hilcheck import config_io
from hilcheck.acc import ControlMode
from hilcheck.behaviour import InputMode, IntegratorOp
from hilcheck.cli import positive_int
from hilcheck.config_io import ConfigError, load_config
from hilcheck.environment import RoutePoint, Terrain
from hilcheck.scenarios import SCENARIOS, build_model

REPO = Path(__file__).resolve().parent.parent


IDEAL = SCENARIOS["ideal"]
LOWERED = SCENARIOS["lowered-speed"]


# key -> [(config text, expected config)]; the text is one key per line and
# may set other keys that a valid value of this one needs
VALID = {
    "scenario": [("scenario = lowered-speed", LOWERED),
                 ("scenario = reaction-probe", SCENARIOS["reaction-probe"])],
    "bound": [("bound = 7", replace(IDEAL, bound=7)),
              ("scenario = lowered-speed\nbound = 1",
               replace(LOWERED, bound=1))],
    "controlMode": [
        ("controlMode = engaged",
         replace(IDEAL, control_mode=ControlMode.Engaged)),
        ("controlMode = manual",
         replace(IDEAL, control_mode=ControlMode.Manual)),
        ("controlMode = nondet", replace(IDEAL, control_mode=None))],
    "fatigueSource": [
        ("fatigueSource = probed", replace(IDEAL, fatigue_pinned=True)),
        ("fatigueSource = calculated",
         replace(IDEAL, fatigue_pinned=False))],
    "separation": [
        ("separation = fixed", replace(IDEAL, adaptive_target=False)),
        ("separation = adaptive",
         replace(IDEAL, adaptive_target=True))],
    "operators": [
        ("operators = Sum, Max",
         replace(IDEAL, operators=(IntegratorOp.Sum, IntegratorOp.Max))),
        ("operators = RoundedMean,",
         replace(IDEAL, operators=(IntegratorOp.RoundedMean,)))],
    "inputMode": [
        ("inputMode = Speech",
         replace(IDEAL, input_mode=InputMode.Speech)),
        ("scenario = lowered-speed\ninputMode = GamePad",
         replace(LOWERED, input_mode=InputMode.GamePad))],
    "route": [
        ("route = 1,2,onRoad,0; 0,1,offRoad,1",
         replace(IDEAL, route_length=None, route=(
             RoutePoint(obstacle=1, distance=2, terrain=Terrain.onRoad,
                        curvature=0),
             RoutePoint(obstacle=0, distance=1, terrain=Terrain.offRoad,
                        curvature=1)))),
        ("route = nondet",
         replace(IDEAL, route=None, route_length=5)),
        ("scenario = lowered-speed\nroute = nondet", LOWERED)],
    "routeLength": [
        ("route = nondet\nrouteLength = 3",
         replace(IDEAL, route=None, route_length=3)),
        ("routeLength = 2\nroute = nondet",
         replace(IDEAL, route=None, route_length=2)),
        ("scenario = lowered-speed\nrouteLength = 4",
         replace(LOWERED, route_length=4)),
        ("route = nondet\nrouteLength = 10",
         replace(IDEAL, route=None, route_length=10))],
    "maxSpeed": [("maxSpeed = 12", replace(IDEAL, max_speed=12))],
    "maxGap": [("maxGap = 20", replace(IDEAL, max_gap=20))],
    "leadSpeed": [("leadSpeed = 0", replace(IDEAL, lead_speed=0))],
    "baseSeparation": [("baseSeparation = 5",
                        replace(IDEAL, base_separation=5))],
    "accMargin": [("accMargin = 0", replace(IDEAL, acc_margin=0))],
    "tiredAfter": [("tiredAfter = 3",
                    replace(IDEAL, tired_after=3))],
    "exhaustedAfter": [("exhaustedAfter = 10",
                        replace(IDEAL, exhausted_after=10))],
    "timeCap": [("timeCap = 20", replace(IDEAL, time_cap=20)),
                # order-independent: the cap is checked against the new
                # threshold, whichever line comes first
                ("timeCap = 14\nexhaustedAfter = 14",
                 replace(IDEAL, time_cap=14, exhausted_after=14))],
    "maxHP": [("maxHP = 7", replace(IDEAL, max_hp=7))],
    "fast": [("slow = 6\nokay = 4\nfast = 2",
              replace(IDEAL, fast=2, okay=4, slow=6))],
    "okay": [("okay = 4\nslow = 5", replace(IDEAL, okay=4, slow=5))],
    "slow": [("slow = 9", replace(IDEAL, slow=9))],
    "nFactor": [("nFactor = 2", replace(IDEAL, n_factor=2))],
    "tFactor": [("tFactor = 3", replace(IDEAL, t_factor=3))],
    "eFactor": [("eFactor = 5", replace(IDEAL, e_factor=5))],
}

VALID_CASES = [pytest.param(text, expected, id=f"{key}-{i}")
               for key, cases in VALID.items()
               for i, (text, expected) in enumerate(cases)]


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("text,expected", VALID_CASES)
def test_each_key_overrides_exactly_its_field(text, expected, tmp_path):
    assert load_config(write(tmp_path, text)) == expected


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = "# a comment\n\n   \nbound = 9\n  # another\n"
    assert load_config(write(tmp_path, text)) == replace(IDEAL, bound=9)


# (config text, line the error must name); each bad line sits behind a
# comment so the number is not just the first line
REJECTED = {
    "integer": ("maxSpeed = fast", 2),
    "integer in the profile": ("eFactor = 2.5", 2),
    "integer with an underscore": ("bound = 1_0", 2),
    "integer with a plus sign": ("maxSpeed = +5", 2),
    "integer in non-ASCII digits": ("leadSpeed = \u0663", 2),
    "integer with a leading zero": ("maxGap = 015", 2),
    "integer at least 1, not an integer": ("bound = ten", 2),
    "integer at least 1, zero": ("bound = 0", 2),
    "routeLength, zero": ("route = nondet\nrouteLength = 0", 3),
    "routeLength, not an integer": ("routeLength = x", 2),
    "one-of, controlMode": ("controlMode = auto", 2),
    "one-of, fatigueSource": ("fatigueSource = psychic", 2),
    "one-of, separation": ("separation = loose", 2),
    "one-of, inputMode": ("inputMode = Telepathy", 2),
    "one-of, scenario": ("scenario = nowhere", 2),
    "operators, unknown": ("operators = Max,Median", 2),
    "operators, twice": ("operators = Max,Max", 2),
    "operators, empty": ("operators = ,", 2),
    "route, empty segment": ("route = 1,1,onRoad,0;;", 2),
    "route, three fields": ("route = 1,1,onRoad", 2),
    "route, not an integer": ("route = a,1,onRoad,0", 2),
    "route, integer with an underscore": ("route = 1,1_0,onRoad,0", 2),
    "route, unknown terrain": ("route = 1,1,swamp,0", 2),
    "route, invalid segment": ("route = 0,0,onRoad,0", 2),
    "routeLength on a fixed route": ("route = 1,1,onRoad,0\nrouteLength = 3",
                                     3),
    "routeLength alone on a fixed base": ("routeLength = 3", 2),
    "routeLength on a fixed route over a nondet base": (
        "scenario = lowered-speed\nrouteLength = 3\nroute = 1,1,onRoad,0", 3),
    "unknown key": ("wibble = 3", 2),
    "no equals sign": ("bound 5", 2),
    "duplicate key": ("bound = 5\nbound = 6", 3),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_values_are_rejected_on_their_line(case, tmp_path):
    text, lineno = REJECTED[case]
    with pytest.raises(ConfigError, match=rf"^line {lineno}: "):
        load_config(write(tmp_path, "# header\n" + text))


def test_a_count_reads_as_the_cli_reads_it(tmp_path):
    # one parser and one message for count keys and count flags
    with pytest.raises(ConfigError, match="^line 1: bound: needs at least 1, "
                                          "got 0$"):
        load_config(write(tmp_path, "bound = 0"))
    with pytest.raises(ArgumentTypeError, match="^needs at least 1, got 0$"):
        positive_int("0")


@pytest.mark.parametrize("text", [
    "leadSpeed = 11",                     # faster than maxSpeed
    "maxSpeed = 3\nleadSpeed = 4",
    "exhaustedAfter = 13",                # beyond timeCap
    "fast = 2",                           # not below okay
    "tFactor = 4",                        # above eFactor
    "maxGap = 0",
    "maxHP = 0",
    "maxGap = 7",                         # below the widest preset, 8
    "route = nondet\nrouteLength = 11",  # over MAX_ROUTE_LENGTH
])
def test_cross_field_violations_are_config_errors(text, tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text))


def test_valid_cases_cover_every_documented_key():
    assert set(VALID) == readme_keys()


# --- README agrees with the parser ------------------------------------------

def readme_config() -> tuple[str, str]:
    """README's "Config files" section and the example file in it."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
    return section, section.split("```", 2)[1]


def readme_keys() -> set[str]:
    """Keys named in README's "Config files" section: the `key =` lines of
    its example, comments included, and the backticked remaining keys."""
    section, example = readme_config()
    keys = set(re.findall(r"(?:^|[#/:]\s*)(\w+)\s*=", example, re.M))
    remaining = section.split("Remaining keys:", 1)[1]
    return keys | set(re.findall(r"`(\w+)`", remaining))


def accepted(key: str, tmp_path) -> bool:
    path = tmp_path / "probe.cfg"
    path.write_text(f"{key} = ?\n")
    try:
        load_config(path)
    except ConfigError as exc:
        return "unknown key" not in str(exc)
    return True


def test_readme_lists_exactly_the_accepted_keys(tmp_path):
    # every key the parser accepts is written out as a string in its source
    tree = ast.parse(Path(config_io.__file__).read_text(encoding="utf-8"))
    candidates = {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()}
    parsed = {key for key in candidates if accepted(key, tmp_path)}
    assert readme_keys() == parsed
    assert len(parsed) == 24


def test_readme_names_every_declared_key():
    # the parser's own tables, so a key added to either is documented
    assert set(config_io._KEYS) | config_io._OWN_BRANCH <= readme_keys()


def test_readme_example_loads_and_builds(tmp_path):
    _, example = readme_config()
    config = load_config(write(tmp_path, example))
    assert (config.name, config.bound) == ("lowered-speed", 50)
    assert build_model(config).name == "lowered-speed"
