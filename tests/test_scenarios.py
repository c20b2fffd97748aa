"""Case-study scenario tests: golden step, verdicts, witness shapes."""

import hashlib
from enum import Enum

import pytest
from dataclasses import fields, replace
from hypothesis import given, settings, strategies as st

import hilcheck.scenarios
from hilcheck.acc import AccCommand, ControlMode, compute_safe_stopping
from hilcheck.behaviour import (FatigueLevel, InputMode, IntegratorOp,
                                perception_from_fatigue, set_reaction_time)
from hilcheck.engine import (ChoiceEntry, Group, ModelError, VerdictKind,
                             explore, probed_model, replay_counterexample,
                             resolve_initial, run_path)
from hilcheck.environment import RoutePoint, Terrain
from hilcheck.scenarios import (DEFAULT_ROUTE, SCENARIOS, ScenarioConfig,
                                build_model, fatigue_tables, is_okay)


# --- the separation property in isolation ----------------------------------

BASE = SCENARIOS["ideal"].base_separation


def test_is_okay_requires_stopping_distance_covered():
    assert is_okay(FatigueLevel.Normal, stopping_distance=6, gap=6,
                   base_separation=BASE)
    assert not is_okay(FatigueLevel.Normal, stopping_distance=7, gap=6,
                       base_separation=BASE)


def test_is_okay_floor_widens_with_fatigue():
    assert is_okay(FatigueLevel.Tired, stopping_distance=0, gap=5,
                   base_separation=BASE)
    assert not is_okay(FatigueLevel.Exhausted, stopping_distance=0, gap=5,
                       base_separation=BASE)
    assert is_okay(FatigueLevel.Exhausted, stopping_distance=0, gap=6,
                   base_separation=BASE)


# --- what build_model works out once, against the helpers ------------------

def _tables_match_the_helpers(config):
    target, reaction, perception = fatigue_tables(config)
    for level in FatigueLevel:
        assert target[level] == config.target_for(level)
        assert reaction[level] == set_reaction_time(config.input_mode, level,
                                                    config)
        assert perception[level] == perception_from_fatigue(level,
                                                            config.max_hp)


@pytest.mark.parametrize("preset", sorted(SCENARIOS))
def test_each_presets_fatigue_tables_match_the_helpers(preset):
    _tables_match_the_helpers(SCENARIOS[preset])


@settings(max_examples=100, deadline=None)
@given(fast=st.integers(1, 3), okay_step=st.integers(1, 2),
       slow_step=st.integers(1, 2), n_factor=st.integers(1, 2),
       t_step=st.integers(0, 2), e_step=st.integers(0, 2),
       base_separation=st.integers(1, 6), acc_margin=st.integers(0, 3),
       max_hp=st.integers(1, 7), adaptive_target=st.booleans(),
       input_mode=st.sampled_from(tuple(InputMode)))
def test_drawn_configs_fatigue_tables_match_the_helpers(
        fast, okay_step, slow_step, n_factor, t_step, e_step,
        base_separation, acc_margin, max_hp, adaptive_target, input_mode):
    _tables_match_the_helpers(ScenarioConfig(
        name="drawn", route=DEFAULT_ROUTE, fast=fast, okay=fast + okay_step,
        slow=fast + okay_step + slow_step, n_factor=n_factor,
        t_factor=n_factor + t_step, e_factor=n_factor + t_step + e_step,
        base_separation=base_separation, acc_margin=acc_margin, max_gap=20,
        max_hp=max_hp, adaptive_target=adaptive_target,
        input_mode=input_mode))


@pytest.mark.parametrize("preset", sorted(SCENARIOS))
def test_the_assertions_agree_with_their_statements_on_a_presets_trace(
        preset):
    """The assertions read their values by position; on every state of the
    preset's trace they say what is_okay and the plain `state.value`
    statement say."""
    config = SCENARIOS[preset]
    model = build_model(config)
    verdict = explore(model, config.bound)
    seen = set()
    for state in verdict.trace:
        fatigue = state.value(Group.BEH_STATE, "fatigue")
        stopping = compute_safe_stopping(
            state.value(Group.SYS_STATE, "speed"),
            state.value(Group.BEH_STATE, "reaction_time"))
        statements = {
            "SeparationMaintained": is_okay(
                fatigue, stopping, state.value(Group.SYS_STATE, "gap"),
                base_separation=config.base_separation),
            "FatigueBounded": not (
                fatigue is FatigueLevel.Exhausted
                and not state.value(Group.ENV_OUTPUT, "journey_done"))}
        for assertion in model.assertions:
            said = statements[assertion.assert_id]
            assert assertion.predicate(state) is said
            seen.add((assertion.assert_id, said))
    assert {(a.assert_id, True) for a in model.assertions} <= seen
    if verdict.failed_assertion:
        assert (verdict.failed_assertion, False) in seen


# --- golden first step of the ideal scenario -------------------------------

def test_ideal_first_step_golden_valuation():
    """Hand-computed expected state after one iteration from the fixed
    starting point, with every draw resolved to its first domain value."""
    model = build_model(SCENARIOS["ideal"])
    trace, log, violated = run_path(model, 1)
    got = trace[1]

    expected = {
        (Group.ENV_INPUT, "moved"): 1,
        (Group.ENV_STATE, "cursor"): 1,
        (Group.ENV_STATE, "covered"): 0,
        (Group.ENV_STATE, "lead_speed"): 1,
        (Group.ENV_OUTPUT, "terrain"): Terrain.onRoad,   # segment 1 ahead
        (Group.ENV_OUTPUT, "obstacle"): 0,
        (Group.ENV_OUTPUT, "curvature"): 0,
        (Group.ENV_OUTPUT, "journey_done"): False,
        (Group.SYS_INPUT, "command"): AccCommand.Maintain,
        (Group.SYS_INPUT, "active_mode"): ControlMode.Engaged,
        (Group.SYS_INPUT, "fatigue_seen"): FatigueLevel.Normal,
        (Group.SYS_INPUT, "done_seen"): False,
        (Group.SYS_STATE, "speed"): 1,
        (Group.SYS_STATE, "gap"): 6,
        (Group.SYS_STATE, "target_gap"): 6,
        (Group.SYS_OUTPUT, "speed"): 1,
        (Group.SYS_OUTPUT, "gap"): 6,
        (Group.BEH_INPUT, "terrain_difficulty"): 1,      # segment 0 was rough
        (Group.BEH_INPUT, "done_seen"): False,
        (Group.BEH_STATE, "time_driven"): 1,
        (Group.BEH_STATE, "fatigue"): FatigueLevel.Tired,
        (Group.BEH_STATE, "reaction_time"): 2,
        (Group.BEH_STATE, "hazard_perception"): 3,
        (Group.BEH_STATE, "combine_op"): IntegratorOp.Max,
        (Group.BEH_OUTPUT, "fatigue"): FatigueLevel.Tired,
        (Group.BEH_OUTPUT, "mode_request"): ControlMode.Engaged,
        (Group.BEH_OUTPUT, "manual_command"): AccCommand.Maintain,
    }
    for (group, name), value in expected.items():
        assert got.value(group, name) == value, f"{group.value}.{name}"
    assert violated == ()
    assert [e.point_id for e in log if e.iteration == 1] == []


# --- the three published scenario verdicts ----------------------------------

def test_ideal_is_safe_to_the_full_bound():
    verdict = explore(build_model(SCENARIOS["ideal"]), 100)
    assert verdict.kind is VerdictKind.Safe
    assert str(verdict) == "Safe(100)"
    assert verdict.paths_explored == 4      # one per integrator operator


def test_lowered_speed_breaks_the_fatigue_bound():
    model = build_model(SCENARIOS["lowered-speed"])
    verdict = explore(model, 100)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "FatigueBounded"
    assert verdict.trace[-1].iteration == 4
    assert verdict.paths_explored == 3

    # witness: every segment of the chosen route is short and rough, and the
    # severity integrator is the additive one
    drawn = {e.point_id: e.value for e in verdict.choice_log}
    assert drawn["integrator"] is IntegratorOp.Sum
    for i in range(5):
        assert drawn[f"route:seg{i}_terrain"] is Terrain.offRoad
        assert drawn[f"route:seg{i}_distance"] == 1

    # the separation property held the whole way: only the fatigue bound broke
    final = verdict.trace[-1]
    assert final.value(Group.BEH_STATE, "fatigue") is FatigueLevel.Exhausted
    assert final.value(Group.ENV_OUTPUT, "journey_done") is False

    assert replay_counterexample(model, verdict) == verdict.trace


def test_lowered_speed_witness_actually_lowers_the_speed():
    verdict = explore(build_model(SCENARIOS["lowered-speed"]), 100)
    speeds = [s.value(Group.SYS_STATE, "speed") for s in verdict.trace]
    # up to the violating snapshot the controller only ever slowed down
    before = speeds[:-1]
    assert all(a >= b for a, b in zip(before, before[1:]))
    assert before[-1] < speeds[0]


def test_manual_override_breaks_separation():
    model = build_model(SCENARIOS["manual-override"])
    verdict = explore(model, 100)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "SeparationMaintained"
    assert verdict.trace[-1].iteration == 3
    assert verdict.paths_explored == 1      # very first path already fails

    # witness: the driver seizes manual control and floors it every time
    step_draws = [e for e in verdict.choice_log if e.iteration > 0]
    assert [e.value for e in step_draws] == [
        ControlMode.Manual, AccCommand.Accelerate,
        ControlMode.Manual, AccCommand.Accelerate,
        ControlMode.Manual, AccCommand.Accelerate]

    final = verdict.trace[-1]
    assert final.value(Group.SYS_STATE, "gap") == 3
    assert final.value(Group.SYS_STATE, "speed") == 3
    assert final.value(Group.BEH_STATE, "fatigue") is FatigueLevel.Normal

    assert replay_counterexample(model, verdict) == verdict.trace


def test_replay_rejects_a_log_with_entries_left_over_or_out_of_order():
    model = build_model(SCENARIOS["manual-override"])
    verdict = explore(model, 100)
    log = verdict.choice_log
    assert log[0].point_id == "integrator"
    extra = replace(verdict, choice_log=log + (log[-1],))
    with pytest.raises(ModelError,
                       match="replay left 1 choice log entries undrawn"):
        replay_counterexample(model, extra)
    integrator_last = replace(verdict, choice_log=log[1:] + log[:1])
    with pytest.raises(ModelError, match="replay mismatch"):
        replay_counterexample(model, integrator_last)


# --- scenario variants -------------------------------------------------------

def test_manual_override_is_safe_when_only_engaged_is_offered():
    config = replace(SCENARIOS["manual-override"],
                     control_mode=ControlMode.Engaged)
    verdict = explore(build_model(config), 100)
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 4


def test_ideal_on_unknown_routes_inherits_the_fatigue_violation():
    config = replace(SCENARIOS["ideal"], route=None, route_length=5)
    verdict = explore(build_model(config), 100)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "FatigueBounded"


def test_single_short_segment_route_is_safe_for_every_operator():
    paths = 0
    for terrain in Terrain:
        segment = RoutePoint(obstacle=0, distance=1, terrain=terrain,
                             curvature=0)
        config = ScenarioConfig(name="one-segment", route=(segment,),
                                control_mode=ControlMode.Engaged)
        verdict = explore(build_model(config), 100)
        assert verdict.kind is VerdictKind.Safe, terrain
        assert verdict.paths_explored == 4, terrain     # one per operator
        paths += verdict.paths_explored
    assert paths == 8                       # 2 terrains x 4 operators


def test_manual_override_is_safe_at_bound_one():
    verdict = explore(build_model(SCENARIOS["manual-override"]), 1)
    assert verdict.kind is VerdictKind.Safe
    # per iteration: Manual fans out over three commands, Engaged draws none
    assert verdict.paths_explored == 16     # (3 + 1) leaves x 4 operators


def test_forced_single_operator_keeps_ideal_safe():
    for op in IntegratorOp:
        config = replace(SCENARIOS["ideal"], operators=(op,))
        verdict = explore(build_model(config), 100)
        assert verdict.kind is VerdictKind.Safe, op
        assert verdict.paths_explored == 1
        assert verdict.choice_log == ()     # nothing left to draw


# --- probing ----------------------------------------------------------------

def test_probe_fixture_is_safe_without_probing():
    verdict = explore(build_model(SCENARIOS["reaction-probe"]), 100)
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 1


def test_probing_initial_fatigue_finds_the_breaking_level():
    model = build_model(SCENARIOS["reaction-probe"])
    verdict = explore(probed_model(model, (Group.BEH_STATE, "fatigue")), 100)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "SeparationMaintained"
    assert verdict.paths_explored == 3      # Normal and Tired run safe
    assert verdict.choice_log == (
        ChoiceEntry(0, "probe:fatigue", FatigueLevel.Exhausted),)

    # the violation needs one iteration: the stale initial reaction time is
    # recomputed from the probed level, and speech interaction is slow
    assert verdict.trace[-1].iteration == 1
    final = verdict.trace[-1]
    assert final.value(Group.BEH_STATE, "reaction_time") == 9
    assert final.value(Group.SYS_STATE, "gap") == 6

    # replay needs the model variant that declares the probe choice point
    swept = probed_model(model, (Group.BEH_STATE, "fatigue"))
    assert replay_counterexample(swept, verdict) == verdict.trace


@pytest.mark.parametrize("preset, var", [
    ("ideal", (Group.BEH_STATE, "combine_op")),
    ("lowered-speed", (Group.ENV_STATE, "seg0_terrain")),
], ids=["ideal combine_op", "lowered-speed seg0_terrain"])
def test_probe_rejects_a_variable_that_already_has_an_init_choice(preset,
                                                                  var):
    # the variable's own draw would overwrite every probed value
    model = build_model(replace(SCENARIOS[preset], bound=3))
    group, name = var
    with pytest.raises(ModelError, match="two initialisation choices target "
                                         f"{group.value}.{name}$"):
        probed_model(model, var)


# sha256 of each preset's declarations, repr([(str(v), v.domain) for v in
# model.variables]) followed by repr of the initial state's values
GOLDEN_DECLARATIONS = {
    "ideal": "0574cc84e581b567948cc0a12b2c2aba"
             "aa5fe4d3666f987b4991a7cab75c4f54",
    "lowered-speed": "c97d33f405ce6e49c5f5838670b971db"
                     "3a27ebc926cbb8d41c93c971c816b9b4",
    "manual-override": "2a4430a60fba6d79b1945e9c0bdfadae"
                       "025494cfa522caeeab37d455af765355",
    "reaction-probe": "c8ba81c9b66976d9d6b947331090ecfd"
                      "6fdf52655f2b4b8b0172bb07eba1864b",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_DECLARATIONS))
def test_preset_declarations_are_pinned(preset):
    model = build_model(SCENARIOS[preset])
    state, _ = resolve_initial(model)
    text = repr([(str(v), v.domain) for v in model.variables]) \
        + repr(state.values)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_DECLARATIONS[preset]


# --- configuration validation ----------------------------------------------

def test_config_requires_exactly_one_route_source():
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, route_length=5)
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioConfig(name="x")
    with pytest.raises(ValueError, match="at least one segment"):
        ScenarioConfig(name="x", route=())


def test_config_rejects_bad_knobs():
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, operators=())
    with pytest.raises(ValueError, match="duplicate integrator operators"):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE,
                       operators=(IntegratorOp.Max, IntegratorOp.Max))
    for commands in ((), (AccCommand.Maintain, AccCommand.Maintain)):
        with pytest.raises(ValueError, match="command domain must be "
                                             "non-empty and duplicate-free"):
            ScenarioConfig(name="x", route=DEFAULT_ROUTE,
                           command_domain=commands)
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, fatigue_source="psychic")
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, bound=0)
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, lead_speed=99)
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, time_cap=3)
    with pytest.raises(ValueError, match="0 < tired_after < exhausted_after"):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, tired_after=8,
                       exhausted_after=8)
    with pytest.raises(ValueError, match="0 < tired_after < exhausted_after"):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, tired_after=0)
    with pytest.raises(ValueError, match="max_hp"):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, max_hp=0)


def test_target_must_fit_the_gap_sensor():
    with pytest.raises(ValueError, match="gap ceiling"):
        replace(SCENARIOS["ideal"], max_gap=7)
    # a fixed preset only needs room for the base separation plus margin
    build_model(replace(SCENARIOS["manual-override"], max_gap=6))


@pytest.mark.parametrize("name", ["my model", "", "caf\u00e9"])
def test_a_scenario_name_is_a_trace_token(name):
    # a trace header holds the name, as one field
    with pytest.raises(ValueError, match=f"scenario name {name!r} must be a "
                                         "non-empty printable ASCII str"):
        ScenarioConfig(name=name, route=DEFAULT_ROUTE)


# knobs of the wrong type, each close to a value of the right one: a float
# or bool for an int, a name for an Enum member, a plain tuple for a route
# segment, one item for a tuple of them; each would fail to build, or build
# as another value
WRONG_TYPED = {
    "float max_speed": lambda: {"max_speed": 10.5},
    "bool max_speed": lambda: {"max_speed": True},
    "bool lead_speed": lambda: {"lead_speed": True},
    "float time_cap": lambda: {"time_cap": 12.0},
    "float bound": lambda: {"bound": 2.5},
    "float route_length": lambda: {"route": None, "route_length": 2.5},
    "bool route_length": lambda: {"route": None, "route_length": True},
    "float fast": lambda: {"fast": 1.5},
    "bool e_factor": lambda: {"e_factor": True},
    "no slow": lambda: {"slow": None},
    "operator by name": lambda: {"operators": ("Max",)},
    "int commands": lambda: {"control_mode": None, "command_domain": (1, 2)},
    "control mode by name": lambda: {"control_mode": "Manual"},
    "input mode by name": lambda: {"input_mode": "Speech"},
    "bool obstacle": lambda: {
        "route": (RoutePoint(True, 1, Terrain.onRoad, 0),)},
    "float distance": lambda: {
        "route": (RoutePoint(0, 1.5, Terrain.onRoad, 0),)},
    "terrain by name": lambda: {"route": (RoutePoint(0, 1, "onRoad", 0),)},
    "segment as a plain tuple": lambda: {"route": ((0, 1, Terrain.onRoad, 0),)},
    "a bare segment as the route": lambda: {"route": DEFAULT_ROUTE[0]},
    "a bare operator": lambda: {"operators": IntegratorOp.Max},
    "separation by name": lambda: {"adaptive_target": "fixed"},
}


@pytest.mark.parametrize("case", WRONG_TYPED)
def test_a_knob_of_the_wrong_type_is_rejected_at_construction(case):
    with pytest.raises(ValueError):
        ScenarioConfig(**{"name": "x", "route": DEFAULT_ROUTE,
                          **WRONG_TYPED[case]()})


def _wrong_typed(value):
    """A value of another type than `value`'s: a float for an int, a name for
    an Enum member or a bool, a list for a tuple, an int for a str."""
    if type(value) is int:
        return float(value)
    if type(value) is bool:
        return str(value)
    if isinstance(value, Enum):
        return value.name
    if type(value) is tuple:
        return list(value)
    if type(value) is str:
        return len(value)
    raise AssertionError(f"no wrong-typed value for {value!r}")


@pytest.mark.parametrize("knob", [f.name for f in fields(ScenarioConfig)])
def test_every_knob_rejects_a_value_of_another_type(knob):
    # a preset where the knob is set, so its value shows the knob's type
    config = next(config for config in SCENARIOS.values()
                  if getattr(config, knob) is not None)
    with pytest.raises(ValueError):
        replace(config, **{knob: _wrong_typed(getattr(config, knob))})


# any of the numeric knobs, each from a small range around its default that
# crosses the bounds ScenarioConfig checks, and now and then a knob of the
# wrong type; knobs not drawn keep their default, so both outcomes are
# common
@settings(max_examples=400, deadline=None)
@given(knobs=st.fixed_dictionaries({}, optional={
           "max_speed": st.integers(0, 12), "lead_speed": st.integers(-1, 3),
           "max_gap": st.integers(0, 16), "base_separation": st.integers(0, 6),
           "acc_margin": st.integers(-1, 4), "tired_after": st.integers(0, 9),
           "exhausted_after": st.integers(1, 13),
           "time_cap": st.integers(6, 14), "max_hp": st.integers(0, 6)}),
       adaptive_target=st.booleans(),
       route_length=st.one_of(st.none(), st.integers(-1, 11)),
       name=st.text(alphabet=["x", "-", " ", "\u00e9", "\t"], max_size=3),
       wrong=st.one_of(st.none(), st.sampled_from(sorted(WRONG_TYPED))))
def test_every_config_that_constructs_builds(knobs, adaptive_target,
                                             route_length, name, wrong):
    """ScenarioConfig is the one place a scenario is checked: whatever it
    accepts, build_model registers."""
    try:
        config = ScenarioConfig(**{
            "name": name,
            "route": DEFAULT_ROUTE if route_length is None else None,
            "route_length": route_length, "adaptive_target": adaptive_target,
            **knobs, **(WRONG_TYPED[wrong]() if wrong else {})})
    except ValueError:
        return
    build_model(config)


def test_gap_sensor_saturates_after_the_journey():
    model = build_model(replace(SCENARIOS["ideal"],
                                operators=(IntegratorOp.Max,)))
    verdict = explore(model, 100)
    gaps = [s.value(Group.SYS_STATE, "gap") for s in verdict.trace]
    assert max(gaps) == 15                  # pinned at the sensor ceiling
    assert gaps[-1] == 15


def test_each_transition_runs_once_per_step(monkeypatch):
    """The route, the vehicle and the driver each advance once per step, in
    their model's state update; the outputs only report the new state."""
    model = build_model(SCENARIOS["ideal"])   # its trial step is not counted
    calls = dict.fromkeys(("advance_route", "apply_command",
                           "set_driver_fatigue"), 0)

    def counting(name):
        fn = getattr(hilcheck.scenarios, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(hilcheck.scenarios, name, counting(name))
    trace, _, violated = run_path(model, 10)
    assert len(trace) == 11 and not violated
    assert calls == {"advance_route": 10, "apply_command": 10,
                     "set_driver_fatigue": 10}
