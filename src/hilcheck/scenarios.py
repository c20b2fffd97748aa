"""Driver-fatigue cruise-control case study wired onto the checking engine.

Three models run in a loop: the road (environment), the vehicle with its
cruise controller (system), and the driver (behaviour).  The driver's
fatigue grows with time behind the wheel and demanding terrain; the cruise
controller regulates the gap to a lead vehicle against a separation preset
that may or may not widen with fatigue.  Two safety properties are checked
every iteration:

    SeparationMaintained: the gap covers the driver's stopping distance and
        the fatigue-adjusted minimum separation.
    FatigueBounded: the driver never reaches exhaustion while the journey
        is still in progress.

Three scenario presets reproduce the published verdicts: `ideal` (safe),
`lowered-speed` (fatigue bound breaks on a demanding route), and
`manual-override` (a driver-chosen command breaks separation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .acc import (AccCommand, ControlMode, VehicleState, acc_decide,
                  adaptive_separation, apply_command, compute_safe_stopping)
from .behaviour import (FatigueLevel, InputMode, IntegratorOp, ReactionProfile,
                        perception_from_fatigue, set_driver_fatigue,
                        set_reaction_time)
from .engine import (Assertion, BoolDomain, ChoicePoint, Group, IntDomain,
                     Model, ModelState, SymbolicDomain, UpdateFunctions, Var,
                     register_model)
from .environment import (Route, RoutePoint, RouteSpec, Terrain, advance_route,
                          nondet_route_choices, point_difficulty)

ALL_OPERATORS = (IntegratorOp.Max, IntegratorOp.Min,
                 IntegratorOp.Sum, IntegratorOp.RoundedMean)

ALL_MODES = (ControlMode.Manual, ControlMode.Engaged)

ALL_COMMANDS = (AccCommand.Accelerate, AccCommand.Maintain,
                AccCommand.Decelerate)

ALL_FATIGUE = (FatigueLevel.Normal, FatigueLevel.Tired, FatigueLevel.Exhausted)

CALCULATED = "calculated"
PROBED = "probed"

DEFAULT_BOUND = 100

# the fixed five-segment test route: a demanding opener, then easy road
# with one obstacle patch and one bend, one distance unit per segment
DEFAULT_ROUTE = (
    RoutePoint(obstacle=1, distance=1, terrain=Terrain.offRoad, curvature=1),
    RoutePoint(obstacle=0, distance=1, terrain=Terrain.onRoad, curvature=0),
    RoutePoint(obstacle=1, distance=1, terrain=Terrain.onRoad, curvature=0),
    RoutePoint(obstacle=0, distance=1, terrain=Terrain.onRoad, curvature=1),
    RoutePoint(obstacle=0, distance=1, terrain=Terrain.onRoad, curvature=0),
)


@dataclass(frozen=True)
class ScenarioParams:
    """Numeric knobs shared by every scenario."""

    max_speed: int = 10
    max_gap: int = 15
    lead_speed: int = 1
    base_separation: int = 4
    acc_margin: int = 2
    input_mode: InputMode = InputMode.MultiModal
    profile: ReactionProfile = field(default_factory=ReactionProfile)
    tired_after: int = 4
    exhausted_after: int = 8
    time_cap: int = 12
    max_hp: int = 5
    max_obstacle: int = 3
    max_curvature: int = 3
    max_route_distance: int = 3
    hard_obstacle: int = 2
    hard_curvature: int = 2

    def __post_init__(self) -> None:
        if self.max_speed < 1 or self.max_gap < 1:
            raise ValueError("speed and gap ceilings must be positive")
        if self.lead_speed < 0 or self.lead_speed > self.max_speed:
            raise ValueError("lead speed must be in 0..max_speed")
        if self.base_separation < 1 or self.acc_margin < 0:
            raise ValueError("separation base must be positive, margin non-negative")
        if self.time_cap < self.exhausted_after:
            raise ValueError("time cap must reach the exhaustion threshold")


@dataclass(frozen=True)
class ScenarioConfig:
    """A full scenario: route source, control regime, fatigue regime, bound.

    Exactly one of `route` (a fixed segment list) and `route_spec` (a
    nondeterministic route shape) must be given.  `control_mode` pins the
    vehicle to one mode; None lets the driver request a mode each iteration
    from `mode_domain`.  `adaptive_target` selects whether the cruise
    preset follows fatigue or stays at the base separation; the safety
    property always uses the fatigue-adjusted floor either way.
    """

    name: str
    route: tuple[RoutePoint, ...] | None = None
    route_spec: RouteSpec | None = None
    control_mode: ControlMode | None = ControlMode.Engaged
    mode_domain: tuple[ControlMode, ...] = ALL_MODES
    command_domain: tuple[AccCommand, ...] = ALL_COMMANDS
    fatigue_source: str = CALCULATED
    adaptive_target: bool = True
    operators: tuple[IntegratorOp, ...] = ALL_OPERATORS
    separation_only: bool = False
    bound: int = DEFAULT_BOUND
    params: ScenarioParams = field(default_factory=ScenarioParams)

    def __post_init__(self) -> None:
        if (self.route is None) == (self.route_spec is None):
            raise ValueError("give exactly one of route and route_spec")
        if self.fatigue_source not in (CALCULATED, PROBED):
            raise ValueError(f"unknown fatigue source {self.fatigue_source!r}")
        if not self.operators:
            raise ValueError("at least one integrator operator is required")
        if len(set(self.operators)) != len(self.operators):
            raise ValueError("duplicate integrator operators")
        if not self.mode_domain or len(set(self.mode_domain)) != len(self.mode_domain):
            raise ValueError("mode domain must be non-empty and duplicate-free")
        if not self.command_domain \
                or len(set(self.command_domain)) != len(self.command_domain):
            raise ValueError("command domain must be non-empty and duplicate-free")
        if self.bound < 1:
            raise ValueError("bound must be at least 1")


def is_okay(fatigue: FatigueLevel, stopping_distance: int, gap: int, *,
            base_separation: int = 4) -> bool:
    """The per-iteration separation property.

    The gap must cover both the driver's stopping distance and the
    fatigue-widened minimum separation.
    """
    floor = adaptive_separation(fatigue, base_separation)
    return gap >= stopping_distance and gap >= floor


def _segment_count(config: ScenarioConfig) -> int:
    if config.route is not None:
        return len(config.route)
    return config.route_spec.length


def _distance_ceiling(config: ScenarioConfig) -> int:
    p = config.params
    if config.route is not None:
        return max(p.max_route_distance, max(pt.distance for pt in config.route))
    return max(p.max_route_distance, max(config.route_spec.distance_domain))


def _first_segment_view(config: ScenarioConfig) -> RoutePoint:
    """What the environment reports before the first iteration: the first
    segment of a fixed route, or the first candidate values of a chosen one."""
    if config.route is not None:
        return config.route[0]
    spec = config.route_spec
    return RoutePoint(obstacle=spec.obstacle_domain[0],
                      distance=spec.distance_domain[0],
                      terrain=spec.terrain_domain[0],
                      curvature=spec.curvature_domain[0])


def build_model(config: ScenarioConfig) -> Model:
    """Assemble and register the three-model loop for one scenario."""
    p = config.params
    n_seg = _segment_count(config)
    d_max = _distance_ceiling(config)
    rt_max = p.profile.slow * p.profile.e_factor

    initial_target = (adaptive_separation(FatigueLevel.Normal, p.base_separation)
                      if config.adaptive_target else p.base_separation) + p.acc_margin
    if initial_target > p.max_gap:
        raise ValueError("separation target exceeds the gap ceiling")
    worst_target = (adaptive_separation(FatigueLevel.Exhausted, p.base_separation)
                    if config.adaptive_target else p.base_separation) + p.acc_margin
    if worst_target > p.max_gap:
        raise ValueError("separation target exceeds the gap ceiling")

    mode_dom = SymbolicDomain(ALL_MODES)
    command_dom = SymbolicDomain(ALL_COMMANDS)
    fatigue_dom = SymbolicDomain(ALL_FATIGUE)
    terrain_dom = SymbolicDomain((Terrain.offRoad, Terrain.onRoad))

    variables: list[Var] = []
    for i in range(n_seg):
        variables += [
            Var(f"seg{i}_obstacle", Group.ENV_STATE, IntDomain(0, p.max_obstacle)),
            Var(f"seg{i}_distance", Group.ENV_STATE, IntDomain(1, d_max)),
            Var(f"seg{i}_terrain", Group.ENV_STATE, terrain_dom),
            Var(f"seg{i}_curvature", Group.ENV_STATE, IntDomain(0, p.max_curvature)),
        ]
    variables += [
        Var("cursor", Group.ENV_STATE, IntDomain(0, n_seg)),
        Var("covered", Group.ENV_STATE, IntDomain(0, max(0, d_max - 1))),
        Var("lead_speed", Group.ENV_STATE, IntDomain(0, p.max_speed)),

        Var("moved", Group.ENV_INPUT, IntDomain(0, p.max_speed)),

        Var("terrain", Group.ENV_OUTPUT, terrain_dom),
        Var("obstacle", Group.ENV_OUTPUT, IntDomain(0, p.max_obstacle)),
        Var("curvature", Group.ENV_OUTPUT, IntDomain(0, p.max_curvature)),
        Var("journey_done", Group.ENV_OUTPUT, BoolDomain()),
        Var("lead_speed", Group.ENV_OUTPUT, IntDomain(0, p.max_speed)),

        Var("command", Group.SYS_INPUT, command_dom),
        Var("active_mode", Group.SYS_INPUT, mode_dom),
        Var("lead_speed", Group.SYS_INPUT, IntDomain(0, p.max_speed)),
        Var("fatigue_seen", Group.SYS_INPUT, fatigue_dom),
        Var("done_seen", Group.SYS_INPUT, BoolDomain()),

        Var("speed", Group.SYS_STATE, IntDomain(0, p.max_speed)),
        Var("gap", Group.SYS_STATE, IntDomain(0, p.max_gap)),
        Var("target_gap", Group.SYS_STATE, IntDomain(0, p.max_gap)),
        Var("acc_status", Group.SYS_STATE, mode_dom),

        Var("speed", Group.SYS_OUTPUT, IntDomain(0, p.max_speed)),
        Var("gap", Group.SYS_OUTPUT, IntDomain(0, p.max_gap)),
        Var("acc_status", Group.SYS_OUTPUT, mode_dom),

        Var("terrain_difficulty", Group.BEH_INPUT, IntDomain(0, 1)),
        Var("done_seen", Group.BEH_INPUT, BoolDomain()),

        Var("time_driven", Group.BEH_STATE, IntDomain(0, p.time_cap)),
        Var("fatigue", Group.BEH_STATE, fatigue_dom),
        Var("reaction_time", Group.BEH_STATE, IntDomain(0, rt_max)),
        Var("hazard_perception", Group.BEH_STATE, IntDomain(0, p.max_hp)),
        Var("combine_op", Group.BEH_STATE, SymbolicDomain(config.operators)),

        Var("fatigue", Group.BEH_OUTPUT, fatigue_dom),
        Var("mode_request", Group.BEH_OUTPUT, mode_dom),
        Var("manual_command", Group.BEH_OUTPUT, command_dom),
    ]

    def target_for(fatigue: FatigueLevel) -> int:
        floor = (adaptive_separation(fatigue, p.base_separation)
                 if config.adaptive_target else p.base_separation)
        return floor + p.acc_margin

    def route_from(env_state) -> Route:
        points = tuple(
            RoutePoint(obstacle=env_state[f"seg{i}_obstacle"],
                       distance=env_state[f"seg{i}_distance"],
                       terrain=env_state[f"seg{i}_terrain"],
                       curvature=env_state[f"seg{i}_curvature"])
            for i in range(n_seg))
        return Route(points, cursor=env_state.cursor, covered=env_state.covered)

    def env_input(sys_out, env_state, ctx):
        return {"moved": sys_out.speed}

    def env_output(env_in, env_state, ctx):
        route = advance_route(route_from(env_state), env_in.moved)
        if route.complete:
            seg = {"terrain": Terrain.onRoad, "obstacle": 0, "curvature": 0}
            done = True
        else:
            here = route.current
            seg = {"terrain": here.terrain, "obstacle": here.obstacle,
                   "curvature": here.curvature}
            done = False
        return {**seg, "journey_done": done, "lead_speed": env_state.lead_speed}

    def env_state_update(env_in, env_state, ctx):
        route = advance_route(route_from(env_state), env_in.moved)
        return {"cursor": route.cursor, "covered": route.covered}

    def sys_input(beh_out, env_out, sys_state):
        mode = config.control_mode if config.control_mode is not None \
            else beh_out.mode_request
        done = env_out.journey_done
        if done:
            command = AccCommand.Decelerate
        elif mode is ControlMode.Manual:
            command = beh_out.manual_command
        else:
            command = acc_decide(target_for(beh_out.fatigue), sys_state.gap)
        return {"command": command, "active_mode": mode,
                "lead_speed": env_out.lead_speed,
                "fatigue_seen": beh_out.fatigue, "done_seen": done}

    def drive(sys_in, sys_state) -> dict:
        vehicle = VehicleState(speed=sys_state.speed, gap_to_lead=sys_state.gap,
                               acc_status=sys_in.active_mode)
        moved = apply_command(vehicle, sys_in.command, sys_in.lead_speed,
                              p.max_speed)
        # the gap sensor saturates at max_gap once the lead pulls far ahead
        return {"speed": moved.speed, "gap": min(p.max_gap, moved.gap_to_lead),
                "acc_status": sys_in.active_mode}

    def sys_output(sys_in, sys_state):
        return drive(sys_in, sys_state)

    def sys_state_update(sys_in, sys_state):
        return {**drive(sys_in, sys_state),
                "target_gap": target_for(sys_in.fatigue_seen)}

    def beh_input(beh_state, env_out, sys_out, ctx):
        difficulty = point_difficulty(env_out.terrain, env_out.obstacle,
                                      env_out.curvature,
                                      p.hard_obstacle, p.hard_curvature)
        return {"terrain_difficulty": difficulty,
                "done_seen": env_out.journey_done}

    def fatigue_step(beh_in, beh_state) -> tuple[int, FatigueLevel]:
        if beh_in.done_seen:
            time_driven = beh_state.time_driven
        else:
            time_driven = min(beh_state.time_driven + 1, p.time_cap)
        if config.fatigue_source == PROBED:
            fatigue = beh_state.fatigue
        else:
            fatigue = set_driver_fatigue(time_driven, beh_in.terrain_difficulty,
                                         beh_state.combine_op,
                                         p.tired_after, p.exhausted_after)
        return time_driven, fatigue

    draws_mode = config.control_mode is None
    draws_command = (draws_mode and ControlMode.Manual in config.mode_domain) \
        or config.control_mode is ControlMode.Manual

    def beh_output(beh_in, beh_state, ctx):
        _, fatigue = fatigue_step(beh_in, beh_state)
        if draws_mode:
            request = ctx.choose("controlMode")
        else:
            request = config.control_mode
        if draws_command and request is ControlMode.Manual:
            manual = ctx.choose("driverCommand")
        else:
            manual = AccCommand.Maintain
        return {"fatigue": fatigue, "mode_request": request,
                "manual_command": manual}

    def beh_state_update(beh_in, beh_state, ctx):
        time_driven, fatigue = fatigue_step(beh_in, beh_state)
        return {"time_driven": time_driven, "fatigue": fatigue,
                "reaction_time": set_reaction_time(p.input_mode, fatigue,
                                                   p.profile),
                "hazard_perception": perception_from_fatigue(fatigue, p.max_hp)}

    updates = UpdateFunctions(
        env_input=env_input, sys_input=sys_input, beh_input=beh_input,
        env_output=env_output, sys_output=sys_output, beh_output=beh_output,
        env_state=env_state_update, sys_state=sys_state_update,
        beh_state=beh_state_update)

    choices: list[ChoicePoint] = []
    if draws_mode:
        choices.append(ChoicePoint("controlMode", config.mode_domain,
                                   site=Group.BEH_OUTPUT))
    if draws_command:
        choices.append(ChoicePoint("driverCommand", config.command_domain,
                                   site=Group.BEH_OUTPUT))

    init_choices: list[tuple[tuple[Group, str], ChoicePoint]] = []
    if config.route_spec is not None:
        for cp in nondet_route_choices(config.route_spec):
            # "route:seg3_terrain" -> variable seg3_terrain
            var_name = cp.point_id.split(":", 1)[1]
            init_choices.append(((Group.ENV_STATE, var_name), cp))
    if len(config.operators) > 1:
        init_choices.append(((Group.BEH_STATE, "combine_op"),
                             ChoicePoint("integrator", config.operators,
                                         site=None)))

    first_seg = _first_segment_view(config)
    init_mode = config.control_mode if config.control_mode is not None \
        else config.mode_domain[0]
    init_fatigue = FatigueLevel.Normal
    init_speed = min(1, p.max_speed)
    init_gap = initial_target
    init_difficulty = point_difficulty(first_seg.terrain, first_seg.obstacle,
                                       first_seg.curvature,
                                       p.hard_obstacle, p.hard_curvature)

    init: dict[tuple[Group, str], object] = {}
    if config.route is not None:
        segments = config.route
    else:
        segments = tuple(_first_segment_view(config) for _ in range(n_seg))
    for i, pt in enumerate(segments):
        init[(Group.ENV_STATE, f"seg{i}_obstacle")] = pt.obstacle
        init[(Group.ENV_STATE, f"seg{i}_distance")] = pt.distance
        init[(Group.ENV_STATE, f"seg{i}_terrain")] = pt.terrain
        init[(Group.ENV_STATE, f"seg{i}_curvature")] = pt.curvature
    init.update({
        (Group.ENV_STATE, "cursor"): 0,
        (Group.ENV_STATE, "covered"): 0,
        (Group.ENV_STATE, "lead_speed"): p.lead_speed,
        (Group.ENV_INPUT, "moved"): 0,
        (Group.ENV_OUTPUT, "terrain"): first_seg.terrain,
        (Group.ENV_OUTPUT, "obstacle"): first_seg.obstacle,
        (Group.ENV_OUTPUT, "curvature"): first_seg.curvature,
        (Group.ENV_OUTPUT, "journey_done"): False,
        (Group.ENV_OUTPUT, "lead_speed"): p.lead_speed,
        (Group.SYS_INPUT, "command"): AccCommand.Maintain,
        (Group.SYS_INPUT, "active_mode"): init_mode,
        (Group.SYS_INPUT, "lead_speed"): p.lead_speed,
        (Group.SYS_INPUT, "fatigue_seen"): init_fatigue,
        (Group.SYS_INPUT, "done_seen"): False,
        (Group.SYS_STATE, "speed"): init_speed,
        (Group.SYS_STATE, "gap"): init_gap,
        (Group.SYS_STATE, "target_gap"): initial_target,
        (Group.SYS_STATE, "acc_status"): init_mode,
        (Group.SYS_OUTPUT, "speed"): init_speed,
        (Group.SYS_OUTPUT, "gap"): init_gap,
        (Group.SYS_OUTPUT, "acc_status"): init_mode,
        (Group.BEH_INPUT, "terrain_difficulty"): init_difficulty,
        (Group.BEH_INPUT, "done_seen"): False,
        (Group.BEH_STATE, "time_driven"): 0,
        (Group.BEH_STATE, "fatigue"): init_fatigue,
        (Group.BEH_STATE, "reaction_time"):
            set_reaction_time(p.input_mode, init_fatigue, p.profile),
        (Group.BEH_STATE, "hazard_perception"):
            perception_from_fatigue(init_fatigue, p.max_hp),
        (Group.BEH_STATE, "combine_op"): config.operators[0],
        (Group.BEH_OUTPUT, "fatigue"): init_fatigue,
        (Group.BEH_OUTPUT, "mode_request"): init_mode,
        (Group.BEH_OUTPUT, "manual_command"): AccCommand.Maintain,
    })

    def separation_holds(state: ModelState) -> bool:
        fatigue = state.value(Group.BEH_STATE, "fatigue")
        stopping = compute_safe_stopping(
            state.value(Group.SYS_STATE, "speed"),
            state.value(Group.BEH_STATE, "reaction_time"))
        return is_okay(fatigue, stopping, state.value(Group.SYS_STATE, "gap"),
                       base_separation=p.base_separation)

    def fatigue_bounded(state: ModelState) -> bool:
        exhausted = state.value(Group.BEH_STATE, "fatigue") is FatigueLevel.Exhausted
        return not (exhausted and not state.value(Group.ENV_OUTPUT, "journey_done"))

    assertions = [Assertion("SeparationMaintained", separation_holds)]
    if not config.separation_only:
        assertions.append(Assertion("FatigueBounded", fatigue_bounded))

    return register_model(variables=variables, updates=updates,
                          choices=choices, assertions=assertions,
                          init=init, init_choices=init_choices,
                          name=config.name)


def scenario_ideal(**overrides) -> ScenarioConfig:
    """Cruise control engaged, separation preset follows fatigue, fixed
    route.  Expected safe at the full bound."""
    return ScenarioConfig(name="ideal", route=DEFAULT_ROUTE,
                          control_mode=ControlMode.Engaged,
                          adaptive_target=True, **overrides)


def scenario_lowered_speed(**overrides) -> ScenarioConfig:
    """Cruise control engaged on a route of unknown difficulty.  The
    fatigue-widened preset slows the vehicle on hard ground, so a demanding
    route keeps the driver out long enough to exhaust them."""
    return ScenarioConfig(name="lowered-speed", route_spec=RouteSpec(),
                          control_mode=ControlMode.Engaged,
                          adaptive_target=True, **overrides)


def scenario_manual_override(**overrides) -> ScenarioConfig:
    """The driver may seize manual control with an arbitrary command at any
    iteration; the separation preset stays fixed.  Expected to break the
    separation property."""
    return ScenarioConfig(name="manual-override", route=DEFAULT_ROUTE,
                          control_mode=None, adaptive_target=False,
                          **overrides)


def reaction_probe(**overrides) -> ScenarioConfig:
    """Fixture for initial-value probing: fatigue pinned to its starting
    level, speech-only interaction, cruise control engaged, and only the
    separation property checked.  Probing the fatigue variable shows which
    starting level makes the stopping distance outgrow the gap."""
    params = overrides.pop("params", ScenarioParams(input_mode=InputMode.Speech))
    operators = overrides.pop("operators", (IntegratorOp.Max,))
    return ScenarioConfig(name="reaction-probe", route=DEFAULT_ROUTE,
                          control_mode=ControlMode.Engaged,
                          fatigue_source=PROBED, adaptive_target=False,
                          separation_only=True, operators=operators,
                          params=params, **overrides)


SCENARIOS = {
    "ideal": scenario_ideal,
    "lowered-speed": scenario_lowered_speed,
    "manual-override": scenario_manual_override,
    "reaction-probe": reaction_probe,
}
