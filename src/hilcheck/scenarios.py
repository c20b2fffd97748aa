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

`SCENARIOS` maps each preset to a `ScenarioConfig`; three reproduce the
published verdicts: `ideal` (safe), `lowered-speed` (fatigue bound breaks
on a demanding route), and `manual-override` (a driver-chosen command
breaks separation).  `ScenarioConfig` checks every knob, so `build_model`
only builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .acc import (AccCommand, ControlMode, acc_decide, adaptive_separation,
                  apply_command, compute_safe_stopping)
from .behaviour import (FatigueLevel, InputMode, IntegratorOp, ReactionProfile,
                        perception_from_fatigue, set_driver_fatigue,
                        set_reaction_time)
from .engine import (Assertion, BoolDomain, ChoicePoint, Group, IntDomain,
                     Model, ModelState, SymbolicDomain, UpdateFunctions, Var,
                     register_model)
from .environment import (MAX_CURVATURE, MAX_OBSTACLE, MAX_ROUTE_LENGTH,
                          ROUTE_CANDIDATES, RoutePoint, Terrain, advance_route,
                          point_difficulty)

ALL_OPERATORS = tuple(IntegratorOp)
ALL_MODES = tuple(ControlMode)
ALL_COMMANDS = tuple(AccCommand)
ALL_FATIGUE = tuple(FatigueLevel)

CALCULATED = "calculated"
PROBED = "probed"

DEFAULT_BOUND = 100

# a drawn route has this many segments unless a config file says otherwise
DEFAULT_ROUTE_LENGTH = 5

# segment distances range up to this, or further if a route needs it
MAX_ROUTE_DISTANCE = 3

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
class ScenarioConfig:
    """A full scenario: route, control and fatigue regimes, bound, knobs.

    Exactly one of `route` (a fixed segment list) and `route_length` (the
    segment count of a route drawn from `ROUTE_CANDIDATES`) must be given.
    `control_mode` pins the vehicle to one mode; None lets the driver
    request either mode each iteration.  `adaptive_target` selects whether
    the cruise preset follows fatigue or stays at the base separation; the
    safety property always uses the fatigue-adjusted floor either way.
    Every config that constructs builds into a model.
    """

    name: str
    route: tuple[RoutePoint, ...] | None = None
    route_length: int | None = None
    control_mode: ControlMode | None = ControlMode.Engaged
    command_domain: tuple[AccCommand, ...] = ALL_COMMANDS
    fatigue_source: str = CALCULATED
    adaptive_target: bool = True
    operators: tuple[IntegratorOp, ...] = ALL_OPERATORS
    separation_only: bool = False
    bound: int = DEFAULT_BOUND
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

    def __post_init__(self) -> None:
        if self.max_speed < 1 or self.max_gap < 1:
            raise ValueError("speed and gap ceilings must be positive")
        if self.lead_speed < 0 or self.lead_speed > self.max_speed:
            raise ValueError("lead speed must be in 0..max_speed")
        if self.base_separation < 1 or self.acc_margin < 0:
            raise ValueError("separation base must be positive, margin non-negative")
        if not 0 < self.tired_after < self.exhausted_after:
            raise ValueError("fatigue thresholds must satisfy "
                             "0 < tired_after < exhausted_after")
        if self.time_cap < self.exhausted_after:
            raise ValueError("time cap must reach the exhaustion threshold")
        if self.max_hp < 1:
            raise ValueError("max_hp must be at least 1")
        if (self.route is None) == (self.route_length is None):
            raise ValueError("give exactly one of route and route_length")
        if self.route is not None and not self.route:
            raise ValueError("a route needs at least one segment")
        if self.route is None and not 1 <= self.route_length <= MAX_ROUTE_LENGTH:
            raise ValueError(f"a drawn route has 1..{MAX_ROUTE_LENGTH} segments")
        if self.fatigue_source not in (CALCULATED, PROBED):
            raise ValueError(f"unknown fatigue source {self.fatigue_source!r}")
        if not self.operators:
            raise ValueError("at least one integrator operator is required")
        if len(set(self.operators)) != len(self.operators):
            raise ValueError("duplicate integrator operators")
        if not self.command_domain \
                or len(set(self.command_domain)) != len(self.command_domain):
            raise ValueError("command domain must be non-empty and duplicate-free")
        if self.bound < 1:
            raise ValueError("bound must be at least 1")
        if max(map(self.target_for, ALL_FATIGUE)) > self.max_gap:
            raise ValueError("separation target exceeds the gap ceiling")

    def target_for(self, fatigue: FatigueLevel) -> int:
        """The cruise controller's gap preset at this fatigue level."""
        floor = (adaptive_separation(fatigue, self.base_separation)
                 if self.adaptive_target else self.base_separation)
        return floor + self.acc_margin


def is_okay(fatigue: FatigueLevel, stopping_distance: int, gap: int, *,
            base_separation: int) -> bool:
    """The per-iteration separation property.

    The gap must cover both the driver's stopping distance and the
    fatigue-widened minimum separation.
    """
    floor = adaptive_separation(fatigue, base_separation)
    return gap >= stopping_distance and gap >= floor


def build_model(config: ScenarioConfig) -> Model:
    """Assemble and register the three-model loop for one scenario."""
    target_for = config.target_for
    drawn = config.route is None

    # a drawn route starts out as its first candidate segment, repeated
    if drawn:
        first = RoutePoint(**{name: candidates[0] for name, candidates
                              in ROUTE_CANDIDATES.items()})
        segments = (first,) * config.route_length
        distances = ROUTE_CANDIDATES["distance"]
    else:
        segments = config.route
        distances = [pt.distance for pt in segments]
    first_seg = segments[0]   # what the environment reports before iteration 1
    n_seg = len(segments)
    d_max = max(MAX_ROUTE_DISTANCE, *distances)
    rt_max = config.profile.slow * config.profile.e_factor

    distance_keys = [f"seg{i}_distance" for i in range(n_seg)]
    segment_keys = [(f"seg{i}_terrain", f"seg{i}_obstacle", f"seg{i}_curvature")
                    for i in range(n_seg)]

    def env_input(sys_out, env_state, ctx):
        return {"moved": sys_out.speed}

    def env_state_update(env_in, env_state, ctx):
        cursor, covered = advance_route(
            [env_state[key] for key in distance_keys],
            env_state.cursor, env_state.covered, env_in.moved)
        return {"cursor": cursor, "covered": covered}

    def env_output(env_in, env_state, ctx):
        cursor = env_state.cursor
        if cursor == n_seg:
            terrain, obstacle, curvature = Terrain.onRoad, 0, 0
        else:
            terrain, obstacle, curvature = (env_state[key]
                                            for key in segment_keys[cursor])
        return {"terrain": terrain, "obstacle": obstacle,
                "curvature": curvature, "journey_done": cursor == n_seg,
                "lead_speed": env_state.lead_speed}

    def sys_input(beh_out, env_out, sys_state):
        mode = beh_out.mode_request
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

    def sys_state_update(sys_in, sys_state):
        speed, gap = apply_command(sys_state.speed, sys_state.gap,
                                   sys_in.command, sys_in.lead_speed,
                                   config.max_speed)
        # the gap sensor saturates at max_gap once the lead pulls far ahead
        return {"speed": speed, "gap": min(config.max_gap, gap),
                "acc_status": sys_in.active_mode,
                "target_gap": target_for(sys_in.fatigue_seen)}

    def sys_output(sys_in, sys_state):
        return {"speed": sys_state.speed, "gap": sys_state.gap,
                "acc_status": sys_state.acc_status}

    def beh_input(beh_state, env_out, sys_out, ctx):
        difficulty = point_difficulty(env_out.terrain, env_out.obstacle,
                                      env_out.curvature)
        return {"terrain_difficulty": difficulty,
                "done_seen": env_out.journey_done}

    def beh_state_update(beh_in, beh_state, ctx):
        if beh_in.done_seen:
            time_driven = beh_state.time_driven
        else:
            time_driven = min(beh_state.time_driven + 1, config.time_cap)
        if config.fatigue_source == PROBED:
            fatigue = beh_state.fatigue
        else:
            fatigue = set_driver_fatigue(time_driven, beh_in.terrain_difficulty,
                                         beh_state.combine_op,
                                         config.tired_after,
                                         config.exhausted_after)
        return {"time_driven": time_driven, "fatigue": fatigue,
                "reaction_time": set_reaction_time(config.input_mode, fatigue,
                                                   config.profile),
                "hazard_perception": perception_from_fatigue(fatigue,
                                                             config.max_hp)}

    draws_mode = config.control_mode is None

    def beh_output(beh_in, beh_state, ctx):
        if draws_mode:
            request = ctx.choose("controlMode")
        else:
            request = config.control_mode
        if request is ControlMode.Manual:
            manual = ctx.choose("driverCommand")
        else:
            manual = AccCommand.Maintain
        return {"fatigue": beh_state.fatigue, "mode_request": request,
                "manual_command": manual}

    updates = UpdateFunctions(
        env_input=env_input, sys_input=sys_input, beh_input=beh_input,
        env_output=env_output, sys_output=sys_output, beh_output=beh_output,
        env_state=env_state_update, sys_state=sys_state_update,
        beh_state=beh_state_update)

    choices: list[ChoicePoint] = []
    if draws_mode:
        choices.append(ChoicePoint("controlMode", ALL_MODES,
                                   site=Group.BEH_OUTPUT))
    if config.control_mode is not ControlMode.Engaged:
        choices.append(ChoicePoint("driverCommand", config.command_domain,
                                   site=Group.BEH_OUTPUT))

    init_mode = config.control_mode if config.control_mode is not None \
        else ALL_MODES[0]
    normal = FatigueLevel.Normal
    init_speed = 1
    init_gap = target_for(normal)

    mode_dom = SymbolicDomain(ALL_MODES)
    command_dom = SymbolicDomain(ALL_COMMANDS)
    fatigue_dom = SymbolicDomain(ALL_FATIGUE)
    terrain_dom = SymbolicDomain(tuple(Terrain))
    bool_dom = BoolDomain()
    speed_dom = IntDomain(0, config.max_speed)
    gap_dom = IntDomain(0, config.max_gap)
    obstacle_dom = IntDomain(0, MAX_OBSTACLE)
    distance_dom = IntDomain(1, d_max)
    curvature_dom = IntDomain(0, MAX_CURVATURE)

    field_doms = {"obstacle": obstacle_dom, "distance": distance_dom,
                  "terrain": terrain_dom, "curvature": curvature_dom}

    # every variable once, in declared order, with its initial value; a
    # drawn route's fields are drawn in that order, before the integrator
    variables = []
    init_choices: list[tuple[tuple[Group, str], ChoicePoint]] = []
    for i, pt in enumerate(segments):
        for field_name, candidates in ROUTE_CANDIDATES.items():
            name = f"seg{i}_{field_name}"
            variables.append(Var(name, Group.ENV_STATE, field_doms[field_name],
                                 getattr(pt, field_name)))
            if drawn:
                init_choices.append(((Group.ENV_STATE, name),
                                     ChoicePoint(f"route:{name}", candidates,
                                                 site=None)))
    if len(config.operators) > 1:
        init_choices.append(((Group.BEH_STATE, "combine_op"),
                             ChoicePoint("integrator", config.operators,
                                         site=None)))
    variables += [
        Var("cursor", Group.ENV_STATE, IntDomain(0, n_seg), 0),
        Var("covered", Group.ENV_STATE, IntDomain(0, d_max - 1), 0),
        Var("lead_speed", Group.ENV_STATE, speed_dom, config.lead_speed),

        Var("moved", Group.ENV_INPUT, speed_dom, 0),

        Var("terrain", Group.ENV_OUTPUT, terrain_dom, first_seg.terrain),
        Var("obstacle", Group.ENV_OUTPUT, obstacle_dom, first_seg.obstacle),
        Var("curvature", Group.ENV_OUTPUT, curvature_dom, first_seg.curvature),
        Var("journey_done", Group.ENV_OUTPUT, bool_dom, False),
        Var("lead_speed", Group.ENV_OUTPUT, speed_dom, config.lead_speed),

        Var("command", Group.SYS_INPUT, command_dom, AccCommand.Maintain),
        Var("active_mode", Group.SYS_INPUT, mode_dom, init_mode),
        Var("lead_speed", Group.SYS_INPUT, speed_dom, config.lead_speed),
        Var("fatigue_seen", Group.SYS_INPUT, fatigue_dom, normal),
        Var("done_seen", Group.SYS_INPUT, bool_dom, False),

        Var("speed", Group.SYS_STATE, speed_dom, init_speed),
        Var("gap", Group.SYS_STATE, gap_dom, init_gap),
        Var("target_gap", Group.SYS_STATE, gap_dom, init_gap),
        Var("acc_status", Group.SYS_STATE, mode_dom, init_mode),

        Var("speed", Group.SYS_OUTPUT, speed_dom, init_speed),
        Var("gap", Group.SYS_OUTPUT, gap_dom, init_gap),
        Var("acc_status", Group.SYS_OUTPUT, mode_dom, init_mode),

        Var("terrain_difficulty", Group.BEH_INPUT, IntDomain(0, 1),
            point_difficulty(first_seg.terrain, first_seg.obstacle,
                             first_seg.curvature)),
        Var("done_seen", Group.BEH_INPUT, bool_dom, False),

        Var("time_driven", Group.BEH_STATE, IntDomain(0, config.time_cap), 0),
        Var("fatigue", Group.BEH_STATE, fatigue_dom, normal),
        Var("reaction_time", Group.BEH_STATE, IntDomain(0, rt_max),
            set_reaction_time(config.input_mode, normal, config.profile)),
        Var("hazard_perception", Group.BEH_STATE, IntDomain(0, config.max_hp),
            perception_from_fatigue(normal, config.max_hp)),
        Var("combine_op", Group.BEH_STATE, SymbolicDomain(config.operators),
            config.operators[0]),

        Var("fatigue", Group.BEH_OUTPUT, fatigue_dom, normal),
        Var("mode_request", Group.BEH_OUTPUT, mode_dom, init_mode),
        Var("manual_command", Group.BEH_OUTPUT, command_dom,
            AccCommand.Maintain),
    ]

    def separation_holds(state: ModelState) -> bool:
        fatigue = state.value(Group.BEH_STATE, "fatigue")
        stopping = compute_safe_stopping(
            state.value(Group.SYS_STATE, "speed"),
            state.value(Group.BEH_STATE, "reaction_time"))
        return is_okay(fatigue, stopping, state.value(Group.SYS_STATE, "gap"),
                       base_separation=config.base_separation)

    def fatigue_bounded(state: ModelState) -> bool:
        exhausted = state.value(Group.BEH_STATE, "fatigue") is FatigueLevel.Exhausted
        return not (exhausted and not state.value(Group.ENV_OUTPUT, "journey_done"))

    assertions = [Assertion("SeparationMaintained", separation_holds)]
    if not config.separation_only:
        assertions.append(Assertion("FatigueBounded", fatigue_bounded))

    return register_model(variables=variables, updates=updates,
                          choices=choices, assertions=assertions,
                          init_choices=init_choices, name=config.name)


SCENARIOS = {
    # engaged, preset follows fatigue, fixed route: safe at the full bound
    "ideal": ScenarioConfig(name="ideal", route=DEFAULT_ROUTE),
    # a demanding drawn route slows the vehicle until the driver is exhausted
    "lowered-speed": ScenarioConfig(name="lowered-speed",
                                    route_length=DEFAULT_ROUTE_LENGTH),
    # any manual command at any iteration against a fixed preset: unsafe
    "manual-override": ScenarioConfig(
        name="manual-override", route=DEFAULT_ROUTE, control_mode=None,
        adaptive_target=False),
    # probe fixture: fatigue pinned, speech only, separation checked alone
    "reaction-probe": ScenarioConfig(
        name="reaction-probe", route=DEFAULT_ROUTE, fatigue_source=PROBED,
        adaptive_target=False, separation_only=True,
        operators=(IntegratorOp.Max,), input_mode=InputMode.Speech),
}
