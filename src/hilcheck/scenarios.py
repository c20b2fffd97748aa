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

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import get_args, get_origin, get_type_hints

from .acc import (AccCommand, ControlMode, acc_decide, adaptive_separation,
                  apply_command, compute_safe_stopping)
from .behaviour import (FatigueLevel, InputMode, IntegratorOp,
                        perception_from_fatigue, set_driver_fatigue,
                        set_reaction_time)
from .engine import (Assertion, ChoicePoint, Group, IntDomain, Model,
                     ModelError, ModelState, SymbolicDomain, UpdateFunctions,
                     Var, check_token, register_model)
from .environment import (MAX_CURVATURE, MAX_OBSTACLE, MAX_ROUTE_LENGTH,
                          ROUTE_CANDIDATES, RoutePoint, Terrain, advance_route,
                          point_difficulty)

ALL_OPERATORS = tuple(IntegratorOp)
ALL_MODES = tuple(ControlMode)
ALL_COMMANDS = tuple(AccCommand)
ALL_FATIGUE = tuple(FatigueLevel)

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
    `fatigue_pinned` holds the driver's fatigue at its initial level, for a
    probe to set, instead of working it out from time and terrain.
    `fast < okay < slow` are the driver's base reaction latencies with
    multi-modal, game-pad and speech input, and `n_factor <= t_factor <=
    e_factor` their multipliers at each fatigue level.  Every config that
    constructs builds into a model; a knob whose value does not have
    exactly the type its annotation names is a ValueError, like a value
    out of range.
    """

    name: str
    route: tuple[RoutePoint, ...] | None = None
    route_length: int | None = None
    control_mode: ControlMode | None = ControlMode.Engaged
    command_domain: tuple[AccCommand, ...] = ALL_COMMANDS
    fatigue_pinned: bool = False
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
    fast: int = 1
    okay: int = 2
    slow: int = 3
    n_factor: int = 1
    t_factor: int = 2
    e_factor: int = 3
    tired_after: int = 4
    exhausted_after: int = 8
    time_cap: int = 12
    max_hp: int = 5

    def __post_init__(self) -> None:
        try:
            check_token(self.name, "scenario name")
        except ModelError as exc:
            raise ValueError(str(exc)) from None
        for knob, (kind, is_tuple, optional) in _KNOBS.items():
            value = getattr(self, knob)
            if value is None and optional:
                continue
            if not (type(value) is tuple and all(type(v) is kind for v in value)
                    if is_tuple else type(value) is kind):
                raise ValueError(f"{knob} takes {kind.__name__} values, got "
                                 f"{value!r}")
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
        if not (0 < self.fast < self.okay < self.slow):
            raise ValueError("base latencies must satisfy 0 < fast < okay < slow")
        if not (1 <= self.n_factor <= self.t_factor <= self.e_factor):
            raise ValueError("fatigue factors must be >= 1 and non-decreasing")
        if (self.route is None) == (self.route_length is None):
            raise ValueError("give exactly one of route and route_length")
        if self.route is not None and not self.route:
            raise ValueError("a route needs at least one segment")
        if self.route is None and not 1 <= self.route_length <= MAX_ROUTE_LENGTH:
            raise ValueError(f"a drawn route has 1..{MAX_ROUTE_LENGTH} segments")
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


def _knob_type(hint) -> tuple[type, bool, bool]:
    """(type, is_tuple, optional) of a knob annotated `X`, `X | None` or
    `tuple[X, ...]`: the type of its value, or of each item of a tuple."""
    optional = type(None) in get_args(hint)
    if optional:
        hint, = (arg for arg in get_args(hint) if arg is not type(None))
    is_tuple = get_origin(hint) is tuple
    return (get_args(hint)[0] if is_tuple else hint), is_tuple, optional


# each knob's type, read from its annotation and checked exactly: neither
# True nor 10.5 is an int, though both compare like one, and only an Enum's
# members have its type
_KNOBS = {knob: _knob_type(hint)
          for knob, hint in get_type_hints(ScenarioConfig).items()}


def is_okay(fatigue: FatigueLevel, stopping_distance: int, gap: int, *,
            base_separation: int) -> bool:
    """The per-iteration separation property.

    The gap must cover both the driver's stopping distance and the
    fatigue-widened minimum separation.
    """
    floor = adaptive_separation(fatigue, base_separation)
    return gap >= stopping_distance and gap >= floor


# the domains no knob changes, built once
_MODE_DOM = SymbolicDomain(ALL_MODES)
_COMMAND_DOM = SymbolicDomain(ALL_COMMANDS)
_FATIGUE_DOM = SymbolicDomain(ALL_FATIGUE)
_TERRAIN_DOM = SymbolicDomain(tuple(Terrain))
_BOOL_DOM = SymbolicDomain((False, True))
_OBSTACLE_DOM = IntDomain(0, MAX_OBSTACLE)
_CURVATURE_DOM = IntDomain(0, MAX_CURVATURE)


# what each update reads, so that it is handed those variables alone and a
# search runs it once per distinct value of them; `build_model` adds what
# depends on the scenario: the route's segment fields, which env_state and
# env_output read, and one variable of the driver's state
_READS = {
    Group.ENV_INPUT: ((Group.SYS_OUTPUT, "speed"),),
    Group.ENV_STATE: ((Group.ENV_INPUT, "moved"), (Group.ENV_STATE, "cursor"),
                      (Group.ENV_STATE, "covered")),
    Group.ENV_OUTPUT: ((Group.ENV_STATE, "cursor"),
                       (Group.ENV_STATE, "lead_speed")),
    Group.SYS_INPUT: ((Group.BEH_OUTPUT, "mode_request"),
                      (Group.BEH_OUTPUT, "manual_command"),
                      (Group.BEH_OUTPUT, "fatigue"),
                      (Group.ENV_OUTPUT, "journey_done"),
                      (Group.ENV_OUTPUT, "lead_speed"),
                      (Group.SYS_STATE, "gap")),
    Group.SYS_STATE: ((Group.SYS_INPUT, "command"),
                      (Group.SYS_INPUT, "lead_speed"),
                      (Group.SYS_INPUT, "active_mode"),
                      (Group.SYS_INPUT, "fatigue_seen"),
                      (Group.SYS_STATE, "speed"), (Group.SYS_STATE, "gap")),
    Group.SYS_OUTPUT: ((Group.SYS_STATE, "speed"), (Group.SYS_STATE, "gap"),
                       (Group.SYS_STATE, "acc_status")),
    Group.BEH_INPUT: ((Group.ENV_OUTPUT, "terrain"),
                      (Group.ENV_OUTPUT, "obstacle"),
                      (Group.ENV_OUTPUT, "curvature"),
                      (Group.ENV_OUTPUT, "journey_done")),
    Group.BEH_STATE: ((Group.BEH_INPUT, "done_seen"),
                      (Group.BEH_INPUT, "terrain_difficulty"),
                      (Group.BEH_STATE, "time_driven")),
    Group.BEH_OUTPUT: ((Group.BEH_STATE, "fatigue"),),
}


def fatigue_tables(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    """What each fatigue level fixes in a scenario, worked out once: its
    cruise gap preset, reaction time and hazard perception, each a
    FatigueLevel -> int map."""
    return ({level: config.target_for(level) for level in ALL_FATIGUE},
            {level: set_reaction_time(config.input_mode, level, config)
             for level in ALL_FATIGUE},
            {level: perception_from_fatigue(level, config.max_hp)
             for level in ALL_FATIGUE})


def build_model(config: ScenarioConfig) -> Model:
    """Assemble and register the three-model loop for one scenario.  The
    updates look each fatigue level's figures up in `fatigue_tables`, and
    the assertions read their values by position."""
    target_gap, reaction_time, perception = fatigue_tables(config)
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
    rt_max = config.slow * config.e_factor

    # one getter per read: every segment's distance, and each segment's
    # terrain, obstacle and curvature
    distances_of = attrgetter(*(f"seg{i}_distance" for i in range(n_seg)))
    segment_of = [attrgetter(f"seg{i}_terrain", f"seg{i}_obstacle",
                             f"seg{i}_curvature") for i in range(n_seg)]

    # the members the updates and assertions use each step, bound once:
    # reading a member off its class costs ten times reading a name
    on_road = Terrain.onRoad
    manual, maintain = ControlMode.Manual, AccCommand.Maintain
    decelerate = AccCommand.Decelerate
    normal, exhausted = FatigueLevel.Normal, FatigueLevel.Exhausted

    def env_input(sys_out, env_state, ctx):
        return {"moved": sys_out.speed}

    def env_state_update(env_in, env_state, ctx):
        distances = distances_of(env_state)
        cursor, covered = advance_route(
            # attrgetter of one name gives the bare value
            distances if n_seg > 1 else (distances,),
            env_state.cursor, env_state.covered, env_in.moved)
        return {"cursor": cursor, "covered": covered}

    def env_output(env_in, env_state, ctx):
        cursor = env_state.cursor
        if cursor == n_seg:
            terrain, obstacle, curvature = on_road, 0, 0
        else:
            terrain, obstacle, curvature = segment_of[cursor](env_state)
        return {"terrain": terrain, "obstacle": obstacle,
                "curvature": curvature, "journey_done": cursor == n_seg,
                "lead_speed": env_state.lead_speed}

    def sys_input(beh_out, env_out, sys_state):
        mode = beh_out.mode_request
        done = env_out.journey_done
        if done:
            command = decelerate
        elif mode is manual:
            command = beh_out.manual_command
        else:
            command = acc_decide(target_gap[beh_out.fatigue], sys_state.gap)
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
                "target_gap": target_gap[sys_in.fatigue_seen]}

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
        if config.fatigue_pinned:
            fatigue = beh_state.fatigue
        else:
            fatigue = set_driver_fatigue(time_driven, beh_in.terrain_difficulty,
                                         beh_state.combine_op,
                                         config.tired_after,
                                         config.exhausted_after)
        return {"time_driven": time_driven, "fatigue": fatigue,
                "reaction_time": reaction_time[fatigue],
                "hazard_perception": perception[fatigue]}

    draws_mode = config.control_mode is None

    def beh_output(beh_in, beh_state, ctx):
        if draws_mode:
            request = ctx.choose("controlMode")
        else:
            request = config.control_mode
        if request is manual:
            command = ctx.choose("driverCommand")
        else:
            command = maintain
        return {"fatigue": beh_state.fatigue, "mode_request": request,
                "manual_command": command}

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
    init_speed = 1
    init_gap = target_gap[normal]

    speed_dom = IntDomain(0, config.max_speed)
    gap_dom = IntDomain(0, config.max_gap)
    field_doms = {"obstacle": _OBSTACLE_DOM, "distance": IntDomain(1, d_max),
                  "terrain": _TERRAIN_DOM, "curvature": _CURVATURE_DOM}

    # every variable once, in declared order, with its initial value; a
    # drawn route's fields are drawn in that order, before the integrator
    variables = []
    distance_reads, segment_reads = (), ()
    for i, pt in enumerate(segments):
        for field_name, candidates in ROUTE_CANDIDATES.items():
            name = f"seg{i}_{field_name}"
            variables.append(Var(name, Group.ENV_STATE, field_doms[field_name],
                                 getattr(pt, field_name)))
            # env_state reads the distances, env_output all the rest
            if field_name == "distance":
                distance_reads += ((Group.ENV_STATE, name),)
            else:
                segment_reads += ((Group.ENV_STATE, name),)
            if drawn:
                choices.append(ChoicePoint(f"route:{name}", candidates,
                                           site=(Group.ENV_STATE, name)))
    if len(config.operators) > 1:
        choices.append(ChoicePoint("integrator", config.operators,
                                   site=(Group.BEH_STATE, "combine_op")))
    variables += [
        Var("cursor", Group.ENV_STATE, IntDomain(0, n_seg), 0),
        Var("covered", Group.ENV_STATE, IntDomain(0, d_max - 1), 0),
        Var("lead_speed", Group.ENV_STATE, speed_dom, config.lead_speed),

        Var("moved", Group.ENV_INPUT, speed_dom, 0),

        Var("terrain", Group.ENV_OUTPUT, _TERRAIN_DOM, first_seg.terrain),
        Var("obstacle", Group.ENV_OUTPUT, _OBSTACLE_DOM, first_seg.obstacle),
        Var("curvature", Group.ENV_OUTPUT, _CURVATURE_DOM,
            first_seg.curvature),
        Var("journey_done", Group.ENV_OUTPUT, _BOOL_DOM, False),
        Var("lead_speed", Group.ENV_OUTPUT, speed_dom, config.lead_speed),

        Var("command", Group.SYS_INPUT, _COMMAND_DOM, AccCommand.Maintain),
        Var("active_mode", Group.SYS_INPUT, _MODE_DOM, init_mode),
        Var("lead_speed", Group.SYS_INPUT, speed_dom, config.lead_speed),
        Var("fatigue_seen", Group.SYS_INPUT, _FATIGUE_DOM, normal),
        Var("done_seen", Group.SYS_INPUT, _BOOL_DOM, False),

        Var("speed", Group.SYS_STATE, speed_dom, init_speed),
        Var("gap", Group.SYS_STATE, gap_dom, init_gap),
        Var("target_gap", Group.SYS_STATE, gap_dom, init_gap),
        Var("acc_status", Group.SYS_STATE, _MODE_DOM, init_mode),

        Var("speed", Group.SYS_OUTPUT, speed_dom, init_speed),
        Var("gap", Group.SYS_OUTPUT, gap_dom, init_gap),
        Var("acc_status", Group.SYS_OUTPUT, _MODE_DOM, init_mode),

        Var("terrain_difficulty", Group.BEH_INPUT, IntDomain(0, 1),
            point_difficulty(first_seg.terrain, first_seg.obstacle,
                             first_seg.curvature)),
        Var("done_seen", Group.BEH_INPUT, _BOOL_DOM, False),

        Var("time_driven", Group.BEH_STATE, IntDomain(0, config.time_cap), 0),
        Var("fatigue", Group.BEH_STATE, _FATIGUE_DOM, normal),
        Var("reaction_time", Group.BEH_STATE, IntDomain(0, rt_max),
            reaction_time[normal]),
        Var("hazard_perception", Group.BEH_STATE, IntDomain(0, config.max_hp),
            perception[normal]),
        Var("combine_op", Group.BEH_STATE, SymbolicDomain(config.operators),
            config.operators[0]),

        Var("fatigue", Group.BEH_OUTPUT, _FATIGUE_DOM, normal),
        Var("mode_request", Group.BEH_OUTPUT, _MODE_DOM, init_mode),
        Var("manual_command", Group.BEH_OUTPUT, _COMMAND_DOM,
            AccCommand.Maintain),
    ]

    # each assertion picks its values out of a state's, by position
    position = {(v.group, v.name): i for i, v in enumerate(variables)}
    separation_reads = itemgetter(
        position[Group.BEH_STATE, "fatigue"],
        position[Group.SYS_STATE, "speed"],
        position[Group.BEH_STATE, "reaction_time"],
        position[Group.SYS_STATE, "gap"])
    fatigue_reads = itemgetter(position[Group.BEH_STATE, "fatigue"],
                               position[Group.ENV_OUTPUT, "journey_done"])

    def separation_holds(state: ModelState) -> bool:
        fatigue, speed, reaction, gap = separation_reads(state.values)
        return is_okay(fatigue, compute_safe_stopping(speed, reaction), gap,
                       base_separation=config.base_separation)

    def fatigue_bounded(state: ModelState) -> bool:
        fatigue, journey_done = fatigue_reads(state.values)
        return journey_done or fatigue is not exhausted

    assertions = [Assertion("SeparationMaintained", separation_holds)]
    if not config.separation_only:
        assertions.append(Assertion("FatigueBounded", fatigue_bounded))

    # the route's fields each update reads, and the one variable of its own
    # state beh_state reads besides the time: a pinned fatigue is read
    # back, a worked-out one combines through the integrator
    reads = {**_READS,
             Group.ENV_STATE: _READS[Group.ENV_STATE] + distance_reads,
             Group.ENV_OUTPUT: _READS[Group.ENV_OUTPUT] + segment_reads,
             Group.BEH_STATE: _READS[Group.BEH_STATE] + (
                 (Group.BEH_STATE, "fatigue" if config.fatigue_pinned
                  else "combine_op"),)}

    return register_model(variables=variables, updates=updates,
                          choices=choices, assertions=assertions,
                          name=config.name, reads=reads)


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
        name="reaction-probe", route=DEFAULT_ROUTE, fatigue_pinned=True,
        adaptive_target=False, separation_only=True,
        operators=(IntegratorOp.Max,), input_mode=InputMode.Speech),
}
