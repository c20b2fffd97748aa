"""Flat key=value configuration files for scenario runs.

A config names a base scenario and overrides individual knobs.  Lines are
`key = value`; blank lines and `#` comments are skipped.  Unknown keys and
unparsable values are reported with their line number.  An empty file is a
valid config and means the default scenario untouched.
"""

from __future__ import annotations

from dataclasses import replace

from .acc import ControlMode
from .behaviour import InputMode, IntegratorOp
from .environment import RoutePoint, RouteSpec, Terrain
from .scenarios import CALCULATED, PROBED, SCENARIOS, ScenarioConfig


class ConfigError(Exception):
    pass


_PARAM_INT_KEYS = {
    "maxSpeed": "max_speed",
    "maxGap": "max_gap",
    "leadSpeed": "lead_speed",
    "baseSeparation": "base_separation",
    "accMargin": "acc_margin",
    "tiredAfter": "tired_after",
    "exhaustedAfter": "exhausted_after",
    "timeCap": "time_cap",
    "maxHP": "max_hp",
}

_PROFILE_INT_KEYS = {
    "fast": "fast",
    "okay": "okay",
    "slow": "slow",
    "nFactor": "n_factor",
    "tFactor": "t_factor",
    "eFactor": "e_factor",
}

_KNOWN_KEYS = {"scenario", "bound", "controlMode", "fatigueSource",
               "separation", "route", "routeLength", "operators",
               "inputMode"} | set(_PARAM_INT_KEYS) | set(_PROFILE_INT_KEYS)

_MODES = {"engaged": ControlMode.Engaged,
          "manual": ControlMode.Manual,
          "nondet": None}

_TERRAINS = {t.name: t for t in Terrain}

_OPERATORS = {op.name: op for op in IntegratorOp}

_INPUT_MODES = {m.name: m for m in InputMode}


def _parse_int(raw: str, lineno: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} needs an integer, "
                          f"got {raw!r}") from None


def parse_operators(raw: str) -> tuple[IntegratorOp, ...]:
    """Comma-separated fatigue integrator names, as the `operators` key and
    the CLI's `--operators` take them."""
    ops = []
    for part in raw.split(","):
        name = part.strip()
        if not name:
            continue
        if name not in _OPERATORS:
            raise ConfigError(f"unknown operator {name!r} "
                              f"(use one of {', '.join(_OPERATORS)})")
        ops.append(_OPERATORS[name])
    if not ops:
        raise ConfigError("operators must name at least one operator")
    if len(set(ops)) != len(ops):
        raise ConfigError("operators lists an operator twice")
    return tuple(ops)


def _parse_route(raw: str, lineno: int) -> tuple[RoutePoint, ...]:
    points = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            raise ConfigError(f"line {lineno}: empty route segment")
        pieces = [piece.strip() for piece in part.split(",")]
        if len(pieces) != 4:
            raise ConfigError(
                f"line {lineno}: a route segment is "
                "obstacle,distance,terrain,curvature")
        obstacle = _parse_int(pieces[0], lineno, "route obstacle")
        distance = _parse_int(pieces[1], lineno, "route distance")
        if pieces[2] not in _TERRAINS:
            raise ConfigError(f"line {lineno}: unknown terrain {pieces[2]!r} "
                              f"(use one of {', '.join(_TERRAINS)})")
        curvature = _parse_int(pieces[3], lineno, "route curvature")
        try:
            points.append(RoutePoint(obstacle=obstacle, distance=distance,
                                     terrain=_TERRAINS[pieces[2]],
                                     curvature=curvature))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return tuple(points)


def load_config(path) -> ScenarioConfig:
    entries: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, value = key.strip(), value.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                                  f"(first set on line {entries[key][1]})")
            entries[key] = (value, lineno)

    def taken(key: str):
        return entries.pop(key, (None, 0))

    scenario_name, lineno = taken("scenario")
    if scenario_name is None:
        scenario_name = "ideal"
    elif scenario_name not in SCENARIOS:
        raise ConfigError(f"line {lineno}: unknown scenario "
                          f"{scenario_name!r} (use one of "
                          f"{', '.join(sorted(SCENARIOS))})")
    config = SCENARIOS[scenario_name]()
    params = config.params
    profile = params.profile

    value, lineno = taken("bound")
    if value is not None:
        bound = _parse_int(value, lineno, "bound")
        if bound < 1:
            raise ConfigError(f"line {lineno}: bound must be at least 1")
        config = replace(config, bound=bound)

    value, lineno = taken("controlMode")
    if value is not None:
        if value not in _MODES:
            raise ConfigError(f"line {lineno}: controlMode must be one of "
                              f"{', '.join(_MODES)}")
        config = replace(config, control_mode=_MODES[value])

    value, lineno = taken("fatigueSource")
    if value is not None:
        if value not in (CALCULATED, PROBED):
            raise ConfigError(f"line {lineno}: fatigueSource must be "
                              f"{CALCULATED} or {PROBED}")
        config = replace(config, fatigue_source=value)

    value, lineno = taken("separation")
    if value is not None:
        if value not in ("adaptive", "fixed"):
            raise ConfigError(
                f"line {lineno}: separation must be adaptive or fixed")
        config = replace(config, adaptive_target=value == "adaptive")

    value, lineno = taken("operators")
    if value is not None:
        try:
            ops = parse_operators(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        config = replace(config, operators=ops)

    # collect numeric overrides and apply them in one replace at the end,
    # otherwise cross-field validation would depend on key order
    param_updates: dict = {}
    profile_updates: dict = {}

    value, lineno = taken("inputMode")
    if value is not None:
        if value not in _INPUT_MODES:
            raise ConfigError(f"line {lineno}: unknown input mode {value!r} "
                              f"(use one of {', '.join(_INPUT_MODES)})")
        param_updates["input_mode"] = _INPUT_MODES[value]

    for key, field_name in _PARAM_INT_KEYS.items():
        value, lineno = taken(key)
        if value is not None:
            param_updates[field_name] = _parse_int(value, lineno, key)

    for key, field_name in _PROFILE_INT_KEYS.items():
        value, lineno = taken(key)
        if value is not None:
            profile_updates[field_name] = _parse_int(value, lineno, key)

    route_value, route_line = taken("route")
    length_value, length_line = taken("routeLength")
    length = None
    if length_value is not None:
        length = _parse_int(length_value, length_line, "routeLength")
        if length < 1:
            raise ConfigError(f"line {length_line}: routeLength must be "
                              "at least 1")
    if route_value is not None:
        if route_value == "nondet":
            spec = config.route_spec or RouteSpec()
            if length is not None:
                spec = replace(spec, length=length)
            config = replace(config, route=None, route_spec=spec)
        else:
            if length is not None:
                raise ConfigError(f"line {length_line}: routeLength only "
                                  "applies to route = nondet")
            config = replace(config, route=_parse_route(route_value, route_line),
                             route_spec=None)
    elif length is not None:
        if config.route_spec is None:
            raise ConfigError(f"line {length_line}: routeLength only "
                              "applies to route = nondet")
        config = replace(config, route_spec=replace(config.route_spec,
                                                    length=length))

    for key, (_, lineno) in entries.items():
        raise ConfigError(f"line {lineno}: key {key!r} is known but not handled")

    try:
        if profile_updates:
            profile = replace(profile, **profile_updates)
        params = replace(params, profile=profile, **param_updates)
        return replace(config, params=params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
