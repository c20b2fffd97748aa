"""Flat key=value configuration files for scenario runs.

A config names a base scenario and overrides individual knobs.  Lines are
`key = value`; blank lines and lines starting with `#` are skipped.  Unknown
keys and unparsable values are reported with their line number, a bad value
as `line N: key: reason`.  An empty file is a valid config and means the
default scenario untouched.
"""

from __future__ import annotations

from dataclasses import replace

from .acc import ControlMode
from .behaviour import InputMode, IntegratorOp
from .environment import RoutePoint, Terrain
from .scenarios import (CALCULATED, DEFAULT_ROUTE_LENGTH, PROBED, SCENARIOS,
                        ScenarioConfig)
from .trace_io import canonical_int


class ConfigError(Exception):
    pass


def _integer(raw: str) -> int:
    # canonical decimals only, as in trace files and the CLI's flags
    value = canonical_int(raw)
    if value is None:
        raise ConfigError(f"needs an integer, got {raw!r}")
    return value


def at_least_one(raw: str) -> int:
    """A count, in config files and count flags: a canonical decimal >= 1."""
    value = _integer(raw)
    if value < 1:
        raise ConfigError(f"needs at least 1, got {raw}")
    return value


def _one_of(choices: dict, what: str = "value"):
    def parse(raw: str):
        if raw not in choices:
            raise ConfigError(f"unknown {what} {raw!r} "
                              f"(use one of {', '.join(choices)})")
        return choices[raw]
    return parse


_OPERATOR = _one_of({op.name: op for op in IntegratorOp}, "operator")

_TERRAIN = _one_of({t.name: t for t in Terrain}, "terrain")


def parse_operators(raw: str) -> tuple[IntegratorOp, ...]:
    """Comma-separated fatigue integrator names, as the `operators` key and
    the CLI's `--operators` take them."""
    ops = tuple(_OPERATOR(name.strip()) for name in raw.split(",")
                if name.strip())
    if not ops:
        raise ConfigError("operators must name at least one operator")
    if len(set(ops)) != len(ops):
        raise ConfigError("operators lists an operator twice")
    return ops


def _parse_route(raw: str) -> tuple[RoutePoint, ...]:
    points = []
    for part in raw.split(";"):
        pieces = [piece.strip() for piece in part.split(",")]
        if pieces == [""]:
            raise ConfigError("empty route segment")
        if len(pieces) != 4:
            raise ConfigError("a route segment is "
                              "obstacle,distance,terrain,curvature")
        obstacle, distance, terrain, curvature = pieces
        points.append(RoutePoint(_integer(obstacle), _integer(distance),
                                 _TERRAIN(terrain), _integer(curvature)))
    return tuple(points)


# key -> (the `ScenarioConfig` field it sets, the parser of its value);
# values are parsed in this order, so with two bad values the earlier
# entry's is reported.
# `scenario`, `route` and `routeLength` have their own branch.
_KEYS = {
    "bound": ("bound", at_least_one),
    "controlMode": ("control_mode",
                    _one_of({"engaged": ControlMode.Engaged,
                             "manual": ControlMode.Manual, "nondet": None})),
    "fatigueSource": ("fatigue_source",
                      _one_of({CALCULATED: CALCULATED, PROBED: PROBED})),
    "separation": ("adaptive_target",
                   _one_of({"adaptive": True, "fixed": False})),
    "operators": ("operators", parse_operators),
    "inputMode": ("input_mode",
                  _one_of({m.name: m for m in InputMode}, "input mode")),
    "maxSpeed": ("max_speed", _integer),
    "maxGap": ("max_gap", _integer),
    "leadSpeed": ("lead_speed", _integer),
    "baseSeparation": ("base_separation", _integer),
    "accMargin": ("acc_margin", _integer),
    "tiredAfter": ("tired_after", _integer),
    "exhaustedAfter": ("exhausted_after", _integer),
    "timeCap": ("time_cap", _integer),
    "maxHP": ("max_hp", _integer),
    "fast": ("fast", _integer),
    "okay": ("okay", _integer),
    "slow": ("slow", _integer),
    "nFactor": ("n_factor", _integer),
    "tFactor": ("t_factor", _integer),
    "eFactor": ("e_factor", _integer),
}

_OWN_BRANCH = {"scenario", "route", "routeLength"}


def _parse(entries: dict[str, tuple[str, int]], key: str, parse):
    value, lineno = entries[key]
    try:
        return parse(value)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"line {lineno}: {key}: {exc}") from None


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
            if key not in _KEYS and key not in _OWN_BRANCH:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                                  f"(first set on line {entries[key][1]})")
            entries[key] = (value, lineno)

    config = SCENARIOS["ideal"]
    if "scenario" in entries:
        config = _parse(entries, "scenario", _one_of(SCENARIOS, "scenario"))

    # collect every override and apply them in one replace at the end,
    # otherwise cross-field validation would depend on key order
    updates = {field_name: _parse(entries, key, parse)
               for key, (field_name, parse) in _KEYS.items() if key in entries}

    route = entries.get("route", (None, 0))[0]
    length = config.route_length if route is None else None
    if route == "nondet":
        length = config.route_length or DEFAULT_ROUTE_LENGTH
    if "routeLength" in entries:
        parsed = _parse(entries, "routeLength", at_least_one)
        if length is None:
            raise ConfigError(f"line {entries['routeLength'][1]}: "
                              "routeLength: only applies to route = nondet")
        length = parsed
    if length is not None:
        updates.update(route=None, route_length=length)
    elif route is not None:
        updates.update(route=_parse(entries, "route", _parse_route),
                       route_length=None)

    try:
        return replace(config, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
