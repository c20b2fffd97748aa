"""Environment: route geometry and terrain.

A route is a finite list of segments, each with a length in distance units
and static attributes (terrain kind, obstacle density, curvature).  The
vehicle consumes distance along the route as it moves.  A position on the
route is two integers, `(cursor, covered)`: the index of the current segment
and the distance already covered within it; `cursor == len(route)` once the
journey is complete.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .engine import ChoicePoint, ModelError

# route fields in declaration order, shared by parsers and model builders
ROUTE_FIELDS = ("obstacle", "distance", "terrain", "curvature")

# obstacle density and curvature run 0..MAX; from HARD up a segment is
# demanding
MAX_OBSTACLE = 3
MAX_CURVATURE = 3
HARD_OBSTACLE = 2
HARD_CURVATURE = 2
# a nondeterministic route may offer at most this many combinations
ROUTE_CEILING = 10**8


class Terrain(Enum):
    offRoad = "offRoad"
    onRoad = "onRoad"


@dataclass(frozen=True)
class RoutePoint:
    """One route segment: how far it runs and what driving on it is like."""

    obstacle: int
    distance: int
    terrain: Terrain
    curvature: int

    def __post_init__(self) -> None:
        if not 0 <= self.obstacle <= MAX_OBSTACLE:
            raise ValueError(f"obstacle density must be in 0..{MAX_OBSTACLE}")
        if self.distance < 1:
            raise ValueError("segment distance must be at least 1")
        if not 0 <= self.curvature <= MAX_CURVATURE:
            raise ValueError(f"curvature must be in 0..{MAX_CURVATURE}")


def advance_route(distances: Sequence[int], cursor: int, covered: int,
                  moved: int) -> tuple[int, int]:
    """Move `moved` units from position (cursor, covered) along a route of
    segment lengths `distances`, rolling residual distance over segment
    boundaries.  Movement past the final segment is discarded: the journey
    is simply complete, at position (len(distances), 0)."""
    if moved < 0:
        raise ValueError("cannot advance by a negative distance")
    if not 0 <= cursor <= len(distances):
        raise ValueError("cursor out of range")
    # within a segment, covered stays short of its length; at the end, 0
    limit = distances[cursor] if cursor < len(distances) else 1
    if not 0 <= covered < limit:
        raise ValueError(f"covered distance must be in 0..{limit - 1}")
    covered += moved
    while cursor < len(distances) and covered >= distances[cursor]:
        covered -= distances[cursor]
        cursor += 1
    if cursor == len(distances):
        covered = 0
    return cursor, covered


def point_difficulty(terrain: Terrain, obstacle: int, curvature: int) -> int:
    """Terrain severity contributed by one segment, capped at one level.

    Off-road ground, an obstacle density of at least `HARD_OBSTACLE`, or a
    curvature of at least `HARD_CURVATURE` each flag the segment as
    demanding; any of them costs the driver one severity step.  The cap
    keeps a single nasty segment from outweighing hours of driving.
    """
    if not 0 <= obstacle <= MAX_OBSTACLE:
        raise ValueError(f"obstacle density must be in 0..{MAX_OBSTACLE}")
    if not 0 <= curvature <= MAX_CURVATURE:
        raise ValueError(f"curvature must be in 0..{MAX_CURVATURE}")
    demanding = (terrain is Terrain.offRoad) \
        or obstacle >= HARD_OBSTACLE \
        or curvature >= HARD_CURVATURE
    return 1 if demanding else 0


@dataclass(frozen=True)
class RouteSpec:
    """Shape of a nondeterministically chosen route: a fixed number of
    segments with per-field candidate values, identical for every segment."""

    length: int = 5
    distance_domain: tuple[int, ...] = (1, 2, 3)
    terrain_domain: tuple[Terrain, ...] = (Terrain.offRoad, Terrain.onRoad)
    obstacle_domain: tuple[int, ...] = (0,)
    curvature_domain: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("route length must be at least 1")
        for dom, label in ((self.distance_domain, "distance"),
                           (self.terrain_domain, "terrain"),
                           (self.obstacle_domain, "obstacle"),
                           (self.curvature_domain, "curvature")):
            if not dom:
                raise ValueError(f"{label} domain must not be empty")
            if len(set(dom)) != len(dom):
                raise ValueError(f"{label} domain has duplicates")

    def field_domain(self, field_name: str) -> tuple:
        return getattr(self, f"{field_name}_domain")

    def combination_count(self) -> int:
        per_segment = (len(self.distance_domain) * len(self.terrain_domain)
                       * len(self.obstacle_domain) * len(self.curvature_domain))
        return per_segment ** self.length


def nondet_route_choices(spec: RouteSpec) -> tuple[ChoicePoint, ...]:
    """Initialisation choice points for every field of every segment of a
    nondeterministic route, in segment-major, declared-field order.

    Single-value domains still get a point so the choice log names the full
    route; they do not multiply the search.  A combination count beyond the
    `ROUTE_CEILING` is rejected before any exploration starts.
    """
    if spec.combination_count() > ROUTE_CEILING:
        raise ModelError(
            f"route space has {spec.combination_count()} combinations, "
            f"over the ceiling of {ROUTE_CEILING}")
    return tuple(ChoicePoint(f"route:seg{i}_{name}",
                             tuple(spec.field_domain(name)), site=None)
                 for i in range(spec.length) for name in ROUTE_FIELDS)
