"""Environment: route geometry and terrain.

A route is a finite list of segments, each with a length in distance units
and static attributes (terrain kind, obstacle density, curvature).  The
vehicle consumes distance along the route as it moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Route:
    """A route plus a position on it: current segment index and distance
    already covered within that segment."""

    points: tuple[RoutePoint, ...]
    cursor: int = 0
    covered: int = 0

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a route needs at least one segment")
        if not 0 <= self.cursor <= len(self.points):
            raise ValueError("cursor out of range")
        if self.covered < 0:
            raise ValueError("covered distance must be non-negative")
        if self.cursor < len(self.points) \
                and self.covered >= self.points[self.cursor].distance:
            raise ValueError("covered distance exceeds the current segment")

    @property
    def complete(self) -> bool:
        return self.cursor >= len(self.points)

    @property
    def current(self) -> RoutePoint | None:
        if self.complete:
            return None
        return self.points[self.cursor]


def advance_route(route: Route, distance: int) -> Route:
    """Move along the route by `distance` units, rolling residual distance
    over segment boundaries.  Movement past the final segment is discarded:
    the journey is simply complete."""
    if distance < 0:
        raise ValueError("cannot advance by a negative distance")
    cursor, covered = route.cursor, route.covered + distance
    while cursor < len(route.points) and covered >= route.points[cursor].distance:
        covered -= route.points[cursor].distance
        cursor += 1
    if cursor >= len(route.points):
        covered = 0
    return replace(route, cursor=cursor, covered=covered)


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


def nondet_route_choices(spec: RouteSpec,
                         ceiling: int = 10**8) -> tuple[ChoicePoint, ...]:
    """Initialisation choice points for every field of every segment of a
    nondeterministic route, in segment-major, declared-field order.

    Single-value domains still get a point so the choice log names the full
    route; they do not multiply the search.  A combination count beyond the
    ceiling is rejected before any exploration starts.
    """
    if spec.combination_count() > ceiling:
        raise ModelError(
            f"route space has {spec.combination_count()} combinations, "
            f"over the ceiling of {ceiling}")
    points = []
    for i in range(spec.length):
        for field_name in ROUTE_FIELDS:
            points.append(ChoicePoint(f"route:seg{i}_{field_name}",
                                      tuple(spec.field_domain(field_name)),
                                      site=None))
    return tuple(points)
