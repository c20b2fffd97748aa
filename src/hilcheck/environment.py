"""Environment: route geometry and terrain.

A route is a finite list of segments, each with a length in distance units
and static attributes (terrain kind, obstacle density, curvature).  The
vehicle consumes distance along the route as it moves.  A position on the
route is two integers, `(cursor, covered)`: the index of the current segment
and the distance already covered within it; `cursor == len(route)` once the
journey is complete.

A drawn route picks every field of every segment from `ROUTE_CANDIDATES`
at initialisation: 1 to 3 units on or off road, with no obstacles or bends.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

# obstacle density and curvature run 0..MAX; from HARD up a segment is
# demanding
MAX_OBSTACLE = 3
MAX_CURVATURE = 3
HARD_OBSTACLE = 2
HARD_CURVATURE = 2


class Terrain(Enum):
    offRoad = "offRoad"
    onRoad = "onRoad"

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


# a drawn route picks each field of each segment from these candidates, in
# this order; the first candidates are its segments before the draw
ROUTE_CANDIDATES = {"obstacle": (0,), "distance": (1, 2, 3),
                    "terrain": (Terrain.offRoad, Terrain.onRoad),
                    "curvature": (0,)}
# a drawn route has at most this many segments: at 6 candidate segments
# each that is 6**10 (about 6.0e7) routes, under the 1e8 path ceiling, where
# 11 segments would give 6**11 (about 3.6e8).  Other draws multiply the
# routes: under lowered-speed's four integrators, 10 segments make
# 4 * 6**10 (about 2.4e8) paths, past the ceiling
MAX_ROUTE_LENGTH = 10


@dataclass(frozen=True)
class RoutePoint:
    """One route segment: how far it runs and what driving on it is like."""

    obstacle: int
    distance: int
    terrain: Terrain
    curvature: int

    def __post_init__(self) -> None:
        if (any(type(n) is not int
                for n in (self.obstacle, self.distance, self.curvature))
                or type(self.terrain) is not Terrain):
            raise ValueError("a route segment takes ints and a Terrain, "
                             f"got {self}")
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
