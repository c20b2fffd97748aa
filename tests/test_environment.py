"""Environment unit tests: routes and terrain difficulty."""

import pytest
from hypothesis import given, strategies as st

from hilcheck.engine import ModelError
from hilcheck.environment import (Route, RoutePoint, RouteSpec, Terrain,
                                  advance_route, nondet_route_choices,
                                  point_difficulty)


def _route(*distances, cursor=0, covered=0):
    points = tuple(RoutePoint(obstacle=0, distance=d,
                              terrain=Terrain.onRoad, curvature=0)
                   for d in distances)
    return Route(points, cursor=cursor, covered=covered)


def test_route_point_validation():
    with pytest.raises(ValueError, match="distance"):
        RoutePoint(obstacle=0, distance=0, terrain=Terrain.onRoad, curvature=0)
    with pytest.raises(ValueError, match="obstacle"):
        RoutePoint(obstacle=4, distance=1, terrain=Terrain.onRoad, curvature=0)
    with pytest.raises(ValueError, match="curvature"):
        RoutePoint(obstacle=0, distance=1, terrain=Terrain.onRoad, curvature=-1)


def test_route_validation():
    with pytest.raises(ValueError, match="at least one segment"):
        Route(())
    with pytest.raises(ValueError, match="exceeds"):
        _route(2, 3, covered=2)
    with pytest.raises(ValueError, match="cursor"):
        _route(2, cursor=5)


def test_advance_carries_residual_distance_across_segments():
    moved = advance_route(_route(3, 4), 5)
    assert moved.cursor == 1
    assert moved.covered == 2
    assert not moved.complete
    assert moved.current.distance == 4


def test_advance_by_zero_is_identity():
    route = _route(3, 4)
    assert advance_route(route, 0) == route


def test_advance_to_exact_boundary_moves_to_next_segment():
    moved = advance_route(_route(2, 2), 2)
    assert moved.cursor == 1
    assert moved.covered == 0


def test_advance_past_the_end_completes():
    moved = advance_route(_route(2, 2), 9)
    assert moved.complete
    assert moved.cursor == 2
    assert moved.covered == 0
    assert moved.current is None
    # advancing a finished route is a no-op
    assert advance_route(moved, 3) == moved


def test_advance_rejects_negative_distance():
    with pytest.raises(ValueError):
        advance_route(_route(2), -1)


@given(distances=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       first=st.integers(0, 12), second=st.integers(0, 12))
def test_advancing_twice_equals_advancing_once_by_the_sum(distances,
                                                          first, second):
    route = _route(*distances)
    split = advance_route(advance_route(route, first), second)
    joined = advance_route(route, first + second)
    assert split == joined


@given(distances=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       moved=st.integers(0, 30))
def test_advance_consumes_exactly_the_distance_moved(distances, moved):
    route = _route(*distances)
    after = advance_route(route, moved)
    consumed = sum(d for d in distances[:after.cursor]) + after.covered
    assert consumed == min(moved, sum(distances)) \
        or (after.complete and consumed == sum(distances))


def test_point_difficulty_triggers():
    assert point_difficulty(Terrain.offRoad, 0, 0) == 1
    assert point_difficulty(Terrain.onRoad, 0, 0) == 0
    assert point_difficulty(Terrain.onRoad, 2, 0) == 1
    assert point_difficulty(Terrain.onRoad, 0, 2) == 1
    assert point_difficulty(Terrain.onRoad, 1, 1) == 0
    # all triggers at once still cost a single severity step
    assert point_difficulty(Terrain.offRoad, 3, 3) == 1


def test_point_difficulty_thresholds_are_configurable():
    assert point_difficulty(Terrain.onRoad, 2, 0, hard_obstacle=3) == 0
    assert point_difficulty(Terrain.onRoad, 0, 2, hard_curvature=3) == 0


def test_point_difficulty_validates_ranges():
    with pytest.raises(ValueError):
        point_difficulty(Terrain.onRoad, 5, 0)


def test_route_spec_counts_combinations():
    assert RouteSpec().combination_count() == 6 ** 5
    tiny = RouteSpec(length=1, distance_domain=(1,))
    assert tiny.combination_count() == 2


def test_route_spec_validation():
    with pytest.raises(ValueError):
        RouteSpec(length=0)
    with pytest.raises(ValueError):
        RouteSpec(distance_domain=())
    with pytest.raises(ValueError):
        RouteSpec(terrain_domain=(Terrain.onRoad, Terrain.onRoad))


def test_nondet_route_choice_points_cover_every_field_in_order():
    points = nondet_route_choices(RouteSpec(length=2))
    assert [cp.point_id for cp in points] == [
        "route:seg0_obstacle", "route:seg0_distance",
        "route:seg0_terrain", "route:seg0_curvature",
        "route:seg1_obstacle", "route:seg1_distance",
        "route:seg1_terrain", "route:seg1_curvature"]
    assert all(cp.site is None for cp in points)
    assert points[1].domain == (1, 2, 3)
    assert points[2].domain == (Terrain.offRoad, Terrain.onRoad)


def test_nondet_route_rejects_explosive_specs():
    huge = RouteSpec(length=5, obstacle_domain=(0, 1, 2, 3),
                     curvature_domain=(0, 1, 2, 3))
    with pytest.raises(ModelError, match="ceiling"):
        nondet_route_choices(huge)
    assert nondet_route_choices(huge, ceiling=10**10)
