"""Environment unit tests: route positions, terrain difficulty and the
candidates a drawn route is picked from."""

import math

import pytest
from hypothesis import given, strategies as st

from hilcheck.engine import Group
from hilcheck.environment import (MAX_ROUTE_LENGTH, RoutePoint, Terrain,
                                  advance_route, point_difficulty)
from hilcheck.scenarios import DEFAULT_ROUTE, ScenarioConfig, build_model


def test_route_point_validation():
    with pytest.raises(ValueError, match="distance"):
        RoutePoint(obstacle=0, distance=0, terrain=Terrain.onRoad, curvature=0)
    with pytest.raises(ValueError, match="obstacle"):
        RoutePoint(obstacle=4, distance=1, terrain=Terrain.onRoad, curvature=0)
    with pytest.raises(ValueError, match="curvature"):
        RoutePoint(obstacle=0, distance=1, terrain=Terrain.onRoad, curvature=-1)


def test_route_validation():
    with pytest.raises(ValueError, match="cursor"):
        advance_route((2,), 5, 0, 0)
    with pytest.raises(ValueError, match="cursor"):
        advance_route((2,), -1, 0, 0)
    # covered stays short of the current segment's length, and 0 at the end
    with pytest.raises(ValueError, match=r"covered distance must be in 0\.\.1"):
        advance_route((2, 3), 0, 2, 0)
    with pytest.raises(ValueError, match=r"covered distance must be in 0\.\.2"):
        advance_route((2, 3), 1, -1, 0)
    with pytest.raises(ValueError, match=r"covered distance must be in 0\.\.0"):
        advance_route((2, 3), 2, 1, 0)


def test_advance_carries_residual_distance_across_segments():
    assert advance_route((3, 4), 0, 0, 5) == (1, 2)


def test_advance_by_zero_is_identity():
    assert advance_route((3, 4), 0, 0, 0) == (0, 0)
    assert advance_route((3, 4), 1, 3, 0) == (1, 3)


def test_advance_to_exact_boundary_moves_to_next_segment():
    assert advance_route((2, 2), 0, 0, 2) == (1, 0)


def test_advance_past_the_end_completes():
    assert advance_route((2, 2), 0, 0, 9) == (2, 0)
    # advancing a finished route is a no-op
    assert advance_route((2, 2), 2, 0, 3) == (2, 0)


def test_advance_rejects_negative_distance():
    with pytest.raises(ValueError, match="negative"):
        advance_route((2,), 0, 0, -1)


@given(distances=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       first=st.integers(0, 12), second=st.integers(0, 12))
def test_advancing_twice_equals_advancing_once_by_the_sum(distances,
                                                          first, second):
    split = advance_route(distances, *advance_route(distances, 0, 0, first),
                          second)
    joined = advance_route(distances, 0, 0, first + second)
    assert split == joined


@given(distances=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       moved=st.integers(0, 30))
def test_advance_consumes_exactly_the_distance_moved(distances, moved):
    cursor, covered = advance_route(distances, 0, 0, moved)
    consumed = sum(distances[:cursor]) + covered
    assert consumed == min(moved, sum(distances))
    assert (cursor == len(distances)) == (moved >= sum(distances))


def test_point_difficulty_triggers():
    assert point_difficulty(Terrain.offRoad, 0, 0) == 1
    assert point_difficulty(Terrain.onRoad, 0, 0) == 0
    assert point_difficulty(Terrain.onRoad, 2, 0) == 1
    assert point_difficulty(Terrain.onRoad, 0, 2) == 1
    assert point_difficulty(Terrain.onRoad, 1, 1) == 0
    # all triggers at once still cost a single severity step
    assert point_difficulty(Terrain.offRoad, 3, 3) == 1


def test_point_difficulty_validates_ranges():
    with pytest.raises(ValueError):
        point_difficulty(Terrain.onRoad, 5, 0)
    with pytest.raises(ValueError, match=r"curvature must be in 0\.\.3"):
        point_difficulty(Terrain.onRoad, 0, 4)


def drawn(route_length):
    return build_model(ScenarioConfig(name="drawn", route_length=route_length))


def test_drawn_route_counts_combinations():
    def combinations(model):
        return math.prod(len(cp.domain) for _, cp in model.init_choices
                         if cp.point_id.startswith("route:"))
    assert combinations(drawn(5)) == 6 ** 5
    assert combinations(drawn(1)) == 6
    assert combinations(drawn(MAX_ROUTE_LENGTH)) == 6 ** 10 < 10 ** 8


def test_route_length_validation():
    with pytest.raises(ValueError, match=r"1\.\.10 segments"):
        ScenarioConfig(name="x", route_length=0)
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioConfig(name="x", route=DEFAULT_ROUTE, route_length=1)


def test_nondet_route_choice_points_cover_every_field_in_order():
    points = [cp for _, cp in drawn(2).init_choices]
    assert [cp.point_id for cp in points] == [
        "route:seg0_obstacle", "route:seg0_distance",
        "route:seg0_terrain", "route:seg0_curvature",
        "route:seg1_obstacle", "route:seg1_distance",
        "route:seg1_terrain", "route:seg1_curvature", "integrator"]
    assert points[1].domain == (1, 2, 3)
    assert points[2].domain == (Terrain.offRoad, Terrain.onRoad)
    # each route choice sets the variable it is named after
    model = drawn(1)
    expected = [
        (Group.ENV_STATE, "seg0_obstacle"), (Group.ENV_STATE, "seg0_distance"),
        (Group.ENV_STATE, "seg0_terrain"), (Group.ENV_STATE, "seg0_curvature"),
        (Group.BEH_STATE, "combine_op")]
    assert [cp.site for _, cp in model.init_choices] == expected
    assert [(model.variables[pos].group, model.variables[pos].name)
            for pos, _ in model.init_choices] == expected


def test_nondet_route_rejects_explosive_specs():
    assert drawn(MAX_ROUTE_LENGTH) is not None
    with pytest.raises(ValueError, match=r"1\.\.10 segments"):
        ScenarioConfig(name="x", route_length=MAX_ROUTE_LENGTH + 1)
