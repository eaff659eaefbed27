"""Gauge, curve, and stage bookkeeping.

The frozen gauge constants below are confirmed through the bisection hull
oracle before the closed form is held to them; the oracle shares no
arithmetic with the closed form, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hull_oracle import gauge_oracle

from comolift.errors import InvalidInputError
from comolift.geometry import (
    GAUGE_CAP,
    MAX_STAGE,
    Point2,
    Segment,
    curve_distance,
    curve_segments,
    gauge,
    gauge_batch,
    on_curve,
    scale_index,
    scale_index_batch,
    segment_distance,
)

# (point, expected gauge): ball vertices and side midpoints sit at gauge 1,
# doubling scales the gauge, and (0,1) hits the skew side of the unit ball.
FROZEN_GAUGES = [
    ((0.0, 0.0), 0.0),
    ((4.0, 4.0), 1.0),
    ((4.0, 2.0), 1.0),
    ((-4.0, -4.0), 1.0),
    ((-4.0, -2.0), 1.0),
    ((0.0, 1.0), 1.0),
    ((0.0, -1.0), 1.0),
    ((8.0, 8.0), 2.0),
    ((8.0, 4.0), 2.0),
    ((2.0, 1.5), 0.5),
    ((1.0, 0.75), 0.25),
]

finite_coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@pytest.mark.parametrize("xy,expected", FROZEN_GAUGES)
def test_oracle_confirms_frozen_gauges(xy, expected):
    got = gauge_oracle(Point2(*xy), 1e-10)
    assert abs(got - expected) <= 1e-9 * max(1.0, expected), (xy, got)


@pytest.mark.parametrize("xy,expected", FROZEN_GAUGES)
def test_closed_form_matches_frozen_gauges(xy, expected):
    assert gauge(Point2(*xy)) == expected


def test_gauge_zero_only_at_origin():
    assert gauge(Point2(0.0, 0.0)) == 0.0
    assert gauge(Point2(0.0, 5e-324)) > 0.0
    assert gauge(Point2(-5e-324, 0.0)) > 0.0


@given(x=finite_coord, y=finite_coord)
def test_gauge_symmetry_exact(x, y):
    assert gauge(Point2(-x, -y)) == gauge(Point2(x, y))


@given(x=finite_coord, y=finite_coord, c=st.floats(min_value=1e-3, max_value=1e3))
def test_gauge_positive_homogeneity(x, y, c):
    g = gauge(Point2(x, y))
    gc = gauge(Point2(c * x, c * y))
    assert abs(gc - c * g) <= 1e-12 * max(1.0, c * g), (x, y, c)


@given(x1=finite_coord, y1=finite_coord, x2=finite_coord, y2=finite_coord)
def test_gauge_subadditive(x1, y1, x2, y2):
    lhs = gauge(Point2(x1 + x2, y1 + y2))
    rhs = gauge(Point2(x1, y1)) + gauge(Point2(x2, y2))
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@given(x=finite_coord, y=finite_coord)
@settings(max_examples=300)
def test_gauge_matches_oracle(x, y):
    p = Point2(x, y)
    g = gauge(p)
    o = gauge_oracle(p, 1e-10)
    assert abs(g - o) <= 1e-9 * max(1.0, g), (x, y, g, o)


@given(
    x=st.lists(finite_coord, min_size=1, max_size=50),
    y=st.lists(finite_coord, min_size=1, max_size=50),
)
def test_gauge_batch_bitwise_equals_scalar(x, y):
    n = min(len(x), len(y))
    xa, ya = np.array(x[:n]), np.array(y[:n])
    batch = gauge_batch(xa, ya)
    for i in range(n):
        assert batch[i] == gauge(Point2(xa[i], ya[i]))


@pytest.mark.parametrize("x, y, message", [
    ([0.0, 1.0], [0.0], "same shape"),
    ([0.0, math.nan], [0.0, 0.0], "must be finite"),
    ([0.0], [-math.inf], "must be finite"),
], ids=["shape", "nan_x", "inf_y"])
def test_gauge_batch_refuses_mismatched_or_non_finite_coordinates(x, y, message):
    with pytest.raises(InvalidInputError, match=message):
        gauge_batch(np.array(x), np.array(y))


def test_gauge_of_a_skew_past_the_float_range_is_infinite():
    # y - 3x/4 overflows for this finite point: its gauge is inf, with no RuntimeWarning.
    assert gauge_batch(np.array([1.7e308]), np.array([-1.7e308])).tolist() == [math.inf]


def test_gauge_oracle_rejects_bad_tol():
    with pytest.raises(InvalidInputError):
        gauge_oracle(Point2(1.0, 1.0), 0.0)
    with pytest.raises(InvalidInputError):
        gauge_oracle(Point2(1.0, 1.0), -1e-9)


def test_point_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            Point2(bad, 0.0)
        with pytest.raises(InvalidInputError):
            Point2(0.0, bad)


# scale_index: smallest n >= 1 with r <= 2^(n-1).
FROZEN_STAGES = [
    (0.0, 1),
    (0.5, 1),
    (1.0, 1),
    (1.5, 2),
    (2.0, 2),
    (2.0000000001, 3),
    (4.0, 3),
    (1024.0, 11),
    (GAUGE_CAP, MAX_STAGE),
]


@pytest.mark.parametrize("r,n", FROZEN_STAGES)
def test_scale_index_frozen(r, n):
    assert scale_index(r) == n


@given(r=st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
def test_scale_index_characterization(r):
    n = scale_index(r)
    assert 1 <= n <= MAX_STAGE
    assert r <= math.ldexp(1.0, n - 1)
    if n > 1:
        assert r > math.ldexp(1.0, n - 2)


def test_scale_index_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        scale_index(-1e-300)
    with pytest.raises(InvalidInputError):
        scale_index(math.ldexp(1.0, MAX_STAGE - 1) * 1.0000000001)
    with pytest.raises(InvalidInputError):
        scale_index(math.nan)


@given(r=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=100))
def test_scale_index_batch_equals_scalar(r):
    arr = np.array(r)
    batch = scale_index_batch(arr)
    for i, v in enumerate(r):
        assert batch[i] == scale_index(v)


# Curve structure.  Stage count 4 + 4(N-1); the walk is connected and both
# coordinates never decrease.


@pytest.mark.parametrize("stages,count", [(1, 4), (2, 8), (3, 12), (10, 40)])
def test_curve_segment_count(stages, count):
    assert len(curve_segments(stages)) == count


def test_curve_stage_one_frozen():
    segs = curve_segments(1)
    walk = [(s.a.as_tuple(), s.b.as_tuple(), s.kind) for s in segs]
    assert walk == [
        ((-4.0, -4.0), (-4.0, -2.0), "vertical"),
        ((-4.0, -2.0), (0.0, 0.0), "slope-half"),
        ((0.0, 0.0), (4.0, 2.0), "slope-half"),
        ((4.0, 2.0), (4.0, 4.0), "vertical"),
    ]


def test_curve_stage_two_frozen():
    segs = curve_segments(2)
    assert segs[0].a.as_tuple() == (-8.0, -8.0)
    assert segs[0].b.as_tuple() == (-8.0, -4.0)
    assert segs[-1].a.as_tuple() == (8.0, 4.0)
    assert segs[-1].b.as_tuple() == (8.0, 8.0)
    assert [s.stage for s in segs] == [2, 2, 1, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("stages", [1, 2, 3, 7, 20])
def test_curve_walk_connected_and_monotone(stages):
    segs = curve_segments(stages)
    for prev, nxt in zip(segs, segs[1:]):
        assert prev.b == nxt.a
    for seg in segs:
        assert seg.b.x >= seg.a.x
        assert seg.b.y >= seg.a.y


def test_curve_endpoints_reach_the_outer_corners():
    segs = curve_segments(5)
    side = 2.0 ** 6
    assert segs[0].a.as_tuple() == (-side, -side)
    assert segs[-1].b.as_tuple() == (side, side)


def test_curve_vertical_sides_have_stage_gauge():
    # Vertical pieces of stage n live on the boundary of the n-th ball.
    for seg in curve_segments(6):
        if seg.kind == "vertical":
            h = math.ldexp(1.0, seg.stage - 1)
            assert gauge(seg.a) == h
            assert gauge(seg.b) == h


def test_curve_segments_rejects_bad_stage():
    for bad in (0, -1, MAX_STAGE + 1):
        with pytest.raises(InvalidInputError):
            curve_segments(bad)
    with pytest.raises(InvalidInputError):
        curve_segments(2.0)  # type: ignore[arg-type]


@given(
    stage=st.integers(min_value=1, max_value=18),
    seg_pick=st.integers(min_value=0, max_value=10 ** 6),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_points_sampled_on_curve_pass_on_curve(stage, seg_pick, t):
    segs = curve_segments(stage)
    seg = segs[seg_pick % len(segs)]
    x = seg.a.x + t * (seg.b.x - seg.a.x)
    y = seg.a.y + t * (seg.b.y - seg.a.y)
    assert on_curve(Point2(x, y), 1e-9)


def test_on_curve_frozen_distances():
    # (0, 1) sits 2/3 away from the nearest slope-half piece.
    assert curve_distance(Point2(0.0, 1.0), 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert not on_curve(Point2(0.0, 1.0), 0.5)
    assert on_curve(Point2(0.0, 1.0), 0.7)
    # Curve vertices are at distance exactly zero.
    for seg in curve_segments(3):
        assert curve_distance(seg.a, 4) == 0.0
        assert curve_distance(seg.b, 4) == 0.0


def test_on_curve_rejects_one_ulp_beyond_tol():
    p = Point2(0.0, 1e-6)  # distance to the curve is well above 1e-9
    assert not on_curve(p, 1e-9)
    assert on_curve(p, 1e-6)


def test_on_curve_validates_inputs():
    with pytest.raises(InvalidInputError):
        on_curve(Point2(1.0, 1.0), -1e-9)
    with pytest.raises(InvalidInputError):
        on_curve(Point2(math.ldexp(1.0, 1022), 0.0), 1e-9)


def test_segment_validates_geometry():
    with pytest.raises(InvalidInputError):
        Segment(Point2(0, 0), Point2(1, 1), "vertical", 1)
    with pytest.raises(InvalidInputError):
        Segment(Point2(0, 0), Point2(-1, 0), "horizontal", 1)
    with pytest.raises(InvalidInputError):
        Segment(Point2(0, 0), Point2(1, 0), "horizontal", 0)
    with pytest.raises(InvalidInputError):
        Segment(Point2(0, 0), Point2(1, 0), "diagonal", 1)  # type: ignore[arg-type]


def test_segment_distance_on_every_segment_kind():
    # Vertical and horizontal pieces have a zero step in one coordinate.
    for seg in curve_segments(3):
        assert segment_distance(seg.a, seg) == 0.0
        assert segment_distance(seg.b, seg) == 0.0
    vertical, _, slope_half, _ = curve_segments(1)
    assert segment_distance(Point2(-4.0, 0.0), vertical) == 2.0
    assert segment_distance(Point2(0.0, 1.0), slope_half) == pytest.approx(2.0 / 3.0, abs=1e-15)


# Full-scan oracle for the crossing-segment kernel: the minimum of the public
# segment_distance over every segment of the curve.  Segments are cached per
# stage; the scan itself runs for every point.


@lru_cache(maxsize=None)
def _segments(max_stage: int) -> tuple:
    return tuple(curve_segments(max_stage))


def _full_scan(p: Point2, max_stage: int) -> float:
    return min(segment_distance(p, seg) for seg in _segments(max_stage))


_any_coord = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False)


@st.composite
def _near_curve(draw, max_stage: int) -> Point2:
    segs = _segments(max_stage)
    seg = segs[draw(st.integers(0, len(segs) - 1))]
    t = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    offset = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    x = seg.a.x + t * (seg.b.x - seg.a.x)
    y = seg.a.y + t * (seg.b.y - seg.a.y)
    sx, sy = draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([-1, 0, 1]))
    return Point2(x + sx * offset * max(1.0, abs(x)), y + sy * offset * max(1.0, abs(y)))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_curve_distance_equals_full_scan_bitwise(data):
    k = data.draw(st.one_of(st.sampled_from([1, 2, 3, MAX_STAGE]), st.integers(1, MAX_STAGE)))
    p = data.draw(st.one_of(st.builds(Point2, _any_coord, _any_coord), _near_curve(k)))
    assert curve_distance(p, k) == _full_scan(p, k), (p, k)


def test_curve_distance_at_the_float_range_edge():
    # Differences from the outer hooks overflow; the scan must stay silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (1.7e308, -1.7e308):
            for y in (1.7e308, -1.7e308):
                for k in (1, 4, MAX_STAGE):
                    p = Point2(x, y)
                    assert curve_distance(p, k) == _full_scan(p, k), (p, k)
