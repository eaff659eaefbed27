"""Two-point decomposition: frozen cases, exactness, and batch parity.

The frozen expected values are independently checked inside the tests
before being asserted: reconstruction is recomputed from the returned
endpoints, and endpoint membership is confirmed through the curve-distance
routine rather than trusted from the constructor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comolift.decomposition import Decomposition, decompose, decompose_batch
from comolift.errors import InvalidInputError
from comolift.filtration import FiltrationModel
from comolift.geometry import MAX_STAGE, Point2, curve_distance, gauge, on_curve, scale_index
from comolift.lifting import lift, norm_bound_columns

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

# (point, stage, lam, e1, e2)
FROZEN = [
    ((0.0, 0.0), 1, 0.5, (-4.0, -3.0), (4.0, 3.0)),
    ((8.0, 8.0), 2, 0.0, (-8.0, -4.0), (8.0, 8.0)),
    ((4.0, 4.0), 1, 0.0, (-4.0, -2.0), (4.0, 4.0)),
    ((-4.0, -4.0), 1, 1.0, (-4.0, -4.0), (4.0, 2.0)),
    ((0.0, 1.0), 1, 0.5, (-4.0, -2.0), (4.0, 4.0)),
]


@pytest.mark.parametrize("xy,stage,lam,e1,e2", FROZEN)
def test_frozen_decompositions(xy, stage, lam, e1, e2):
    d = decompose(Point2(*xy))
    # Independent confirmation first: the claimed endpoints must rebuild the
    # input and sit on the curve.
    rx = lam * e1[0] + (1.0 - lam) * e2[0]
    ry = lam * e1[1] + (1.0 - lam) * e2[1]
    assert (rx, ry) == xy
    assert curve_distance(Point2(*e1), stage + 1) == 0.0
    assert curve_distance(Point2(*e2), stage + 1) == 0.0
    assert (d.stage, d.lam) == (stage, lam)
    assert d.e1.as_tuple() == e1
    assert d.e2.as_tuple() == e2


def endpoint_norm_bound(p: Point2) -> tuple[float, float, float]:
    """The gauges of both decomposition endpoints, and the ceiling that
    norm_bound_columns sets for a one-atom model with payoff p."""
    d = decompose(p)
    model = FiltrationModel.from_columns(["p"], [1.0], [p.x], [p.y])
    return gauge(d.e1), gauge(d.e2), norm_bound_columns(model, lift(model))[1].item()


@pytest.mark.parametrize(
    "xy,expected",
    [
        ((0.0, 0.0), (1.0, 1.0, 1.0)),
        ((8.0, 8.0), (2.0, 2.0, 4.0)),
        ((4.0, 4.0), (1.0, 1.0, 2.0)),
    ],
)
def test_endpoint_norm_bound_frozen(xy, expected):
    assert endpoint_norm_bound(Point2(*xy)) == expected


@given(x=finite_coord, y=finite_coord)
@settings(max_examples=500)
def test_reconstruction(x, y):
    p = Point2(x, y)
    d = decompose(p)
    rx = d.lam * d.e1.x + (1.0 - d.lam) * d.e2.x
    ry = d.lam * d.e1.y + (1.0 - d.lam) * d.e2.y
    scale = max(1.0, gauge(p))
    assert abs(rx - x) <= 1e-9 * scale
    assert abs(ry - y) <= 1e-9 * scale


@given(x=finite_coord, y=finite_coord)
@settings(max_examples=500)
def test_endpoint_structure_exact(x, y):
    p = Point2(x, y)
    d = decompose(p)
    assert d.stage == scale_index(gauge(p))
    half = math.ldexp(1.0, d.stage - 1)
    big = 4.0 * half
    assert 0.0 <= d.lam <= 1.0
    assert d.e1.x == -big and d.e2.x == big
    # Stated y-intervals of the stage's vertical sides, exactly.
    assert -big <= d.e1.y <= -2.0 * half
    assert 2.0 * half <= d.e2.y <= big
    # Both endpoint gauges equal 2^(stage-1) exactly (Sterbenz).
    assert gauge(d.e1) == half
    assert gauge(d.e2) == half
    # And therefore sit on the curve at distance exactly zero.
    assert curve_distance(d.e1, min(d.stage + 1, MAX_STAGE)) == 0.0
    assert curve_distance(d.e2, min(d.stage + 1, MAX_STAGE)) == 0.0
    assert on_curve(d.e1, 1e-9) and on_curve(d.e2, 1e-9)


@given(x=finite_coord, y=finite_coord)
def test_norm_bound_property(x, y):
    p = Point2(x, y)
    g1, g2, bound = endpoint_norm_bound(p)
    assert g1 <= bound and g2 <= bound
    if gauge(p) <= 1.0:
        assert g1 == 1.0 and g2 == 1.0


@given(y=st.floats(min_value=2.0, max_value=4.0))
def test_lambda_hits_zero_and_one_only_on_vertical_sides(y):
    # x exactly on the right side of the stage-1 slab: lam must be exactly 0.
    assert decompose(Point2(4.0, y)).lam == 0.0
    assert decompose(Point2(-4.0, -y)).lam == 1.0
    # One ulp inside, lam leaves the boundary.
    inside = math.nextafter(4.0, 0.0)
    s = y - 0.75 * inside
    if abs(s) <= 1.0:  # still stage 1
        assert 0.0 < decompose(Point2(inside, y)).lam < 1.0


@given(
    x=st.lists(finite_coord, min_size=1, max_size=60),
    y=st.lists(finite_coord, min_size=1, max_size=60),
)
def test_batch_bitwise_equals_scalar(x, y):
    n = min(len(x), len(y))
    xa, ya = np.array(x[:n]), np.array(y[:n])
    stage, lam, e1x, e1y, e2x, e2y = decompose_batch(xa, ya)
    for i in range(n):
        d = decompose(Point2(xa[i], ya[i]))
        assert stage[i] == d.stage
        assert lam[i] == d.lam
        assert (e1x[i], e1y[i]) == d.e1.as_tuple()
        assert (e2x[i], e2y[i]) == d.e2.as_tuple()


def test_decompose_rejects_points_beyond_stage_cap():
    with pytest.raises(InvalidInputError):
        decompose(Point2(math.ldexp(1.0, 1022), 0.0))
    with pytest.raises(InvalidInputError):
        decompose_batch(np.array([0.0, math.ldexp(1.0, 1022)]), np.array([0.0, 0.0]))


def test_decomposition_type_validates():
    with pytest.raises(InvalidInputError):
        Decomposition(0, 0.5, Point2(-4, -3), Point2(4, 3))
    with pytest.raises(InvalidInputError):
        Decomposition(1, 1.5, Point2(-4, -3), Point2(4, 3))
    with pytest.raises(InvalidInputError):
        Decomposition(1, 0.5, Point2(-8, -3), Point2(4, 3))


def test_large_scale_round_trip():
    # A payoff near the acceptance range's top: stage 22 slab.
    p = Point2(999_983.0, -456_789.25)
    d = decompose(p)
    assert d.stage == scale_index(gauge(p))
    rx = d.lam * d.e1.x + (1.0 - d.lam) * d.e2.x
    ry = d.lam * d.e1.y + (1.0 - d.lam) * d.e2.y
    scale = max(1.0, gauge(p))
    assert abs(rx - p.x) <= 1e-9 * scale
    assert abs(ry - p.y) <= 1e-9 * scale
    assert curve_distance(d.e1, d.stage + 1) == 0.0
    assert curve_distance(d.e2, d.stage + 1) == 0.0
