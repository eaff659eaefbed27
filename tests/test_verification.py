"""The verifier: passing reports, targeted corruptions, checker agreement."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comolift.decomposition import decompose
from comolift.errors import InvalidInputError
from comolift.filtration import Atom, FiltrationModel
from comolift import verification
from comolift.geometry import MAX_STAGE, Point2, curve_distance_batch, curve_segments, gauge
from comolift.lifting import LiftedLaw, lift
from comolift.verification import (
    check_comonotone_pairwise,
    check_comonotone_witness,
    verify_model,
)

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def model_of(coords: list[tuple[float, float]]) -> FiltrationModel:
    w = 1.0 / len(coords)
    return FiltrationModel(
        [Atom(f"m{i}", w, Point2(x, y)) for i, (x, y) in enumerate(coords)]
    )


def row(report, name):
    matches = [r for r in report.rows() if r.name == name]
    assert len(matches) == 1, name
    return matches[0]


def test_checkers_frozen_cases():
    ok = [Point2(0, 0), Point2(1, 1), Point2(2, 5)]
    bad = [Point2(0, 0), Point2(1, -1)]
    stat, passed = check_comonotone_pairwise(ok, 0.0)
    assert passed and stat == 1.0  # (1-0)(1-0) is the smallest product
    stat, passed = check_comonotone_pairwise(bad, 0.0)
    assert not passed and stat == -1.0
    _, passed = check_comonotone_witness(ok, 0.0)
    assert passed
    _, passed = check_comonotone_witness(bad, 0.0)
    assert not passed


def test_checkers_tolerance_semantics():
    pts = [Point2(0.0, 0.0), Point2(1e-7, -1e-7)]  # product -1e-14
    stat, passed = check_comonotone_pairwise(pts, 1e-12)
    assert passed and stat == pytest.approx(-1e-14)
    _, passed = check_comonotone_pairwise(pts, 1e-15)
    assert not passed


def test_checkers_degenerate_inputs():
    assert check_comonotone_pairwise([Point2(3, 4)], 0.0) == (math.inf, True)
    assert check_comonotone_witness([Point2(3, 4)], 0.0) == (math.inf, True)
    # Duplicates are fine: the product on a duplicate pair is zero.
    _, passed = check_comonotone_pairwise([Point2(1, 1), Point2(1, 1)], 0.0)
    assert passed
    with pytest.raises(InvalidInputError):
        check_comonotone_pairwise([], 0.0)
    with pytest.raises(InvalidInputError):
        check_comonotone_pairwise([Point2(0, 0), Point2(1, 1)], -1.0)


def test_pairwise_keeps_the_sign_of_overflowed_products():
    # (-1e308, 5) and (0, 1) form an anti-monotone pair whose product
    # overflows to -inf; the pair (+-1e308, 5) multiplies inf by 0.
    pts = [Point2(1e308, 5.0), Point2(-1e308, 5.0), Point2(0.0, 1.0), Point2(1.0, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert check_comonotone_pairwise(pts, 0.0) == (-math.inf, False)
        assert check_comonotone_witness(pts, 0.0) == (-4.0, False)
        assert check_comonotone_pairwise(pts[:2], 0.0) == (0.0, True)


def test_witness_keeps_the_sign_of_overflowed_steps():
    # x + y and the steps between these points overflow; x/2 + y/2 does not.
    chain = [Point2(-1.7e308, -1.7e308), Point2(1.7e308, 1.7e308)]
    anti = [Point2(-1.7e308, 1.7e308), Point2(1.7e308, -1.7e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert check_comonotone_witness(chain, 0.0) == (math.inf, True)
        assert check_comonotone_witness(anti, 0.0) == (-math.inf, False)
        assert check_comonotone_pairwise(chain, 0.0) == (math.inf, True)
        assert check_comonotone_pairwise(anti, 0.0) == (-math.inf, False)


def _block_scan_min_product(xs: np.ndarray, ys: np.ndarray) -> float:
    """Reference: every product (x - x')(y - y'), O(M^2), in row blocks."""
    m = xs.size
    block = max(1, 2_500_000 // m)
    best = math.inf
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow keeps its sign
            prod = (xs[lo:hi, None] - xs[None, :]) * (ys[lo:hi, None] - ys[None, :])
        rows = np.arange(hi - lo)
        prod[rows, lo + rows] = math.inf  # self-pairs carry no information
        low = float(prod.min())
        if math.isnan(low):  # the only NaN, 0 * inf, is exactly 0
            low = min(float(np.fmin.reduce(prod, axis=None)), 0.0)
        best = min(best, low)
    return best


_grid_points = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=40
).map(lambda c: np.array(c, dtype=np.float64).T)

_edge_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5.0, 1e-300, 1e308, -1e308, 1.7e308, -1.7e308])


@st.composite
def _edge_points(draw):
    pts = np.array(draw(st.lists(st.tuples(_edge_value, _edge_value), min_size=1, max_size=12))).T
    return np.sort(pts, axis=1) if draw(st.booleans()) else pts  # sorted coordinates: a chain


@st.composite
def _random_points(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(["cloud", "chain", "near_chain", "offset_chains", "slid"]))
    xs, ys = rng.normal(size=n), rng.normal(size=n)
    if kind == "chain":
        xs, ys = np.sort(xs), np.sort(ys)
    elif kind == "near_chain":
        xs, ys = np.sort(xs), np.sort(ys) + 0.05 * rng.normal(size=n)
    elif kind == "offset_chains":  # both staircases long
        ys = np.r_[xs, xs - rng.uniform(0.1, 2.0)]
        xs = np.r_[xs, xs]
    elif kind == "slid":  # a lifted law with a few points slid sideways
        law = lift(model_of([tuple(v) for v in rng.uniform(-1e3, 1e3, size=(n, 2))]))
        xs, ys = law.x.copy(), law.y.copy()
        picks = rng.integers(0, xs.size, 3)
        xs[picks] += rng.choice([-1e-6, 1e-6], picks.size)
    return xs, ys


@given(pts=st.one_of(_grid_points, _edge_points(), _random_points()))
@settings(max_examples=400, deadline=None)
def test_pairwise_equals_the_block_scan(pts):
    xs, ys = pts
    stat, _ = check_comonotone_pairwise([Point2(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
    assert stat == _block_scan_min_product(xs, ys)  # == holds across the sign of zero


# Exact dyadic grid: sums and pairwise products incur no rounding and no
# underflow, so the two checkers must agree exactly (the product test goes
# blind once a product underflows below the subnormal range, which is a
# property of products, not a bug in either checker).
_dyadic = st.integers(min_value=-(2 ** 27), max_value=2 ** 27).map(
    lambda k: k * 2.0 ** -20
)


@given(coords=st.lists(st.tuples(_dyadic, _dyadic), min_size=2, max_size=30))
@settings(max_examples=500)
def test_checkers_agree_at_tol_zero(coords):
    pts = [Point2(x, y) for x, y in coords]
    _, by_products = check_comonotone_pairwise(pts, 0.0)
    _, by_witness = check_comonotone_witness(pts, 0.0)
    assert by_products == by_witness, coords


@given(
    stage=st.integers(min_value=1, max_value=12),
    picks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10 ** 6), st.floats(0.0, 1.0)),
        min_size=2,
        max_size=30,
    ),
)
def test_checkers_accept_points_drawn_on_the_curve(stage, picks):
    segs = curve_segments(stage)
    pts = []
    for k, t in picks:
        seg = segs[k % len(segs)]
        pts.append(
            Point2(seg.a.x + t * (seg.b.x - seg.a.x), seg.a.y + t * (seg.b.y - seg.a.y))
        )
    _, by_products = check_comonotone_pairwise(pts, 0.0)
    _, by_witness = check_comonotone_witness(pts, 0.0)
    assert by_products and by_witness


def test_verify_passes_on_lifted_model():
    m = model_of([(0.0, 0.0), (8.0, 8.0), (-123.456, 7.89), (1e-3, -1e-3), (1e6, -1e6)])
    rep = verify_model(m, lift(m), mc_samples=0, seed=1, tol=1e-9)
    assert rep.overall_pass
    assert rep.mc_checks == ()
    names = [r.name for r in rep.det_checks]
    assert names == [
        "law_well_formed",
        "branch_points_on_curve",
        "decompose_reconstruction",
        "cond_exp_identity",
        "tower_property",
        "comonotone_pairwise",
        "comonotone_witness",
        "norm_bound",
    ]


def test_verify_summary_fields_match_rows():
    m = model_of([(3.0, 1.0), (-50.0, -49.0), (1234.5, 1000.0)])
    rep = verify_model(m, lift(m), mc_samples=0, seed=1, tol=1e-9)
    assert rep.max_reconstruction_error == row(rep, "decompose_reconstruction").statistic
    assert rep.min_comonotone_product == row(rep, "comonotone_pairwise").statistic
    assert rep.min_norm_bound_margin == row(rep, "norm_bound").statistic
    assert rep.cond_exp_max_residual == max(
        row(rep, "cond_exp_identity").statistic, row(rep, "tower_property").statistic
    )


def test_verify_recomputes_reconstruction_error():
    m = model_of([(0.1, 0.2), (77.0, -3.0)])
    rep = verify_model(m, lift(m), mc_samples=0, seed=1, tol=1e-9)
    expected = 0.0
    for atom in m.atoms:
        d = decompose(atom.payoff)
        rx = d.lam * d.e1.x + (1.0 - d.lam) * d.e2.x
        ry = d.lam * d.e1.y + (1.0 - d.lam) * d.e2.y
        err = max(abs(rx - atom.payoff.x), abs(ry - atom.payoff.y)) / max(
            1.0, gauge(atom.payoff)
        )
        expected = max(expected, err)
    assert rep.max_reconstruction_error == expected


def _tamper(law: LiftedLaw, atom_id: str, branches) -> LiftedLaw:
    raw = dict(law.branches)
    raw[atom_id] = branches
    return LiftedLaw(raw)


def test_verify_fails_bad_probability_sum():
    m = model_of([(0.0, 0.0), (8.0, 8.0)])
    law = lift(m)
    (l1, e1), (_, e2) = law.branches["m0"]
    bad = _tamper(law, "m0", ((l1, e1), (0.6, e2)))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not rep.overall_pass
    assert not row(rep, "law_well_formed").passed


def test_verify_fails_zero_probability_branch():
    m = model_of([(4.0, 4.0)])
    law = lift(m)
    pt = law.branches["m0"][0][1]
    bad = _tamper(law, "m0", ((0.0, Point2(-4.0, -2.0)), (1.0, pt)))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not row(rep, "law_well_formed").passed


def test_verify_fails_off_curve_point():
    m = model_of([(0.0, 0.0), (8.0, 8.0)])
    law = lift(m)
    (l1, e1), (l2, e2) = law.branches["m0"]
    off = Point2(e1.x + 1e-6, e1.y)
    bad = _tamper(law, "m0", ((l1, off), (l2, e2)))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not rep.overall_pass
    assert not row(rep, "branch_points_on_curve").passed


def test_curve_row_over_slices_equals_the_unsliced_statistic(monkeypatch):
    # Slices of 3 points over 7 atoms' branches; the worst point is the last
    # atom's first branch, in the last slice.
    m = model_of([(float(k), 0.5 * k - 1.0) for k in range(7)])
    law = lift(m)
    (l1, e1), *rest = law.branches["m6"]
    bad = _tamper(law, "m6", ((l1, Point2(e1.x + 1e-3, e1.y)), *rest))
    assert bad.x.size > 3 and bad.x.size - 3 <= int(np.argmax(bad.x == e1.x + 1e-3))
    monkeypatch.setattr(verification, "_CURVE_SLICE", 3)
    stat = row(verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9), "branch_points_on_curve").statistic
    assert stat > 1e-9
    assert stat == float(curve_distance_batch(bad.x, bad.y, MAX_STAGE).max())


def test_verify_catches_slide_along_vertical_side():
    # Nudging e1 up its own vertical side keeps it on the curve, so the
    # on-curve row stays green; the shifted mean is what trips the report.
    m = model_of([(0.0, 0.0), (8.0, 8.0)])
    law = lift(m)
    (l1, e1), (l2, e2) = law.branches["m0"]
    slid = Point2(e1.x, e1.y + 1e-6)
    bad = _tamper(law, "m0", ((l1, slid), (l2, e2)))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not rep.overall_pass
    assert row(rep, "branch_points_on_curve").passed
    assert not row(rep, "cond_exp_identity").passed


def test_verify_fails_wrong_mean():
    m = model_of([(1.0, 0.5), (8.0, 8.0)])
    law = lift(m)
    (l1, e1), (l2, e2) = law.branches["m0"]
    # Swap the weights of an asymmetric two-point law: probabilities still
    # sum to one and the points stay on the curve, but the mean moves.
    assert l1 != l2
    bad = _tamper(law, "m0", ((l2, e1), (l1, e2)))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not rep.overall_pass
    assert row(rep, "law_well_formed").passed
    assert row(rep, "branch_points_on_curve").passed
    assert not row(rep, "cond_exp_identity").passed


def test_verify_fails_anti_monotone_support():
    m = model_of([(0.0, 0.0), (0.0, 0.1)])
    law = lift(m)
    bad = _tamper(
        law,
        "m1",
        ((0.5, Point2(-4.0, 3.0)), (0.5, Point2(4.0, -2.9))),
    )
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not rep.overall_pass
    assert not row(rep, "comonotone_pairwise").passed
    assert not row(rep, "comonotone_witness").passed


def test_verify_fails_norm_bound():
    m = model_of([(0.0, 0.0)])
    law = lift(m)
    # Replace the stage-1 endpoints with far-out curve points: still on the
    # curve, still averaging to (0, 0), but the gauge bound breaks.
    big = Point2(64.0, 48.0)  # stage-5 vertical side, gauge 16
    neg = Point2(-64.0, -48.0)
    bad = _tamper(law, "m0", ((0.5, neg), (0.5, big)))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    assert not rep.overall_pass
    assert row(rep, "branch_points_on_curve").passed
    assert row(rep, "cond_exp_identity").passed
    assert not row(rep, "norm_bound").passed


def test_verify_mc_rows_present_and_passing():
    m = model_of([(0.0, 0.0), (8.0, 8.0), (-17.0, 3.0)])
    rep = verify_model(m, lift(m), mc_samples=50_000, seed=42, tol=1e-9)
    assert rep.overall_pass
    names = [r.name for r in rep.mc_checks]
    assert names == [
        "sampler_support_exact",
        "sampler_mean",
        "sampler_branch_freq",
        "sampler_atom_freq",
    ]
    assert row(rep, "sampler_support_exact").statistic == 0.0


def test_verify_mc_with_tiny_sample_count():
    # Atoms that receive no samples are skipped, not crashed on.
    m = model_of([(0.0, 0.0), (8.0, 8.0), (-17.0, 3.0)])
    rep = verify_model(m, lift(m), mc_samples=2, seed=42, tol=1e-9)
    assert len(rep.mc_checks) == 4


def test_verify_validates_arguments():
    m = model_of([(0.0, 0.0)])
    law = lift(m)
    with pytest.raises(InvalidInputError):
        verify_model(m, law, mc_samples=-1)
    with pytest.raises(InvalidInputError):
        verify_model(m, law, tol=0.0)
    other = model_of([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(InvalidInputError):
        verify_model(other, law)


@given(coords=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=25))
@settings(max_examples=100)
def test_verify_passes_on_random_lifted_models(coords):
    m = model_of(coords)
    rep = verify_model(m, lift(m), mc_samples=0, seed=1, tol=1e-9)
    assert rep.overall_pass, [r for r in rep.rows() if not r.passed]


def test_verify_passes_with_one_atom_near_the_float_range():
    rng = np.random.default_rng(5)
    coords = [tuple(v) for v in rng.uniform(-1e3, 1e3, size=(100, 2))] + [(1e300, 1e300)]
    m = model_of(coords)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_model(m, lift(m), mc_samples=0, seed=1, tol=1e-9)
    assert rep.overall_pass, [r for r in rep.rows() if not r.passed]
    assert row(rep, "branch_points_on_curve").statistic == 0.0


def test_pairwise_row_sees_every_point_of_a_large_law():
    # Above 20 000 pooled points the row once scored a 10 000-point subsample,
    # which missed a single discordant point more often than not.
    rng = np.random.default_rng(11)
    m = model_of([tuple(v) for v in rng.uniform(-1e3, 1e3, size=(10_500, 2))])
    law = lift(m)
    assert law.x.size > 20_000
    (l1, p), *rest = law.branches["m7"]
    # Move p right past the nearest point up and to its right: every other
    # pair stays on the curve, so only pairs with the moved point are
    # discordant.
    up_right = (law.x > p.x) & (law.y > p.y)
    moved = Point2(float(law.x[up_right].min()) + 1.0, p.y)
    bad = _tamper(law, "m7", ((l1, moved), *rest))
    rep = verify_model(m, bad, mc_samples=0, seed=1, tol=1e-9)
    k = int(np.flatnonzero((bad.x == moved.x) & (bad.y == moved.y))[0])
    others = np.arange(bad.x.size) != k
    brute = float(np.min((bad.x[others] - moved.x) * (bad.y[others] - moved.y)))
    assert brute < -1e-9
    assert not row(rep, "comonotone_pairwise").passed
    assert row(rep, "comonotone_pairwise").statistic == brute
