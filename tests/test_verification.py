"""The verifier: passing reports, targeted corruptions, checker agreement."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from law_pairs import law_from_pairs

from comolift.decomposition import decompose
from comolift.errors import InvalidInputError
from comolift.filtration import Atom, FiltrationModel
from comolift import lifting, verification
from comolift.geometry import MAX_STAGE, Point2, curve_distance_batch, curve_segments, gauge, gauge_batch
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


def _log_uniform_model(n: int, seed: int) -> FiltrationModel:
    """n atoms with gauges log-uniform in [1e-3, 1e6], random directions and weights."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, size=(n, 2))
    r = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), n))
    f, g = (q * (r / gauge_batch(q[:, 0], q[:, 1]))[:, None]).T
    w = rng.uniform(0.5, 1.5, n)
    return FiltrationModel.from_columns([f"a{i}" for i in range(n)], w / math.fsum(w.tolist()), f, g)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rows below tol miss a y-tamper (ROADMAP item 2)")
def test_verify_fails_a_y_tamper_of_one_part_in_1e12():
    # Scaling a branch's y slides it along its vertical side, so only the mean
    # rows can see it, and they compare at tol relative to max(1, gauge).  On
    # this model the same tamper of each of the first 50 two-branch atoms passes.
    m = _log_uniform_model(1000, seed=7)
    law = lift(m)
    k = int(np.flatnonzero(np.diff(law.owner) == 0)[0])  # first branch of the first two-branch atom
    y = law.y.copy()
    y[k] *= 1.0 + 1e-12
    tampered = LiftedLaw.from_columns(law.id_column, law.owner, law.prob, law.x, y)
    assert not verify_model(m, tampered).overall_pass


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Monte Carlo rows false-fail correct laws at scale (ROADMAP item 1)")
def test_verify_passes_a_correct_law_under_monte_carlo_at_1e4_atoms():
    # Seed 0 reads sampler_branch_freq 7.94 (and sampler_mean 7.94) against 5:
    # the largest of 1e4 per-atom z-scores, at 10 draws per atom.
    m = _log_uniform_model(10_000, seed=7)
    assert verify_model(m, lift(m), mc_samples=100_000, seed=0).overall_pass


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


def test_verify_fails_norm_bound_on_a_point_whose_skew_overflows():
    # The point's gauge is inf: the norm row fails it, with no RuntimeWarning.
    law = LiftedLaw({"m0": ((0.5, Point2(-1.7e308, 1.7e308)), (0.5, Point2(4.0, 3.0)))})
    rep = verify_model(model_of([(1.0, 1.0)]), law)
    assert not row(rep, "norm_bound").passed
    assert row(rep, "norm_bound").statistic == -math.inf


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


def test_verify_refuses_a_law_that_repeats_an_atom_id():
    # The law holds b twice.  Its last copy is b's lifted law; its first copy
    # slides 1 down both vertical sides, so its points stay on the curve and
    # comonotone with the rest, but it averages to (0, -1), not to b's payoff.
    # Per-atom rows that read one copy of b would pass this law.
    m = FiltrationModel([Atom("a", 0.5, Point2(8.0, 8.0)), Atom("b", 0.5, Point2(0.0, 0.0))])
    keep = np.array([[True, False], [True, True], [True, True]])
    law = law_from_pairs(["a", "b", "b"], keep, np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]),
                         np.array([[8.0, 8.0], [-4.0, 4.0], [-4.0, 4.0]]),
                         np.array([[8.0, 8.0], [-4.0, 2.0], [-3.0, 3.0]]))
    assert law.branches == lift(m).branches  # the mapping view keeps the last copy
    repeated = r"law atoms do not match model atoms: missing \[\], extra \['b'\]"
    for mc_samples in (0, 100):
        with pytest.raises(InvalidInputError, match=repeated):
            verify_model(m, law, mc_samples=mc_samples)
    with pytest.raises(InvalidInputError, match=repeated):
        lifting.sample_lift(m, law, 10, seed=1)
    with pytest.raises(InvalidInputError, match=repeated):
        lifting.lifted_norm_bound(m, law)


_align_coord = st.one_of(
    finite_coord,
    st.sampled_from([0.0, -0.0, 4.0, -4.0, 1e300, -1e300, 2.0 ** 1018, -(2.0 ** 1018)]),
)
_align_prob = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 0.5, 1.0]))


@st.composite
def _law_and_shuffled_copy(draw):
    """A model, a law in its atom order, and the same law with its atom rows
    permuted: lifted laws (single-branch atoms among them) and laws of 1 to 3
    branches per atom from the mapping constructor."""
    coords = draw(st.lists(st.tuples(_align_coord, _align_coord), min_size=1, max_size=6))
    m = model_of(coords)
    if draw(st.booleans()):
        branches = lift(m).branches
    else:
        point = st.builds(Point2, _align_coord, _align_coord)
        branch = st.tuples(_align_prob, point)
        branches = {i: tuple(draw(st.lists(branch, min_size=1, max_size=3))) for i in m.ids()}
    order = draw(st.permutations(m.ids()))
    return m, LiftedLaw(branches), LiftedLaw({i: branches[i] for i in order})


def _outcome(call, *args):
    try:
        return call(*args)
    except InvalidInputError as exc:
        return repr(exc)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@given(case=_law_and_shuffled_copy(), mc_samples=st.sampled_from([0, 40]))
@settings(max_examples=300, deadline=None)
def test_verify_reads_a_shuffled_law_as_the_law_in_model_order(case, mc_samples):
    m, law, shuffled = case
    reports = [_outcome(verify_model, m, given, mc_samples, 7) for given in (law, shuffled)]
    if isinstance(reports[0], str):
        assert reports[0] == reports[1]
    else:
        assert _same(tuple(reports[0].rows()), tuple(reports[1].rows()))
        assert _same(reports[0].cond_exp_max_residual, reports[1].cond_exp_max_residual)
        assert reports[0].overall_pass == reports[1].overall_pass


@given(case=_law_and_shuffled_copy(), count=st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_samplers_read_a_shuffled_law_as_the_law_in_model_order(case, count):
    m, law, shuffled = case
    draws, arrays, chunks, bounds = [], [], [], []
    for given in (law, shuffled):
        s = _outcome(lifting.sample_lift, m, given, count, 5)
        draws.append(s if isinstance(s, str) else (s.idx, s.u, s.xi, s.eta))
        arrays.append(_outcome(lifting.sample_lift_arrays, m, given, count, 5))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lifting, "_DRAW_CHUNK", 7)
            run = _outcome(lifting.sample_chunks, m, given, count, 5)
            chunks.append(run if isinstance(run, str) else [(c.start, c.idx, c.u, c.xi, c.eta) for c in run])
        rows = _outcome(lifting.lifted_norm_bound, m, given)
        bounds.append(rows if isinstance(rows, str) else [tuple(r) for r in rows.values()])
    for left, right in (draws, arrays, chunks, bounds):
        assert _same(left, right)


def test_verify_aligns_a_shuffled_law_once(monkeypatch):
    m = model_of([(0.0, 0.0), (8.0, 8.0), (-17.0, 3.0), (2.4, 1.8), (-3.0, 0.5)])
    law = lift(m)
    shuffled = LiftedLaw({i: law.branches[i] for i in reversed(m.ids())})
    real = lifting.align_law
    calls, permuting = [], []

    def counting(model, given):
        aligned = real(model, given)
        calls.append(1)
        if aligned is not given:
            permuting.append(1)
        return aligned

    monkeypatch.setattr(lifting, "align_law", counting)
    monkeypatch.setattr(verification, "align_law", counting)
    for mc_samples in (0, 1000):
        for given, expected in ((law, 0), (shuffled, 1)):
            calls.clear()
            permuting.clear()
            verify_model(m, given, mc_samples=mc_samples)
            assert len(permuting) == expected
            assert len(calls) == (2 if mc_samples == 0 else 3)


def _power_case():
    # Atom p lifts to lambda 0.2, so its first branch fires on one draw in five.
    m = FiltrationModel([Atom("p", 0.5, Point2(2.4, 1.8)), Atom("q", 0.5, Point2(-3.0, 0.5))])
    law = lift(m)
    assert law.branches["p"][0][0] == 0.2 and len(law.branches["q"]) == 2
    return m, law


def _mc_rows(m, law):
    return {r.name: r for r in verify_model(m, law, mc_samples=20_000, seed=3).mc_checks}


def test_mc_rows_fail_a_sampler_that_flips_one_atoms_branch_choice(monkeypatch):
    m, law = _power_case()
    clean = _mc_rows(m, law)
    assert all(r.passed for r in clean.values())
    real = lifting.sample_branch

    def flipped(table, idx, u):
        branch = real(table, idx, u)
        # table[1] and table[2] are each atom's first and last branch.
        return np.where(idx == 0, table[1][idx] + table[2][idx] - branch, branch)

    monkeypatch.setattr(lifting, "sample_branch", flipped)
    bad = _mc_rows(m, law)
    assert bad["sampler_support_exact"].passed
    for name in ("sampler_branch_freq", "sampler_mean"):
        assert not bad[name].passed
        assert bad[name].statistic > 20.0 * clean[name].statistic


def test_mc_rows_fail_a_sampler_that_emits_another_atoms_branch(monkeypatch):
    m, law = _power_case()
    real = lifting.sample_branch

    def borrowed(table, idx, u):
        return np.where(idx == 0, table[1][1], real(table, idx, u))

    monkeypatch.setattr(lifting, "sample_branch", borrowed)
    assert not _mc_rows(m, law)["sampler_support_exact"].passed


def test_mc_rows_fail_a_sampler_that_biases_the_atom_choice(monkeypatch):
    m, law = _power_case()
    real = lifting.draw_atoms

    def biased(*args):
        idx, u = real(*args)
        idx = idx.copy()
        idx[::4] = 0  # atom p gets about 5/8 of the draws instead of 1/2
        return idx, u

    monkeypatch.setattr(lifting, "draw_atoms", biased)
    assert not _mc_rows(m, law)["sampler_atom_freq"].passed


def test_mc_rows_stay_quiet_when_the_branch_variance_overflows():
    # lambda 1e300 puts p * (1 - p) past the float range: the frequency row
    # fails with an infinite statistic, and no RuntimeWarning is raised.
    model = model_of([(0.0, 0.0)])
    law = LiftedLaw({"m0": ((1e300, Point2(-4.0, -3.0)), (1.0 - 1e300, Point2(4.0, 3.0)))})
    rep = verify_model(model, law, mc_samples=100)
    assert not rep.overall_pass
    assert row(rep, "sampler_branch_freq").statistic == math.inf
    assert not row(rep, "sampler_branch_freq").passed
