"""Machine checks that a lifted law actually does what it claims.

``verify_model`` audits a (model, law) pair and returns a report of named
checks, each a (statistic, threshold, pass) row.  Deterministic rows:

* law_well_formed: 1 or 2 branches per atom, probabilities in (0, 1]
  summing to 1 (within one or two ulp, since a stored pair fl(lam),
  fl(1 - lam) can miss 1 by an ulp when lam is tiny).
* branch_points_on_curve: worst Chebyshev distance from a branch point to
  the staircase curve.  Laws built by ``lift`` sit at distance exactly 0.
* decompose_reconstruction: worst relative error of lam*e1 + (1-lam)*e2
  against the payoff, freshly decomposed.
* cond_exp_identity: worst relative gap between an atom's law mean and its
  payoff.  This is the conditional-expectation contract on each atom.
* tower_property: the same contract aggregated, sum_a w_a * mean_a against
  sum_a w_a * payoff_a, normalized by max(1, sum w|f|, sum w|g|) because the
  aggregate itself can cancel to zero.
* comonotone_pairwise / comonotone_witness: the pooled branch points must be
  a comonotone set; checked both by the exact minimum pairwise product over
  every point (a sort on (x, y) and, off a chain, a divide and conquer
  between two staircases: O(M log M)) and by the sort-based witness
  criterion.
* norm_bound: every branch gauge stays under max(2 * gauge(payoff), 1).

Monte Carlo rows (when mc_samples > 0) replay the sampler and test it at
five standard errors using the law's exact two-point moments: empirical
per-atom means, first-branch frequencies, atom frequencies, and bit-exact
membership of every emitted point in its atom's branch set.

Every row is computed on arrays, from the law in model order that
``align_law`` returns once per call.  The curve distance measures each point
against the segment its anti-diagonal crosses.

Relative residuals are normalized by max(1, scale): payoffs here range over
many orders of magnitude, and below scale 1 an absolute comparison is the
honest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .decomposition import decompose_batch
from .errors import InvalidInputError
from .filtration import FiltrationModel, fsum_column
from .geometry import MAX_STAGE, Point2, curve_distance_batch, gauge_batch
from .lifting import LiftedLaw, _draw, _refuse_over_cap, align_law, norm_bound_columns, sample_table

__all__ = [
    "CheckRow",
    "VerificationReport",
    "check_comonotone_pairwise",
    "check_comonotone_witness",
    "verify_model",
    "PAIRWISE_FULL_SCAN_LIMIT",
]

#: Read by no path in this package: the pairwise check always sees every
#: point.  Kept as an exported name because the benchmark's traced run reads it.
PAIRWISE_FULL_SCAN_LIMIT = 20_000

#: |sum of branch probabilities - 1| allowed: two rounding errors.
_PROB_SUM_TOL = 2.0 ** -52

_MC_SIGMAS = 5.0

#: Law points per slice of the curve row: its temporaries grow with the slice,
#: not with the law.
_CURVE_SLICE = 16_384


class CheckRow(NamedTuple):
    """One named check: the measured statistic against its threshold."""

    name: str
    statistic: float
    threshold: float
    passed: bool


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of :func:`verify_model`.

    The four summary numbers are copies of the matching rows' statistics;
    ``det_checks`` and ``mc_checks`` carry every row.  ``overall_pass`` is
    the conjunction of all rows.
    """

    max_reconstruction_error: float
    cond_exp_max_residual: float
    min_comonotone_product: float
    min_norm_bound_margin: float
    det_checks: tuple[CheckRow, ...]
    mc_checks: tuple[CheckRow, ...]
    overall_pass: bool

    def rows(self) -> tuple[CheckRow, ...]:
        return self.det_checks + self.mc_checks


def _point_arrays(points: Sequence[Point2], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """A checker's points as coordinate arrays, once tol and count are valid."""
    if not isinstance(tol, (int, float)) or not math.isfinite(tol) or tol < 0.0:
        raise InvalidInputError(f"tol must be finite and nonnegative, got {tol!r}")
    if len(points) == 0:
        raise InvalidInputError("need at least one point")
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    return xs, ys


def _pairwise_min_product(xs: np.ndarray, ys: np.ndarray) -> float:
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow keeps its sign
        dx, dy = np.diff(xs), np.diff(ys)
        if not np.any(dy < 0.0):  # a chain
            # A zero difference makes the product 0, even against an overflowed one.
            return float(np.where((dx == 0.0) | (dy == 0.0), 0.0, dx * dy).min(initial=math.inf))
        return -_discordant_max(xs, ys)


def _discordant_max(xs: np.ndarray, ys: np.ndarray) -> float:
    # Upper-left staircase (running maxima of y in (x, y) order) against the
    # lower-right one (running minima from the right); both run up in x and y.
    top = ys == np.maximum.accumulate(ys)
    bottom = ys == np.minimum.accumulate(ys[::-1])[::-1]
    lx, ly, rx, ry = xs[top], ys[top], xs[bottom], ys[bottom]
    # Keep the points with a discordant partner: x' > x and y' < y.
    has_l = np.searchsorted(rx, lx, "right") < np.searchsorted(ry, ly, "left")
    has_r = np.searchsorted(ly, ry, "right") < np.searchsorted(lx, rx, "left")
    lx, ly, rx, ry = lx[has_l], ly[has_l], rx[has_r], ry[has_r]
    # Row i's partners are the columns lo[i] <= j < hi[i]; both bounds and
    # the best column never decrease with i.
    lo = np.searchsorted(rx, lx, "right")
    hi = np.searchsorted(ry, ly, "left")
    # One level of the recursion at a time: node k owns rows r0[k] <= i < r1[k]
    # and columns c0[k] <= j <= c1[k], and scores its middle row.
    r0, r1 = np.array([0]), np.array([lx.size])
    c0, c1 = np.array([0]), np.array([rx.size - 1])
    best = -math.inf
    while r0.size:
        mid = (r0 + r1) // 2
        start = np.maximum(c0, lo[mid])
        count = np.minimum(c1 + 1, hi[mid]) - start
        offset = np.cumsum(count) - count
        j = np.arange(count.sum()) + np.repeat(start - offset, count)
        i = np.repeat(mid, count)
        score = (rx[j] - lx[i]) * (ly[i] - ry[j])
        top_score = np.maximum.reduceat(score, offset)
        best = max(best, float(top_score.max()))
        hits = np.flatnonzero(score == np.repeat(top_score, count))
        arg = j[hits[np.searchsorted(hits, offset)]]  # leftmost best column
        left, right = mid > r0, mid + 1 < r1
        r0, r1 = np.concatenate((r0[left], mid[right] + 1)), np.concatenate((mid[left], r1[right]))
        c0, c1 = np.concatenate((c0[left], arg[right])), np.concatenate((arg[left], c1[right]))
    return best


def check_comonotone_pairwise(points: Sequence[Point2], tol: float = 0.0) -> tuple[float, bool]:
    """Minimum of (x - x')(y - y') over all distinct pairs, and whether it
    clears -tol.  Fewer than two points pass vacuously with statistic +inf.

    Every pair counts, in O(M log M).  Sort by (x, y).  If y is then
    nondecreasing the set is a chain: both rounded differences only grow
    between points further apart, so a consecutive pair holds the minimum.
    Otherwise the minimum is -max (x_j - x_i)(y_i - y_j) over discordant
    pairs (x_i < x_j, y_i > y_j).  Moving i up or left, or j down or right,
    never lowers that product, so i ranges over the upper-left staircase and
    j over the lower-right one, each pruned to the points that have a
    discordant partner.  In exact arithmetic these products form a Monge
    array, so the best partner of i never moves left as i moves right, and
    a divide and conquer scores each row only against the columns its
    neighbours leave open (ICPC World Finals 2017, "Money for Nothing", with
    y negated).  Rounded products keep that order except between products
    within a few ulps of each other.  An overflowed product keeps its sign,
    and 0 times an overflowed difference counts as 0.

    The witness check reaches the same verdict at tol = 0 on different
    logic: it sorts by half-sums and checks coordinate steps, while this
    check sorts by (x, y) and scores products, so a fault in one does not
    hide in the other.
    """
    worst = _pairwise_min_product(*_point_arrays(points, tol))
    return worst, worst >= -tol


def _witness_min_step(xs: np.ndarray, ys: np.ndarray) -> float:
    order = np.lexsort((ys, xs, xs / 2.0 + ys / 2.0))  # half-sums cannot overflow
    with np.errstate(over="ignore"):  # an overflowed step keeps its sign
        steps = (np.diff(xs[order]), np.diff(ys[order]))
    return float(min(step.min(initial=math.inf) for step in steps))


def check_comonotone_witness(points: Sequence[Point2], tol: float = 0.0) -> tuple[float, bool]:
    """Sort by x/2 + y/2 (ties by x, then y) and require both coordinates
    nondecreasing.

    For tol = 0 this is equivalent to the pairwise product test: in a
    comonotone set the half-sum x/2 + y/2 orders both coordinates
    simultaneously, so a single sorted sweep certifies every pair at once.
    Halves keep the key inside the float range, and the y tie-break matters
    when the key rounds to the same float for points differing only in y.
    Returns the worst consecutive coordinate step and whether it
    clears -tol; fewer than two points pass vacuously with statistic +inf.
    """
    worst = _witness_min_step(*_point_arrays(points, tol))
    return worst, worst >= -tol


def _law_shape_deviation(law: LiftedLaw) -> float:
    first, last = law.ends()
    if np.any(last - first > 1) or np.any((law.prob <= 0.0) | (law.prob > 1.0)):
        return math.inf
    sums = np.bincount(law.owner, weights=law.prob, minlength=first.size)
    return float(np.max(np.abs(sums - 1.0), initial=0.0))


def verify_model(
    model: FiltrationModel,
    law: LiftedLaw,
    mc_samples: int = 0,
    seed: int = 42,
    tol: float = 1e-9,
) -> VerificationReport:
    """Run every deterministic check, plus Monte Carlo when asked.

    ``tol`` bounds the relative residual rows and (negated) the
    comonotonicity and norm-margin rows; the Monte Carlo rows use five
    standard errors regardless of tol.
    """
    if not isinstance(mc_samples, int) or mc_samples < 0:
        raise InvalidInputError(f"mc_samples must be a nonnegative int, got {mc_samples!r}")
    if not isinstance(tol, (int, float)) or not math.isfinite(tol) or tol <= 0.0:
        raise InvalidInputError(f"tol must be finite and positive, got {tol!r}")
    law = align_law(model, law)
    f, g = model.f, model.g
    scale = np.maximum(1.0, gauge_batch(f, g))

    def worst_gap(px: np.ndarray, py: np.ndarray) -> float:
        gap = np.maximum(np.abs(px - f), np.abs(py - g)) / scale
        return float(np.max(gap, initial=0.0))

    det: list[CheckRow] = []

    shape_dev = _law_shape_deviation(law)
    det.append(CheckRow("law_well_formed", shape_dev, _PROB_SUM_TOL, shape_dev <= _PROB_SUM_TOL))

    curve_dev = float(np.max([
        curve_distance_batch(law.x[lo:lo + _CURVE_SLICE], law.y[lo:lo + _CURVE_SLICE], MAX_STAGE).max()
        for lo in range(0, law.x.size, _CURVE_SLICE)
    ]))
    det.append(CheckRow("branch_points_on_curve", curve_dev, tol, curve_dev <= tol))

    _refuse_over_cap(model)
    _, lam, e1x, e1y, e2x, e2y = decompose_batch(f, g)
    recon_err = worst_gap(lam * e1x + (1.0 - lam) * e2x, lam * e1y + (1.0 - lam) * e2y)
    det.append(CheckRow("decompose_reconstruction", recon_err, tol, recon_err <= tol))

    mx, my = law.means
    mean_err = worst_gap(mx, my)
    det.append(CheckRow("cond_exp_identity", mean_err, tol, mean_err <= tol))

    w = model.weights()
    tower_err = math.inf  # an infinite or NaN mean, which fsum cannot total
    if np.isfinite(mx).all() and np.isfinite(my).all():
        lhs_f, lhs_g, rhs_f, rhs_g, abs_f, abs_g = (
            fsum_column(w * v) for v in (f, g, mx, my, np.abs(f), np.abs(g))
        )
        tower_err = max(abs(lhs_f - rhs_f), abs(lhs_g - rhs_g)) / max(1.0, abs_f, abs_g)
    det.append(CheckRow("tower_property", tower_err, tol, tower_err <= tol))

    min_prod = _pairwise_min_product(law.x, law.y)
    det.append(CheckRow("comonotone_pairwise", min_prod, -tol, min_prod >= -tol))

    wit_stat = _witness_min_step(law.x, law.y)
    det.append(CheckRow("comonotone_witness", wit_stat, -tol, wit_stat >= -tol))

    worst, bound = norm_bound_columns(model, law)
    margin = float(np.min((bound - worst) / np.maximum(1.0, bound), initial=math.inf))
    det.append(CheckRow("norm_bound", margin, -tol, margin >= -tol))

    mc = _mc_checks(model, law, mc_samples, seed) if mc_samples > 0 else []
    return VerificationReport(
        max_reconstruction_error=recon_err,
        cond_exp_max_residual=max(mean_err, tower_err),
        min_comonotone_product=min_prod,
        min_norm_bound_margin=margin,
        det_checks=tuple(det),
        mc_checks=tuple(mc),
        overall_pass=all(r.passed for r in det + mc),
    )


def _worst_z(z: np.ndarray) -> float:
    # NaN z-scores (0/0 on atoms whose spread underflows) carry no evidence.
    return float(np.max(z[~np.isnan(z)], initial=0.0))


def _mc_checks(model: FiltrationModel, law: LiftedLaw, mc_samples: int, seed: int) -> list[CheckRow]:
    natoms = len(model)
    table = sample_table(model, law)
    s = _draw(model, table, mc_samples, seed, 0)
    # Per model atom: first-branch probability pa (1 for a single branch),
    # and both branch points (the same point twice for a single branch).
    pa, b1, b2 = table[:3]
    idx, xi, eta, first = s.idx, s.xi, s.eta, s.branch == b1[s.idx]
    p1x, p1y, p2x, p2y = law.x[b1], law.y[b1], law.x[b2], law.y[b2]

    hit = ((xi == p1x[idx]) & (eta == p1y[idx])) | ((xi == p2x[idx]) & (eta == p2y[idx]))
    support_bad = 1.0 - float(np.mean(hit))

    counts = np.bincount(idx, minlength=natoms).astype(np.float64)
    sum_x = np.bincount(idx, weights=xi, minlength=natoms)
    sum_y = np.bincount(idx, weights=eta, minlength=natoms)
    firsts = np.bincount(idx, weights=first.astype(np.float64), minlength=natoms)

    # Atoms without draws, and atoms whose branch variance pa * (1 - pa) is
    # zero (single branches among them), carry no test.  A negative variance
    # means pa lies outside [0, 1]: the frequency row fails outright.
    seen = counts > 0.0
    n_a = np.where(seen, counts, 1.0)
    mx, my = law.means
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an overflowed spread is inf
        pq = pa * (1.0 - pa)
        z_mean = 0.0
        for emp, mean, spread in ((sum_x / n_a, mx, p1x - p2x), (sum_y / n_a, my, p1y - p2y)):
            var = pq * spread ** 2
            tested = seen & (var > 0.0)
            z_mean = max(z_mean, _worst_z(np.abs(emp - mean)[tested] / np.sqrt(var / n_a)[tested]))
        tested = seen & (pq > 0.0)
        z_freq = _worst_z(np.abs(firsts / n_a - pa)[tested] / np.sqrt(pq / n_a)[tested])
    if np.any(seen & (pq < 0.0)):
        z_freq = math.inf

    w = model.weights()
    freq = counts / float(mc_samples)
    se = np.sqrt(w * (1.0 - w) / float(mc_samples))
    ok = se > 0.0
    z_atom = float(np.max(np.abs(freq[ok] - w[ok]) / se[ok])) if np.any(ok) else 0.0

    return [
        CheckRow("sampler_support_exact", support_bad, 0.0, support_bad <= 0.0),
        CheckRow("sampler_mean", z_mean, _MC_SIGMAS, z_mean <= _MC_SIGMAS),
        CheckRow("sampler_branch_freq", z_freq, _MC_SIGMAS, z_freq <= _MC_SIGMAS),
        CheckRow("sampler_atom_freq", z_atom, _MC_SIGMAS, z_atom <= _MC_SIGMAS),
    ]
