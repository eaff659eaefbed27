"""Acceptance gate: eleven criteria, one verdict line each.

Each test prints (and records for the terminal summary) a single
``ACCEPTANCE NN PASS/FAIL`` line before asserting, so a red criterion is
identifiable at a glance.  Tolerances are pinned here as constants; the
random inputs are seeded so every run sees the same data.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from hull_oracle import gauge_oracle

from comolift.cli import main
from comolift.decomposition import decompose_batch
from comolift.filtration import (
    Atom,
    FiltrationModel,
    atomless_split,
    b_t_event,
    cond_exp_indicator,
    u_le_h_event,
    EventF2,
)
from comolift.geometry import Point2, gauge, gauge_batch, on_curve
from comolift.io import write_atoms_csv, write_law_csv
from comolift.lifting import lift, sample_lift_arrays
from comolift.verification import (
    check_comonotone_pairwise,
    check_comonotone_witness,
)

RECON_TOL = 1e-9          # criterion 1: relative to max(1, gauge)
RECON_BUDGET_S = 10.0     # criterion 1: wall clock for 1e6 points
CURVE_TOL = 1e-9          # criterion 2
NORM_REL_TOL = 1e-12      # criterion 3
ORACLE_REL_TOL = 1e-9     # criterion 4
COMONO_TOL = 1e-12        # criterion 5
MEAN_REL_TOL = 1e-12      # criterion 6
SE_FACTOR = 5.0           # criteria 9 and 10
SAMPLER_BUDGET_S = 30.0   # criterion 9
CLOUD_SIZE = 10**6
ORACLE_POINTS = 10**4
SAMPLER_DRAWS = 10**6


def _verdict(num: int, passed: bool, desc: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} {desc}"
    print(line)
    record_acceptance(line)
    assert passed, line


@pytest.fixture(scope="module")
def cloud():
    """1e6 uniform points in [-1e6, 1e6]^2 with their decompositions.

    ``elapsed`` times only the decomposition pass (the data shared by
    criteria 1 through 3); point generation is excluded.  Everything here
    runs on plain numpy elementwise kernels, which stay on one thread.
    """
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(-1e6, 1e6, CLOUD_SIZE)
    ys = rng.uniform(-1e6, 1e6, CLOUD_SIZE)
    t0 = time.perf_counter()
    stage, lam, e1x, e1y, e2x, e2y = decompose_batch(xs, ys)
    elapsed = time.perf_counter() - t0
    return {
        "xs": xs, "ys": ys, "gauges": gauge_batch(xs, ys),
        "stage": stage, "lam": lam,
        "e1x": e1x, "e1y": e1y, "e2x": e2x, "e2y": e2y,
        "elapsed": elapsed,
    }


def _log_gauge_model(n: int, seed: int, lo: float = 1e-3, hi: float = 1e6) -> FiltrationModel:
    """Random model with gauges log-uniform in [lo, hi], directions random."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, size=(n, 2))
    gq = gauge_batch(q[:, 0], q[:, 1])
    gq = np.where(gq == 0.0, 1.0, gq)  # a zero draw would divide by zero
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    scaled = q * (r / gq)[:, None]
    w = rng.uniform(0.5, 1.5, n)
    w /= w.sum()
    return FiltrationModel(
        [Atom(f"a{i:04d}", w[i], Point2(*scaled[i])) for i in range(n)]
    )


@pytest.fixture(scope="module")
def big_model():
    return _log_gauge_model(1000, seed=71)


def test_c01_decomposition_identity(cloud):
    t0 = time.perf_counter()
    rx = cloud["lam"] * cloud["e1x"] + (1.0 - cloud["lam"]) * cloud["e2x"]
    ry = cloud["lam"] * cloud["e1y"] + (1.0 - cloud["lam"]) * cloud["e2y"]
    err = np.maximum(np.abs(rx - cloud["xs"]), np.abs(ry - cloud["ys"]))
    scale = np.maximum(1.0, cloud["gauges"])
    worst = float((err / scale).max())
    elapsed = cloud["elapsed"] + time.perf_counter() - t0
    ok = worst <= RECON_TOL and elapsed <= RECON_BUDGET_S
    _verdict(
        1, ok,
        f"decomposition identity on 1e6 points: max rel err {worst:.3e} "
        f"<= {RECON_TOL}, decompose + reconstruct {elapsed:.2f}s <= {RECON_BUDGET_S}s",
    )


def test_c02_endpoint_placement(cloud):
    half = np.ldexp(1.0, cloud["stage"] - 1)
    big = 4.0 * half
    # Exact membership in the stage-n vertical sides.  x pinned to the side
    # and y inside its span put the endpoint ON a curve segment, which makes
    # its curve distance exactly zero, so side membership implies on_curve
    # at any tolerance; the API is still exercised on a subsample below.
    sides_ok = (
        bool(np.all(cloud["e1x"] == -big))
        and bool(np.all(cloud["e2x"] == big))
        and bool(np.all((cloud["e1y"] >= -big) & (cloud["e1y"] <= -2.0 * half)))
        and bool(np.all((cloud["e2y"] >= 2.0 * half) & (cloud["e2y"] <= big)))
    )
    rng = np.random.default_rng(5)
    idx = rng.integers(0, CLOUD_SIZE, 1000)
    api_ok = all(
        on_curve(Point2(cloud["e1x"][i], cloud["e1y"][i]), CURVE_TOL)
        and on_curve(Point2(cloud["e2x"][i], cloud["e2y"][i]), CURVE_TOL)
        for i in idx
    )
    _verdict(
        2, sides_ok and api_ok,
        f"endpoints sit on the stage-n vertical sides (exact) and pass "
        f"on_curve at {CURVE_TOL}",
    )


def test_c03_norm_bound(cloud):
    half = np.ldexp(1.0, cloud["stage"] - 1)
    ge1 = gauge_batch(cloud["e1x"], cloud["e1y"])
    ge2 = gauge_batch(cloud["e2x"], cloud["e2y"])
    rel = max(
        float((np.abs(ge1 - half) / half).max()),
        float((np.abs(ge2 - half) / half).max()),
    )
    bound = np.maximum(2.0 * cloud["gauges"], 1.0)
    never_exceed = bool(np.all(ge1 <= bound) and np.all(ge2 <= bound))
    # The wide cloud all but never lands inside the unit ball, so the
    # gauge <= 1 clause gets its own cloud of small points.
    rng = np.random.default_rng(11)
    sx = rng.uniform(-4.0, 4.0, 10**5)
    sy = rng.uniform(-4.0, 4.0, 10**5)
    keep = gauge_batch(sx, sy) <= 1.0
    assert int(keep.sum()) > 10**4
    _, _, se1x, se1y, se2x, se2y = decompose_batch(sx[keep], sy[keep])
    sge1 = gauge_batch(se1x, se1y)
    sge2 = gauge_batch(se2x, se2y)
    never_exceed = never_exceed and bool(
        np.all(sge1 <= 1.0) and np.all(sge2 <= 1.0)
    )
    unit = max(
        float(np.abs(sge1 - 1.0).max()),
        float(np.abs(sge2 - 1.0).max()),
    )
    ok = rel <= NORM_REL_TOL and never_exceed and unit <= NORM_REL_TOL
    _verdict(
        3, ok,
        f"endpoint gauges = 2^(n-1) (rel err {rel:.1e}), <= max(2*gauge, 1) "
        f"everywhere, and = 1 for gauge <= 1 (err {unit:.1e})",
    )


def test_c04_gauge_matches_oracle():
    rng = np.random.default_rng(13)
    blocks = [
        rng.uniform(-2.0, 2.0, size=(ORACLE_POINTS // 4, 2)),
        rng.uniform(-1e3, 1e3, size=(ORACLE_POINTS // 4, 2)),
        rng.uniform(-1e6, 1e6, size=(ORACLE_POINTS // 2, 2)),
    ]
    pts = np.vstack(blocks)
    worst = 0.0
    for x, y in pts:
        p = Point2(x, y)
        gc = gauge(p)
        scale = max(1.0, gc)
        go = gauge_oracle(p, tol=1e-10 * scale)
        worst = max(worst, abs(gc - go) / scale)
    _verdict(
        4, worst <= ORACLE_REL_TOL,
        f"closed-form gauge vs bisection oracle on 1e4 points: "
        f"max rel diff {worst:.3e} <= {ORACLE_REL_TOL}",
    )


def test_c05_comonotone_support_and_checker_agreement(big_model):
    pooled = lift(big_model).support_points()
    prod_stat, prod_ok = check_comonotone_pairwise(pooled, COMONO_TOL)
    wit_stat, wit_ok = check_comonotone_witness(pooled, COMONO_TOL)

    # Agreement sweep on a dyadic grid (coordinates k * 2^-10, |k| <= 2^15):
    # differences, sums and pairwise products are all exact there, so the
    # two checkers must return identical verdicts.  Half the sets are made
    # comonotone by sorting each coordinate so both verdicts get exercised.
    rng = np.random.default_rng(17)
    agree = True
    for trial in range(1000):
        m = int(rng.integers(2, 40))
        k = rng.integers(-(2**15), 2**15 + 1, size=(m, 2))
        coords = k.astype(np.float64) * 2.0**-10
        if trial % 2 == 0:
            coords = np.sort(coords, axis=0)
        pts = [Point2(x, y) for x, y in coords]
        _, by_prod = check_comonotone_pairwise(pts, 0.0)
        _, by_wit = check_comonotone_witness(pts, 0.0)
        agree = agree and (by_prod == by_wit)
        if trial % 2 == 0 and not (by_prod and by_wit):
            agree = False  # sorted sets are comonotone by construction
    ok = prod_ok and wit_ok and agree
    _verdict(
        5, ok,
        f"pooled lift support comonotone (min product {prod_stat:.2e}, "
        f"min witness step {wit_stat:.2e} at tol {COMONO_TOL}); checkers "
        f"agree on 1000 random point sets",
    )


def test_c06_conditional_expectation_identity(big_model):
    law = lift(big_model)
    worst = 0.0
    for atom in big_model.atoms:
        mx, my = law.mean(atom.id)
        scale = max(1.0, gauge(atom.payoff))
        worst = max(
            worst,
            abs(mx - atom.payoff.x) / scale,
            abs(my - atom.payoff.y) / scale,
        )
    _verdict(
        6, worst <= MEAN_REL_TOL,
        f"per-atom law mean reproduces the payoff exactly: max rel residual "
        f"{worst:.3e} <= {MEAN_REL_TOL} (no sampling involved)",
    )


def test_c07_event_conditional_expectations():
    model = _log_gauge_model(50, seed=23, lo=0.1, hi=10.0)
    rng = np.random.default_rng(29)
    worst_ulps = 0.0
    for t in [0.0, 1.0, *rng.uniform(0.0, 1.0, 100)]:
        ce = cond_exp_indicator(model, b_t_event(model, float(t)))
        for _, v in ce.items():
            err = abs(v - t)
            budget = math.ulp(t) if t > 0.0 else 0.0
            worst_ulps = max(worst_ulps, err - budget)
    for _ in range(100):
        h = {a.id: float(u) for a, u in zip(model.atoms, rng.uniform(0.0, 1.0, 50))}
        ce = cond_exp_indicator(model, u_le_h_event(model, h))
        for atom_id, v in ce.items():
            err = abs(v - h[atom_id])
            budget = math.ulp(h[atom_id])
            worst_ulps = max(worst_ulps, err - budget)
    _verdict(
        7, worst_ulps <= 0.0,
        "cond_exp_indicator returns t for b_t events and h for u<=h events "
        "within 1 ulp (100 random draws each)",
    )


def test_c08_atomless_split_strict():
    model = _log_gauge_model(40, seed=31, lo=0.1, hi=10.0)
    rng = np.random.default_rng(37)
    checked = 0
    ok = True
    for _ in range(100):
        pieces = {}
        for atom in model.atoms:
            k = int(rng.integers(0, 3))
            if k:
                cuts = np.sort(rng.uniform(0.0, 1.0, 2 * k))
                pieces[atom.id] = [
                    (float(cuts[2 * j]), float(cuts[2 * j + 1])) for j in range(k)
                ]
        if not pieces:
            pieces = {model.atoms[0].id: [(0.25, 0.75)]}
        event = EventF2(pieces)
        half_event = atomless_split(model, event)
        full = cond_exp_indicator(model, event)
        part = cond_exp_indicator(model, half_event)
        for atom_id, mass in full.items():
            if mass > 0.0:
                checked += 1
                ok = ok and 0.0 < part[atom_id] < mass
    _verdict(
        8, ok and checked > 0,
        f"atomless_split keeps 0 < E[1_B|atom] < E[1_A|atom] strict on every "
        f"positive-mass atom ({checked} atom-events over 100 random events)",
    )


def test_c09_sampler_consistency():
    model = FiltrationModel(
        [Atom("a", 0.5, Point2(0.0, 0.0)), Atom("b", 0.5, Point2(8.0, 8.0))]
    )
    law = lift(model)
    t0 = time.perf_counter()
    idx, _, xi, eta, first = sample_lift_arrays(model, law, SAMPLER_DRAWS, seed=42)
    counts = np.bincount(idx, minlength=2)
    worst_z = 0.0
    for i, atom in enumerate(model.atoms):
        sel = idx == i
        n = int(counts[i])
        branch = law.branches[atom.id]
        if len(branch) == 2:
            (lam, e1), (_, e2) = branch
            for emp, payoff, spread in (
                (float(xi[sel].mean()), atom.payoff.x, e1.x - e2.x),
                (float(eta[sel].mean()), atom.payoff.y, e1.y - e2.y),
            ):
                se = math.sqrt(lam * (1.0 - lam) * spread * spread / n)
                worst_z = max(worst_z, abs(emp - payoff) / se)
            freq = float(first[sel].mean())
            se = math.sqrt(lam * (1.0 - lam) / n)
            worst_z = max(worst_z, abs(freq - lam) / se)
        else:
            pt = branch[0][1]
            # degenerate branch: zero variance, the means must be exact
            assert float(xi[sel].mean()) == pt.x
            assert float(eta[sel].mean()) == pt.y
    elapsed = time.perf_counter() - t0
    ok = worst_z <= SE_FACTOR and elapsed <= SAMPLER_BUDGET_S
    _verdict(
        9, ok,
        f"demo-model sampler at 1e6 draws: per-atom means and branch "
        f"frequencies within {worst_z:.2f} <= {SE_FACTOR} exact SE, "
        f"{elapsed:.2f}s <= {SAMPLER_BUDGET_S}s",
    )


def test_c10_moment_preservation(big_model):
    for model in (big_model, _log_gauge_model(200, seed=43)):
        law = lift(model)
        bounds = {
            atom.id: max(2.0 * gauge(atom.payoff), 1.0) for atom in model.atoms
        }
        for p in (1, 2):
            lhs = math.fsum(
                atom.weight * prob * gauge(pt) ** p
                for atom in model.atoms
                for prob, pt in law.branches[atom.id]
            )
            rhs = math.fsum(atom.weight * bounds[atom.id] ** p for atom in model.atoms)
            assert lhs <= rhs * (1.0 + 1e-12), (p, lhs, rhs)
        idx, _, xi, eta, _ = sample_lift_arrays(model, law, 200_000, seed=47)
        g_draw = gauge_batch(xi, eta)
        b_draw = np.array([bounds[i] for i in model.ids()])[idx]
        emp_ok = True
        for p in (1, 2):
            # gauge(draw) <= bound(atom) holds for every single draw, so the
            # empirical means inherit the inequality without noise.
            emp_ok = emp_ok and float((g_draw**p).mean()) <= float(
                (b_draw**p).mean()
            ) * (1.0 + 1e-12)
        assert emp_ok
    _verdict(
        10, True,
        "E[gauge(xi, eta)^p] <= E[max(2*gauge(f, g), 1)^p] for p in {1, 2}, "
        "exactly on the laws and empirically on 2e5 draws per model",
    )


def test_c11_fault_sensitivity(tmp_path):
    model = FiltrationModel(
        [
            Atom("flat", 0.125, Point2(0.0, 0.0)),
            Atom("tilt", 0.125, Point2(1.0, 0.75)),
            Atom("west", 0.125, Point2(-2.0, 3.0)),
            Atom("east", 0.125, Point2(10.0, -5.0)),
            Atom("far", 0.125, Point2(-30.0, 20.0)),
            Atom("hi", 0.125, Point2(8.0, 8.0)),     # degenerate, lambda 0
            Atom("lo", 0.25, Point2(-4.0, -4.0)),    # degenerate, lambda 1
        ]
    )
    atoms_csv = tmp_path / "atoms.csv"
    law_csv = tmp_path / "law.csv"
    write_atoms_csv(model, atoms_csv)
    write_law_csv(lift(model), law_csv)
    assert main(["verify", "--input", str(atoms_csv), "--law", str(law_csv)]) == 0

    clean = law_csv.read_text().splitlines()
    failures = []
    trials = 0
    for row in range(1, len(clean)):
        for field in (2, 3, 4, 5):  # u1, v1, u2, v2
            for delta in (1e-6, -1e-6):
                trials += 1
                cells = clean[row].split(",")
                cells[field] = repr(float(cells[field]) + delta)
                tampered = clean[:row] + [",".join(cells)] + clean[row + 1 :]
                bad = tmp_path / "tampered.csv"
                bad.write_text("\n".join(tampered) + "\n")
                code = main(["verify", "--input", str(atoms_csv), "--law", str(bad)])
                if code != 1:
                    failures.append((clean[row].split(",")[0], field, delta, code))
    _verdict(
        11, not failures,
        f"every single-coordinate 1e-6 perturbation of the law file makes "
        f"verify exit 1 ({trials} tampered files, {len(failures)} missed)",
    )
