"""Lifted laws: mean identities, branch collapse, sampling, norm bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comolift.errors import InvalidInputError
from comolift.filtration import Atom, FiltrationModel, sample_u
from comolift.geometry import Point2, gauge, on_curve
from comolift.lifting import (
    LiftedLaw,
    SamplePair,
    lift,
    lifted_norm_bound,
    sample_chunks,
    sample_lift,
    sample_lift_arrays,
)
from comolift.verification import check_comonotone_pairwise, check_comonotone_witness

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def demo_model() -> FiltrationModel:
    return FiltrationModel(
        [Atom("a", 0.5, Point2(0, 0)), Atom("b", 0.5, Point2(8, 8))]
    )


def random_model(coords: list[tuple[float, float]]) -> FiltrationModel:
    w = 1.0 / len(coords)
    return FiltrationModel(
        [Atom(f"m{i}", w, Point2(x, y)) for i, (x, y) in enumerate(coords)]
    )


def test_lift_demo_frozen():
    law = lift(demo_model())
    assert law.branches["a"] == ((0.5, Point2(-4, -3)), (0.5, Point2(4, 3)))
    assert law.branches["b"] == ((1.0, Point2(8, 8)),)


def test_lift_collapse_conventions():
    # Payoffs sitting exactly on a vertical side collapse to one branch.
    m = random_model([(4.0, 4.0), (-4.0, -4.0), (0.0, 0.0)])
    law = lift(m)
    assert law.branches["m0"] == ((1.0, Point2(4, 4)),)
    assert law.branches["m1"] == ((1.0, Point2(-4, -4)),)
    assert len(law.branches["m2"]) == 2


@given(coords=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=40))
@settings(max_examples=200)
def test_lift_mean_identity(coords):
    m = random_model(coords)
    law = lift(m)
    for atom in m.atoms:
        mx, my = law.mean(atom.id)
        scale = max(1.0, gauge(atom.payoff))
        assert abs(mx - atom.payoff.x) <= 1e-12 * scale
        assert abs(my - atom.payoff.y) <= 1e-12 * scale


@given(coords=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=40))
@settings(max_examples=200)
def test_lift_support_is_comonotone_and_on_curve(coords):
    m = random_model(coords)
    law = lift(m)
    support = law.support_points()
    _, ok_pairs = check_comonotone_pairwise(support, 0.0)
    _, ok_wit = check_comonotone_witness(support, 0.0)
    assert ok_pairs and ok_wit
    for pt in support:
        assert on_curve(pt, 1e-9)


def test_lift_no_zero_probability_branches():
    m = random_model([(4.0, 3.0), (-8.0, -7.0), (1.0, 0.5), (1e6, 1e6)])
    law = lift(m)
    for branch in law.branches.values():
        for prob, _ in branch:
            assert 0.0 < prob <= 1.0


def test_sample_lift_stream_matches_sample_u():
    m = demo_model()
    law = lift(m)
    n = 500
    pairs = sample_lift(m, law, n, seed=99)
    stream = sample_u(m, n, seed=99)
    assert [(p.atom_id, p.u) for p in pairs] == stream


def test_sample_lift_emits_exact_branch_points():
    m = demo_model()
    law = lift(m)
    for p in sample_lift(m, law, 2000, seed=5):
        branch_points = {pt.as_tuple() for _, pt in law.branches[p.atom_id]}
        assert (p.xi, p.eta) in branch_points


def test_sample_lift_branch_rule():
    # u <= lam picks e1: check against the raw stream.
    m = demo_model()
    law = lift(m)
    lam = law.branches["a"][0][0]
    e1 = law.branches["a"][0][1]
    e2 = law.branches["a"][1][1]
    for p in sample_lift(m, law, 1000, seed=11):
        if p.atom_id != "a":
            continue
        expected = e1 if p.u <= lam else e2
        assert (p.xi, p.eta) == expected.as_tuple()


def test_sample_lift_single_branch_atom_is_constant():
    m = demo_model()
    law = lift(m)
    for p in sample_lift(m, law, 1000, seed=3):
        if p.atom_id == "b":
            assert (p.xi, p.eta) == (8.0, 8.0)


def test_sample_lift_frequencies():
    m = demo_model()
    law = lift(m)
    n = 100_000
    idx, u, xi, eta, first = sample_lift_arrays(m, law, n, seed=42)
    a_mask = idx == 0
    n_a = int(a_mask.sum())
    freq = float(first[a_mask].mean())
    lam = law.branches["a"][0][0]
    se = math.sqrt(lam * (1.0 - lam) / n_a)
    assert abs(freq - lam) <= 5.0 * se


def test_samples_views_match_per_draw_pairs():
    # The pairs a per-draw list would hold, built from the sampler's columns.
    m = demo_model()
    law = lift(m)
    samples = sample_lift(m, law, 300, seed=8)
    idx, u, xi, eta, _ = sample_lift_arrays(m, law, 300, seed=8)
    pairs = [SamplePair(m.ids()[i], uv, xv, yv)
             for i, uv, xv, yv in zip(idx.tolist(), u.tolist(), xi.tolist(), eta.tolist())]
    assert len(samples) == 300
    assert list(samples) == pairs
    assert (samples[0], samples[7], samples[-1], samples[-300]) == (pairs[0], pairs[7], pairs[-1], pairs[0])
    assert all(type(value) is float for value in samples[-1][1:])
    with pytest.raises(IndexError):
        samples[300]
    with pytest.raises(TypeError):
        samples[1:3]
    assert not any(col.flags.writeable for col in (samples.idx, samples.u, samples.xi, samples.eta))


def test_sample_pair_shape():
    p = SamplePair("a", 0.5, -4.0, -3.0)
    assert p.atom_id == "a" and p.u == 0.5 and (p.xi, p.eta) == (-4.0, -3.0)


def test_lifted_norm_bound_frozen():
    m = demo_model()
    rows = lifted_norm_bound(m, lift(m))
    assert rows["a"] == (1.0, 1.0, 0.0)
    assert rows["b"] == (2.0, 4.0, 2.0)


@given(coords=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=40))
@settings(max_examples=200)
def test_lifted_norm_bound_nonnegative_margin(coords):
    m = random_model(coords)
    for row in lifted_norm_bound(m, lift(m)).values():
        assert row.margin >= 0.0
        assert row.max_branch_gauge <= row.bound


def test_law_model_mismatch_raises():
    m = demo_model()
    law = lift(m)
    other = random_model([(0.0, 0.0)])
    with pytest.raises(InvalidInputError):
        sample_lift(other, law, 10, seed=1)
    with pytest.raises(InvalidInputError):
        lifted_norm_bound(other, law)


@pytest.mark.parametrize("count, seed", [(-1, 0), (2.0, 0), ("3", 0), (0, 1.5), (3, None)])
def test_sample_chunks_refuses_on_the_call_what_sample_lift_refuses(count, seed):
    # The chunks are drawn lazily, but their arguments are checked at once.
    m = demo_model()
    law = lift(m)
    with pytest.raises(InvalidInputError) as whole:
        sample_lift(m, law, count, seed)
    with pytest.raises(InvalidInputError) as chunked:
        sample_chunks(m, law, count, seed)
    assert str(chunked.value) == str(whole.value)


def test_lifted_law_shape_validation():
    with pytest.raises(InvalidInputError):
        LiftedLaw({"a": ()})
    with pytest.raises(InvalidInputError):
        LiftedLaw({"": ((1.0, Point2(0, 0)),)})
    with pytest.raises(InvalidInputError):
        LiftedLaw({"a": ((1.0, (0.0, 0.0)),)})  # type: ignore[arg-type]
    # Semantically bad but structurally fine laws are representable: the
    # verifier, not the constructor, owns the judgment.
    law = LiftedLaw({"a": ((0.4, Point2(-4, -3)), (0.4, Point2(4, 3)))})
    assert law.mean("a") == (0.0, 0.0)


def test_lift_error_names_the_atom():
    m = FiltrationModel([Atom("huge", 1.0, Point2(math.ldexp(1.0, 1022), 0.0))])
    with pytest.raises(InvalidInputError, match="huge"):
        lift(m)
