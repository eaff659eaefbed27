"""Lifted laws: mean identities, branch collapse, sampling, norm bounds."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from itertools import repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from law_pairs import law_from_pairs

from comolift import filtration, lifting
from comolift.decomposition import decompose_batch
from comolift.errors import InvalidInputError
from comolift.filtration import Atom, FiltrationModel, sample_u_arrays
from comolift.geometry import GAUGE_CAP, Point2, gauge, gauge_batch, on_curve
from comolift.lifting import (
    LiftedLaw,
    align_law,
    lift,
    lifted_norm_bound,
    sample_chunks,
    sample_lift,
    sample_lift_arrays,
)
from comolift.rng import uniforms
from comolift.verification import check_comonotone_pairwise, check_comonotone_witness, verify_model

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


def _draws(samples):
    """Each draw's (atom id, u, xi, eta), read from the sampler's columns."""
    return zip(samples.ids[samples.idx].tolist(), samples.u.tolist(), samples.xi.tolist(), samples.eta.tolist())


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
    for atom, mx, my in zip(m.atoms, *(c.tolist() for c in law.means)):
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


def test_sample_lift_stream_matches_sample_u_arrays():
    m = demo_model()
    law = lift(m)
    n = 500
    samples = sample_lift(m, law, n, seed=99)
    idx, u = sample_u_arrays(m, n, seed=99)
    want = [(m.ids()[i], v) for i, v in zip(idx.tolist(), u.tolist())]
    assert [(atom_id, v) for atom_id, v, _, _ in _draws(samples)] == want


#: The largest value on the grid k * 2^-53 of rng.uniforms.
_TOP_GRID = 1.0 - 2.0 ** -53
_grid = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0 ** -53)


@st.composite
def _map_case(draw):
    """A lifted model whose running weight sum repeats where a tiny weight
    vanishes in its rounding, and a run: its stream words are a seed's, or
    planted, with selectors on the sum's values below 1 and u on the branch
    probabilities, and both at 0 and at the top of the grid."""
    raw = draw(st.lists(st.floats(1e-3, 1.0) | st.sampled_from([1e-30, 2.0 ** -80]), min_size=1, max_size=8))
    w = np.array(raw) / math.fsum(raw)
    coords = draw(st.lists(st.tuples(finite_coord, finite_coord), min_size=w.size, max_size=w.size))
    model = FiltrationModel.from_columns([f"a{i}" for i in range(w.size)], w, *zip(*coords))
    law = lift(model)
    count, seed, words = draw(st.integers(0, 40)), draw(st.integers(0, 2**64)), None
    if draw(st.booleans()):
        sel = st.sampled_from([0.0, _TOP_GRID, *(c for c in np.cumsum(w).tolist() if c < 1.0)]) | _grid
        u = st.sampled_from([0.0, _TOP_GRID, *law.prob.tolist()]) | _grid
        words = np.array(draw(st.lists(st.tuples(sel, u), min_size=count, max_size=count)), dtype=np.float64)
    return model, law, count, seed, words


@given(case=_map_case())
@settings(max_examples=300, deadline=None)
def test_draw_path_agrees_with_the_searchsorted_oracle(case):
    # The reference reads the weights and the words on its own, not through sample_table.
    model, law, count, seed, words = case
    with pytest.MonkeyPatch.context() as patch:
        if words is None:
            words = uniforms(seed, 0, 2 * count)
        else:
            words = words.reshape(-1)
            patch.setattr(filtration, "uniforms", lambda _, start, n: words[start:start + n])
        sel, u = words[0::2], words[1::2]
        cum = np.cumsum(model.weights())
        cum[-1] = 1.0
        idx = np.searchsorted(cum, sel, "right")
        assert np.all(idx < len(model))
        first, last = np.searchsorted(law.owner, idx), np.searchsorted(law.owner, idx, "right") - 1
        branch = np.where((first == last) | (u <= law.prob[first]), first, last)
        a_idx, a_u, xi, eta, took_first = sample_lift_arrays(model, law, count, seed)
        assert (a_idx.tobytes(), a_u.tobytes()) == (idx.tobytes(), u.tobytes())
        assert (xi.tobytes(), eta.tobytes()) == (law.x[branch].tobytes(), law.y[branch].tobytes())
        assert took_first.tolist() == (branch == first).tolist()
        for chunk in [*range(1, 8), lifting._DRAW_CHUNK]:
            patch.setattr(lifting, "_DRAW_CHUNK", chunk)
            run = list(sample_chunks(model, law, count, seed))
            assert [c.start for c in run] == list(range(0, max(count, 1), chunk))
            for column, want in (("idx", idx), ("u", u), ("branch", branch)):
                assert np.concatenate([getattr(c, column) for c in run]).tobytes() == want.tobytes()


def test_one_weight_cum_per_run(monkeypatch):
    # The running weight sum is part of the run's table, not of each chunk's draws.
    m = random_model([(float(i), 0.5 * i - 1.0) for i in range(6)])
    law = lift(m)
    real, built = np.cumsum, []

    def counting(a, *args, **kwargs):
        if a is m.weights():
            built.append(1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting)
    monkeypatch.setattr(lifting, "_DRAW_CHUNK", 7)
    assert len(list(sample_chunks(m, law, 50, seed=3))) == 8
    assert len(built) == 1
    built.clear()
    assert verify_model(m, law, mc_samples=50).mc_checks
    assert len(built) == 1


def test_sample_lift_emits_exact_branch_points():
    m = demo_model()
    law = lift(m)
    for atom_id, _, xi, eta in _draws(sample_lift(m, law, 2000, seed=5)):
        branch_points = {pt.as_tuple() for _, pt in law.branches[atom_id]}
        assert (xi, eta) in branch_points


def test_sample_lift_branch_rule():
    # u <= lam picks e1: check against the raw stream.
    m = demo_model()
    law = lift(m)
    lam = law.branches["a"][0][0]
    e1 = law.branches["a"][0][1]
    e2 = law.branches["a"][1][1]
    for atom_id, u, xi, eta in _draws(sample_lift(m, law, 1000, seed=11)):
        if atom_id != "a":
            continue
        expected = e1 if u <= lam else e2
        assert (xi, eta) == expected.as_tuple()


def test_sample_lift_single_branch_atom_is_constant():
    m = demo_model()
    law = lift(m)
    for atom_id, _, xi, eta in _draws(sample_lift(m, law, 1000, seed=3)):
        if atom_id == "b":
            assert (xi, eta) == (8.0, 8.0)


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


def test_samples_columns_match_sample_lift_arrays():
    # The draws are their read-only columns: no per-draw view by index or iteration.
    m = demo_model()
    law = lift(m)
    samples = sample_lift(m, law, 300, seed=8)
    idx, u, xi, eta, _ = sample_lift_arrays(m, law, 300, seed=8)
    assert len(samples) == 300
    for got, want in ((samples.idx, idx), (samples.u, u), (samples.xi, xi), (samples.eta, eta)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        samples[0]
    with pytest.raises(TypeError):
        iter(samples)
    assert not any(col.flags.writeable for col in (samples.idx, samples.u, samples.xi, samples.eta))


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
    with pytest.raises(InvalidInputError, match="branches must map atom ids"):
        LiftedLaw([("a", ((1.0, Point2(0, 0)),))])  # type: ignore[arg-type]
    with pytest.raises(InvalidInputError, match="branch probability must be finite"):
        LiftedLaw({"a": ((math.nan, Point2(0, 0)),)})
    # Semantically bad but structurally fine laws are representable: the
    # verifier, not the constructor, owns the judgment.
    law = LiftedLaw({"a": ((0.4, Point2(-4, -3)), (0.4, Point2(4, 3)))})
    assert [c.tolist() for c in law.means] == [[0.0], [0.0]]


def test_lift_error_names_the_atom():
    m = FiltrationModel([Atom("huge", 1.0, Point2(math.ldexp(1.0, 1022), 0.0))])
    with pytest.raises(InvalidInputError, match="huge"):
        lift(m)


def _whole_column_lift(model):
    """lift by one decompose_batch over every atom and a gather from stacked slots,
    as it was before it worked a slice at a time."""
    try:
        lam, e1x, e1y, e2x, e2y = decompose_batch(model.f, model.g)[1:]
    except InvalidInputError as exc:
        bad = int(np.argmax(gauge_batch(model.f, model.g) > GAUGE_CAP))
        raise InvalidInputError(f"atom {model.id_column[bad]!r}: {exc}") from exc
    keep = np.column_stack((lam != 0.0, lam != 1.0))
    prob, x, y = np.column_stack((lam, 1.0 - lam)), np.column_stack((e1x, e2x)), np.column_stack((e1y, e2y))
    return LiftedLaw.from_columns(model.id_column, np.flatnonzero(keep) // 2, prob[keep], x[keep], y[keep])


def _lift_outcome(lift_fn, model):
    try:
        law = lift_fn(model)
    except InvalidInputError as exc:
        return str(exc)
    assert law.id_column is model.id_column
    return [(c.dtype, c.tobytes()) for c in (law.owner, law.prob, law.x, law.y)]


# A payoff drawn as a point, moved onto a vertical side of its stage (e1 or e2 of its
# decomposition, where lam is exactly 1 or 0), or pushed past the gauge cap.
_payoff = st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.sampled_from(["point", "e1", "e2", "huge"]))


@given(payoffs=st.lists(_payoff, min_size=1, max_size=30),
       slice_atoms=st.one_of(st.integers(1, 7), st.just(lifting._LIFT_SLICE)))
@example(payoffs=[(1.0, 2.0, "point")] * 3 + [(1.0, 2.0, "huge"), (1.0, 2.0, "point"), (3.0, 0.0, "huge")],
         slice_atoms=2)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sliced_lift_agrees_with_the_whole_column_oracle(monkeypatch, payoffs, slice_atoms):
    # Slices of 1 to 7 atoms put a collapsed atom or the first over-cap one in any
    # slice; the error must still name the first over-cap atom.
    monkeypatch.setattr(lifting, "_LIFT_SLICE", slice_atoms)
    x, y, kind = (np.array(c) for c in zip(*payoffs))
    _, _, e1x, e1y, e2x, e2y = decompose_batch(x, y)
    on_e1, on_e2 = kind == "e1", kind == "e2"
    x, y = np.select([on_e1, on_e2, kind == "huge"], [e1x, e2x, 1e308], x), np.select([on_e1, on_e2], [e1y, e2y], y)
    n = len(payoffs)
    model = FiltrationModel.from_columns([f"m{i}" for i in range(n)], [1.0 / n] * n, x, y)
    assert _lift_outcome(lift, model) == _lift_outcome(_whole_column_lift, model)


@pytest.mark.parametrize("collapsed", [0, 1, 100_000], ids=["no-atom-collapsed", "one-collapsed", "all-collapsed"])
def test_lift_peak_memory_is_the_law_plus_one_slice(collapsed):
    # lift decomposes a slice of atoms at a time into arrays of two slots per atom
    # and moves each slice's kept slots down in place, so on 1e5 atoms it peaks
    # 0.44 MB over its 6.10 MB of owner, prob, x and y slots, collapsed atoms or
    # not.  One decompose_batch over every atom and a gather peaked at 10.87 MB,
    # and a gather only when some atom collapses at 10.90 MB with one collapsed.
    n = 100_000
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, n)
    f, g = rng.normal(0.0, 1e3, n), rng.normal(0.0, 1e3, n)
    e1x, e1y = decompose_batch(f, g)[2:4]
    f[:collapsed], g[:collapsed] = e1x[:collapsed], e1y[:collapsed]  # lam is exactly 1 at e1
    model = FiltrationModel.from_columns([f"a{i}" for i in range(n)], w / math.fsum(w.tolist()), f, g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        law = lift(model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert law.prob.size == 2 * n - collapsed
    slots = 2 * n * 4 * 8  # owner, prob, x and y, 8 bytes each, two slots per atom
    assert peak <= slots + 1.5 * 2**20, (peak / 2**20, slots / 2**20)


def _oracle_align_law(model, law):
    """align_law by a dict from id to model position, as it was before ids were a column."""
    ids, law_ids = model.ids(), tuple(law.id_column.tolist())
    if ids == law_ids:
        return law
    index = dict(zip(ids, range(len(ids))))
    rank = np.fromiter(map(index.get, law_ids, repeat(-1)), dtype=np.int64, count=len(law_ids))
    if not np.array_equal(np.sort(rank), np.arange(len(ids))):
        raise InvalidInputError(
            f"law atoms do not match model atoms: missing {sorted((Counter(ids) - Counter(law_ids)).elements())!r}, "
            f"extra {sorted((Counter(law_ids) - Counter(ids)).elements())!r}"
        )
    order = np.argsort(rank[law.owner], kind="stable")
    return ids, rank[law.owner[order]], law.prob[order], law.x[order], law.y[order]


@st.composite
def _model_and_law(draw):
    """A model, and a law over its ids shuffled, with some missing, extra or repeated."""
    ids = draw(st.lists(st.text(max_size=3), min_size=1, max_size=8, unique=True))
    n = len(ids)
    model = FiltrationModel.from_columns(ids, [1.0 / n] * n, [0.0] * n, [0.0] * n)
    law_ids = draw(st.permutations(ids))
    if draw(st.booleans()):
        law_ids = [i for i in law_ids if draw(st.integers(0, 4))]  # missing
    if draw(st.booleans()):
        law_ids += draw(st.lists(st.sampled_from(ids) | st.text(max_size=3), max_size=3))  # repeated or extra
    law_ids = draw(st.permutations(law_ids))
    if not law_ids:
        law_ids = ids[:1]
    m = len(law_ids)
    keep = np.column_stack((np.ones(m, bool), draw(st.lists(st.booleans(), min_size=m, max_size=m))))
    prob, x, y = (np.array(draw(st.lists(st.floats(-4, 4), min_size=2 * m, max_size=2 * m))).reshape(m, 2)
                  for _ in range(3))
    return model, law_from_pairs(law_ids, keep, prob, x, y)


@given(case=_model_and_law())
@settings(max_examples=400, deadline=None)
def test_align_law_agrees_with_the_dict_oracle(case):
    model, law = case
    try:
        want = _oracle_align_law(model, law)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError) as got:
            align_law(model, law)
        assert str(got.value) == str(exc)
        return
    got = align_law(model, law)
    if want is law:
        assert got is law
        return
    ids, owner, prob, x, y = want
    assert tuple(got.id_column.tolist()) == ids
    for a, b in ((got.owner, owner), (got.prob, prob), (got.x, x), (got.y, y)):
        assert a.tobytes() == b.tobytes()


def test_law_ids_are_a_column_shared_with_the_model():
    m = demo_model()
    law = lift(m)
    assert law.id_column is m.id_column and not m.id_column.flags.writeable
    assert tuple(law.id_column.tolist()) == m.ids() == ("a", "b")
    assert all(type(i) is str for i in law.id_column.tolist())
    assert (law.means[0][1], law.means[1][1]) == (8.0, 8.0)
