"""Finite model, events, conditional expectations, and the (atom, u) sampler."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comolift import filtration
from comolift.errors import InvalidEventError, InvalidInputError
from comolift.filtration import (
    WEIGHT_SUM_TOL,
    Atom,
    EventF2,
    FiltrationModel,
    atomless_split,
    b_t_event,
    cond_exp_indicator,
    fsum_column,
    sample_u_arrays,
    u_le_h_event,
)
from comolift.geometry import Point2
from comolift.lifting import LiftedLaw
from comolift.rng import raw_words, uniforms


def two_atom_model() -> FiltrationModel:
    return FiltrationModel(
        [Atom("a", 0.5, Point2(0, 0)), Atom("b", 0.5, Point2(8, 8))]
    )


def test_model_validation():
    with pytest.raises(InvalidInputError):
        FiltrationModel([])
    with pytest.raises(InvalidInputError):
        FiltrationModel([Atom("a", 0.5, Point2(0, 0)), Atom("a", 0.5, Point2(1, 1))])
    with pytest.raises(InvalidInputError):
        FiltrationModel([Atom("a", 0.3, Point2(0, 0)), Atom("b", 0.3, Point2(1, 1))])
    with pytest.raises(InvalidInputError):
        Atom("a", 0.0, Point2(0, 0))
    with pytest.raises(InvalidInputError):
        Atom("a", -0.1, Point2(0, 0))
    with pytest.raises(InvalidInputError):
        Atom("", 0.5, Point2(0, 0))
    with pytest.raises(InvalidInputError, match="payoff must be a Point2"):
        Atom("a", 0.5, (0.0, 0.0))  # type: ignore[arg-type]
    with pytest.raises(InvalidInputError, match="must be Atom instances"):
        FiltrationModel([Atom("a", 0.5, Point2(0, 0)), ("b", 0.5, Point2(1, 1))])  # type: ignore[list-item]


def test_from_columns_runs_the_model_checks():
    with pytest.raises(InvalidInputError, match="at least one atom"):
        FiltrationModel.from_columns([], [], [], [])
    with pytest.raises(InvalidInputError, match="duplicate atom id 'a'"):
        FiltrationModel.from_columns(["a", "b", "a"], [0.25, 0.5, 0.25], [0, 1, 2], [0, 1, 2])
    with pytest.raises(InvalidInputError, match="one weight, f and g per atom id"):
        FiltrationModel.from_columns(["a", "b"], [0.5, 0.5], [0, 1], [0])
    off = 0.5 + 2.0 * WEIGHT_SUM_TOL
    with pytest.raises(InvalidInputError, match="sum to 1"):
        FiltrationModel.from_columns(["a", "b"], [0.5, off], [0, 1], [0, 1])
    near = FiltrationModel.from_columns(["a", "b"], [0.5, 0.5 + WEIGHT_SUM_TOL / 2.0], [0, 1], [0, 1])
    assert near.ids() == ("a", "b")


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("weights, f, g, message", [
    ([1.5, -0.5], [0, 1], [0, 1], "atom 'a': weight must be in (0, 1], got 1.5"),  # sums to 1
    ([0.5, 0.0, 0.5], [0, 1, 2], [0, 1, 2], "atom 'b': weight must be in (0, 1], got 0.0"),
    ([0.5, -0.25, 0.75], [0, 1, 2], [0, 1, 2], "atom 'b': weight must be in (0, 1], got -0.25"),
    ([0.25, 0.25, 1.0 + 2.0 ** -52], [0, 1, 2], [0, 1, 2], "atom 'c': weight must be in (0, 1], got 1.0000000000000002"),
    ([0.25, _NAN, 0.75], [0, 1, 2], [0, 1, 2], "atom 'b': weight must be in (0, 1], got nan"),
    ([0.5, 0.25, 0.25], [0, _NAN, 2], [0, 1, 2], "atom 'b': f must be finite, got nan"),
    ([0.5, 0.25, 0.25], [0, 1, 2], [0, 1, _INF], "atom 'c': g must be finite, got inf"),
    ([0.5, 0.25, 0.25], [0, 1, -_INF], [0, _NAN, 2], "atom 'b': g must be finite, got nan"),  # first atom first
    ([2.0, 0.25, 0.25], [_NAN, 1, 2], [0, 1, 2], "atom 'a': weight must be in (0, 1], got 2.0"),
], ids=["sums_to_1", "zero", "negative", "above_1", "nan_weight", "nan_f", "inf_g", "first_atom", "weight_first"])
def test_from_columns_refuses_what_an_atom_refuses(weights, f, g, message):
    with pytest.raises(InvalidInputError) as exc:
        FiltrationModel.from_columns(["a", "b", "c"][:len(weights)], weights, f, g)
    assert str(exc.value) == message


@pytest.mark.parametrize("weight", [0.0, -0.25, 1.5, _NAN, _INF])
def test_from_columns_words_a_weight_fault_as_atom_does(weight):
    with pytest.raises(InvalidInputError) as by_atom:
        Atom("b", weight, Point2(0, 0))
    with pytest.raises(InvalidInputError) as by_columns:
        FiltrationModel.from_columns(["a", "b"], [0.5, weight], [0, 1], [0, 1])
    assert str(by_columns.value) == str(by_atom.value)


def test_from_columns_copies_the_callers_arrays():
    # The model freezes its own copies: the caller's arrays stay writeable,
    # and writing to them does not reach the model.
    w, f = np.array([0.5, 0.5]), np.array([0.0, 1.0])
    m = FiltrationModel.from_columns(["a", "b"], w, f, [0.0, 2.0])
    w[0], f[0] = 0.25, 3.0
    assert m.weights().tolist() == [0.5, 0.5] and m.f.tolist() == [0.0, 1.0]
    assert not (m.weights().flags.writeable or m.f.flags.writeable or m.g.flags.writeable)


@pytest.mark.parametrize("bad, message", [
    (1, "atom id must be a string, got 1"),
    (b"b", "atom id must be a string, got b'b'"),
    (None, "atom id must be a string, got None"),
    ("b\ud800", "atom id 'b\\ud800' is not UTF-8 encodable"),
], ids=["int", "bytes", "none", "surrogate"])
def test_id_columns_refuse_ids_that_are_not_utf8_strings(bad, message):
    # The first bad id is named; a later one, of another kind, is not reached.
    ids = ["a", bad, 7]
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        FiltrationModel.from_columns(ids, [0.25, 0.5, 0.25], [0, 1, 2], [0, 1, 2])
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        LiftedLaw.from_columns(ids, np.arange(3), np.ones(3), np.zeros(3), np.zeros(3))
    if isinstance(bad, str):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            FiltrationModel([Atom(bad, 1.0, Point2(0, 0))])


def test_from_columns_takes_an_empty_id_and_keeps_ids_as_str():
    m = FiltrationModel.from_columns(["", "b"], [0.5, 0.5], [0, 1], [0, 1])
    assert m.ids() == ("", "b") and all(type(i) is str for i in m.ids())


def test_model_is_immutable_and_indexable():
    m = two_atom_model()
    assert m.ids() == ("a", "b")
    assert (m.f[1], m.g[1]) == (8.0, 8.0)
    with pytest.raises(AttributeError):
        m.atoms = ()
    with pytest.raises(AttributeError):
        m.id_column = m.id_column


def test_event_normalization_merges_touching_and_drops_empty():
    ev = EventF2({"a": [(0.5, 0.5), (0.3, 0.5), (0.0, 0.3)]})
    assert ev.intervals == {"a": ((0.0, 0.5),)}
    assert ev.measure("a") == 0.5
    assert ev.measure("not-there") == 0.0


def test_event_rejects_overlap_and_out_of_range():
    with pytest.raises(InvalidEventError):
        EventF2({"a": [(0.0, 0.5), (0.4, 0.6)]})
    with pytest.raises(InvalidEventError):
        EventF2({"a": [(-0.1, 0.5)]})
    with pytest.raises(InvalidEventError):
        EventF2({"a": [(0.2, 1.2)]})
    with pytest.raises(InvalidEventError):
        EventF2({"a": [(0.5, 0.2)]})
    with pytest.raises(InvalidEventError, match=r"must be \(lo, hi\) pairs"):
        EventF2({"a": [(0.1, 0.2, 0.3)]})
    with pytest.raises(InvalidEventError, match="bounds must be finite"):
        EventF2({"a": [(0.0, math.nan)]})
    with pytest.raises(InvalidEventError, match="must map atom ids"):
        EventF2([("a", [(0.0, 0.5)])])  # type: ignore[arg-type]
    with pytest.raises(InvalidEventError, match="nonempty string"):
        EventF2({"": [(0.0, 0.5)]})


def test_cond_exp_indicator_exact_lengths():
    m = two_atom_model()
    ev = EventF2({"a": [(0.1, 0.25), (0.5, 1.0)], "b": []})
    ce = cond_exp_indicator(m, ev)
    assert type(ce) is dict and list(ce) == ["a", "b"]
    assert ce["a"] == math.fsum([0.25 - 0.1, 1.0 - 0.5])
    assert ce["b"] == 0.0
    with pytest.raises(InvalidEventError):
        cond_exp_indicator(m, EventF2({"zz": [(0.0, 0.5)]}))


@given(t=st.floats(min_value=0.0, max_value=1.0))
def test_b_t_identity_exact(t):
    m = two_atom_model()
    ce = cond_exp_indicator(m, b_t_event(m, t))
    for _, value in ce.items():
        assert value == t


def test_b_t_rejects_bad_t():
    m = two_atom_model()
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(InvalidInputError):
            b_t_event(m, bad)


@given(
    ha=st.floats(min_value=0.0, max_value=1.0),
    hb=st.floats(min_value=0.0, max_value=1.0),
)
def test_u_le_h_identity_exact(ha, hb):
    m = two_atom_model()
    ce = cond_exp_indicator(m, u_le_h_event(m, {"a": ha, "b": hb}))
    assert ce["a"] == ha
    assert ce["b"] == hb


def test_u_le_h_requires_exact_id_set():
    m = two_atom_model()
    with pytest.raises(InvalidInputError):
        u_le_h_event(m, {"a": 0.5})
    with pytest.raises(InvalidInputError):
        u_le_h_event(m, {"a": 0.5, "b": 0.5, "c": 0.5})
    with pytest.raises(InvalidInputError):
        u_le_h_event(m, {"a": 0.5, "b": 1.5})
    with pytest.raises(InvalidInputError, match="h must map atom ids"):
        u_le_h_event(m, [("a", 0.5), ("b", 0.5)])  # type: ignore[arg-type]


def test_atomless_split_strict_and_measurable():
    m = two_atom_model()
    ev = EventF2({"a": [(0.0, 0.5), (0.7, 0.9)], "b": [(0.25, 0.75)]})
    sub = atomless_split(m, ev)
    for atom_id in ("a", "b"):
        full = ev.measure(atom_id)
        half = sub.measure(atom_id)
        assert 0.0 < half < full
    # The empty event splits to the empty event.
    assert atomless_split(m, EventF2({})).intervals == {}


def test_atomless_split_rejects_one_ulp_interval():
    m = two_atom_model()
    lo = 0.5
    hi = math.nextafter(lo, 1.0)
    with pytest.raises(InvalidEventError):
        atomless_split(m, EventF2({"a": [(lo, hi)]}))


@given(
    breaks=st.lists(
        st.floats(min_value=0.001, max_value=0.999), min_size=2, max_size=8
    )
)
def test_atomless_split_random_events(breaks):
    m = two_atom_model()
    pts = sorted(set(breaks))
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    pairs = [(lo, hi) for lo, hi in pairs if hi - lo > 1e-12]
    if not pairs:
        return
    ev = EventF2({"a": pairs})
    sub = atomless_split(m, ev)
    assert 0.0 < sub.measure("a") < ev.measure("a")


def test_raw_words_random_access():
    # Any slice of the stream equals the same rows of the full stream.
    base = raw_words(123, 0, 64)
    for start, count in [(0, 8), (3, 5), (4, 12), (17, 40)]:
        assert raw_words(123, start, count).tolist() == base[start : start + count].tolist()
    assert raw_words(123, 0, 0).size == 0
    u = uniforms(123, 0, 1000)
    assert float(u.min()) >= 0.0 and float(u.max()) < 1.0


def test_raw_words_pin_the_philox_stream():
    # The keyed stream itself, word for word: a key of 2^130 + 5 is reduced
    # to 128 bits, and a start of 3 drops three words of the first block.
    words = raw_words(123, 0, 8)
    assert words.dtype == np.uint64
    assert words.tolist() == [
        9537063319652977059, 3390518576182089146, 3926154546752916123, 3873248160020931364,
        6692778500501327886, 1961065181241252318, 17084198493701737436, 8511904755730521554]
    assert raw_words(2**130 + 5, 3, 4).tolist() == [
        8178605492699859198, 4593217736961924102, 12499342411136185311, 13713093298565872893]


def test_rng_validates():
    with pytest.raises(InvalidInputError):
        raw_words(1, -1, 4)
    with pytest.raises(InvalidInputError):
        raw_words(1, 0, -4)
    with pytest.raises(InvalidInputError):
        raw_words(1.5, 0, 4)  # type: ignore[arg-type]


def _u_pairs(*args, **kwargs):
    return list(zip(*(column.tolist() for column in sample_u_arrays(*args, **kwargs))))


def test_sample_u_deterministic_and_splittable():
    m = two_atom_model()
    full = _u_pairs(m, 20, seed=42)
    assert full == _u_pairs(m, 20, seed=42)
    # Sample i is a pure function of (seed, i): computing the tail directly
    # from its start offset reproduces the full run's tail.
    assert _u_pairs(m, 12, seed=42, start=8) == full[8:]
    assert _u_pairs(m, 20, seed=43) != full


def test_sample_u_marginals():
    weights = [0.15, 0.25, 0.6]
    m = FiltrationModel(
        [Atom(f"w{i}", w, Point2(i, i)) for i, w in enumerate(weights)]
    )
    n = 200_000
    idx, u = sample_u_arrays(m, n, seed=7)
    counts = np.bincount(idx, minlength=3) / n
    for i, w in enumerate(weights):
        se = math.sqrt(w * (1.0 - w) / n)
        assert abs(counts[i] - w) <= 5.0 * se, (i, counts[i], w)
    assert float(u.min()) >= 0.0 and float(u.max()) < 1.0
    # u itself should be uniform: mean within 5 SE of 1/2.
    assert abs(float(u.mean()) - 0.5) <= 5.0 * math.sqrt(1.0 / 12.0 / n)


def test_sample_u_validates():
    m = two_atom_model()
    with pytest.raises(InvalidInputError):
        sample_u_arrays(m, -1, seed=1)
    with pytest.raises(InvalidInputError):
        sample_u_arrays(m, 1, seed=1, start=-1)
    assert _u_pairs(m, 0, seed=1) == []


def _sum_outcome(total, values):
    try:
        return repr(total(values))  # repr tells -0.0 from 0.0, and nan from a number
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


# Values where fsum is special: +-inf and nan, signed zeros, subnormals, and
# finite values whose running sum overflows, which fsum raises on.
_sum_value = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308, 1.7976931348623157e308])


@given(values=st.lists(_sum_value, max_size=30), slice_values=st.one_of(st.integers(1, 7), st.none()))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fsum_column_is_fsum_of_the_whole_list(monkeypatch, values, slice_values):
    # Slices of 1 to 7 values, or the default slice with the drawn values
    # straddling its first boundary.
    if slice_values is None:
        values = [0.5] * (filtration._SUM_SLICE - len(values) // 2) + values
    else:
        monkeypatch.setattr(filtration, "_SUM_SLICE", slice_values)
    column = np.array(values, dtype=np.float64)
    assert _sum_outcome(fsum_column, column) == _sum_outcome(lambda c: math.fsum(c.tolist()), column)
