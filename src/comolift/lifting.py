"""Per-atom two-point laws whose conditional mean reproduces the payoffs.

Each atom's payoff gets its own small discrete law on the staircase curve:
two branches (lam at e1, 1-lam at e2), collapsed to a single branch when lam
is exactly 0 or 1.  That law is the atom's law-file row ``lam,u1,v1,u2,v2``.
No atom's law depends on another's, so one row kernel, :func:`lift_rows`,
decomposes the payoffs a slice of atoms at a time into their rows, and
:meth:`LiftedLaw.from_rows` reads rows back as a law, for a law file and for
``lift`` alike.  ``lift`` copies each slice's branches into arrays of two
slots per atom, so it holds no more than the law and one slice; the ``lift``
command writes the rows as they are made, so it holds the model and one
slice.  Pooled over atoms, the branch points all lie on one monotone curve,
so the lifted pair is comonotone while conditionally averaging back to the
original payoffs.

``LiftedLaw`` is columnar: flat per-branch arrays (owning atom, probability,
x, y) with each atom's branches contiguous, plus the atom ids in law order as
one read-only string column, shared with the model for a law from ``lift``.
The ``(prob, Point2)`` mapping ``branches``, ``means``, ``support_points``
and :func:`lifted_norm_bound` are views of those columns, and the mapping is
only built when asked for.  :func:`align_law` returns a law in a model's atom
order; it owns the check that the law holds each model atom once, and ranks
a shuffled law by sorting both id columns, with no dict.

``sample_lift`` realizes the law through the model's (atom, u) stream: the
sample emits the first branch when u <= (first branch probability), so for a
two-branch atom the first branch fires with probability lam exactly on the
dyadic grid of u.  :func:`sample_table`, built once per run, is the whole
map from stream words to (atom, branch, point), and :func:`sample_branch` is
the one sampler kernel.  The (atom, u) pairs for a given seed are those of
``sample_u_arrays``, which makes sampled output reproducible end to end, and
:func:`sample_chunks` draws the same run in consecutive chunks.

``LiftedLaw`` is deliberately light on validation: it checks shape, not
semantics (probability ranges, curve membership, mean identities), so that
laws loaded from disk, including corrupted ones, are representable and can
be handed to the verifier to judge.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .decomposition import decompose_batch
from .errors import InvalidInputError
from .filtration import FiltrationModel, atom_guide, draw_atoms, frozen_array, id_column, weight_cum
from .geometry import GAUGE_CAP, Point2, gauge_batch

__all__ = [
    "Branches",
    "LiftedLaw",
    "Samples",
    "NormBoundRow",
    "align_law",
    "lift_rows",
    "lift",
    "sample_table",
    "sample_branch",
    "sample_chunks",
    "sample_lift",
    "sample_lift_arrays",
    "norm_bound_columns",
    "lifted_norm_bound",
]

Branches = tuple[tuple[float, Point2], ...]

#: Draws per :class:`Samples` that :func:`sample_chunks` yields, so a streamed
#: run holds one chunk of draws at a time; the draws do not depend on it.
_DRAW_CHUNK = 16_384
#: Atoms per :func:`lift_rows` slice; the law does not depend on it.
_LIFT_SLICE = 4096


class LiftedLaw:
    """Per-atom discrete laws, stored as flat read-only branch columns.

    Branch k belongs to the atom at position ``owner[k]`` of
    ``id_column`` and carries probability ``prob[k]`` at point
    (``x[k]``, ``y[k]``).  Every atom has at least one branch and its
    branches are contiguous, so ``owner`` is nondecreasing.

    ``LiftedLaw(branches)`` builds the columns from a mapping atom id ->
    ((prob, point), ...), :meth:`from_columns` takes them as they are, and
    :meth:`from_rows` reads them from law-file rows.
    """

    def __init__(self, branches: Mapping[str, Branches]) -> None:
        if not isinstance(branches, Mapping):
            raise InvalidInputError("branches must map atom ids to (prob, point) tuples")
        rows: list[tuple[int, float, float, float]] = []
        for i, (atom_id, branch) in enumerate(branches.items()):
            if not isinstance(atom_id, str) or not atom_id:
                raise InvalidInputError(f"atom id must be a nonempty string, got {atom_id!r}")
            try:
                branch = [tuple(item) for item in branch]
            except TypeError:  # branch, or an item of it, is not iterable
                branch = [()]
            if not branch:
                raise InvalidInputError(f"atom {atom_id!r}: needs at least one branch")
            for item in branch:
                if len(item) != 2 or not isinstance(item[1], Point2):
                    raise InvalidInputError(f"atom {atom_id!r}: branches must be (prob, Point2) pairs")
                prob = float(item[0])
                if not math.isfinite(prob):
                    raise InvalidInputError(f"atom {atom_id!r}: branch probability must be finite")
                rows.append((i, prob, item[1].x, item[1].y))
        table = np.array(rows, dtype=np.float64).reshape(-1, 4).T
        self._init(id_column(tuple(branches)), table[0].astype(np.int64), table[1], table[2], table[3])

    @classmethod
    def from_columns(cls, atom_ids: Sequence[str], owner: np.ndarray, prob: np.ndarray,
                     x: np.ndarray, y: np.ndarray) -> LiftedLaw:
        """A law from its flat branch columns, as the class docstring lays them out.

        Unchecked: ``owner`` must be nondecreasing and name every atom.
        """
        law = cls.__new__(cls)
        law._init(id_column(atom_ids), owner, prob, x, y)
        return law

    @classmethod
    def from_rows(cls, atom_ids: Sequence[str], lam: np.ndarray, u1: np.ndarray, v1: np.ndarray,
                  u2: np.ndarray, v2: np.ndarray) -> LiftedLaw:
        """A law from law-file rows: (lam, 1 - lam) at (u1, v1) and (u2, v2), but
        a row whose points are equal and whose lam is 0 or 1, as the writer stores
        a single branch, is that branch; anything else is kept for the verifier."""
        two = ~((u1 == u2) & (v1 == v2) & ((lam == 0.0) | (lam == 1.0)))
        # Row i's first branch follows the branches of the rows before it; its second, if kept,
        # follows the first.  A collapsed row keeps only its first point, with probability 1.
        first = np.cumsum(two) - two + np.arange(two.size)
        second = first[two] + 1
        owner = np.repeat(np.arange(two.size), 1 + two)
        prob, x, y = np.empty(owner.size), np.empty(owner.size), np.empty(owner.size)
        prob[first], prob[second] = np.where(two, lam, 1.0), 1.0 - lam[two]
        x[first], x[second] = u1, u2[two]
        y[first], y[second] = v1, v2[two]
        return cls.from_columns(atom_ids, owner, prob, x, y)

    def _init(self, atom_ids: np.ndarray, owner, prob, x, y) -> None:
        self.id_column = atom_ids
        self.owner = frozen_array(owner, np.int64)
        self.prob = frozen_array(prob)
        self.x = frozen_array(x)
        self.y = frozen_array(y)

    def ends(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Column index of the first and last branch of each atom at positions
        [lo, hi) of ``id_column`` (all of them by default), in law order:
        ``owner`` is nondecreasing, so each atom's branches are one run."""
        hi = self.id_column.size if hi is None else hi
        bounds = np.searchsorted(self.owner, np.arange(lo, hi + 1))
        return bounds[:-1], bounds[1:] - 1

    @cached_property
    def branches(self) -> dict[str, Branches]:
        """atom id -> ((prob, point), ...), in law order."""
        first, last = self.ends()
        prob, x, y = self.prob.tolist(), self.x.tolist(), self.y.tolist()
        return {
            atom_id: tuple((prob[k], Point2(x[k], y[k])) for k in range(a, b + 1))
            for atom_id, a, b in zip(self.id_column.tolist(), first.tolist(), last.tolist())
        }

    @cached_property
    def means(self) -> tuple[np.ndarray, np.ndarray]:
        """Probability-weighted mean point of every atom's law, in law order."""
        size = self.id_column.size
        with np.errstate(over="ignore"):  # an overflowed mean is infinite, for the verifier to judge
            mx = np.bincount(self.owner, weights=self.prob * self.x, minlength=size)
            my = np.bincount(self.owner, weights=self.prob * self.y, minlength=size)
        return frozen_array(mx), frozen_array(my)

    def support_points(self) -> list[Point2]:
        """All branch points pooled across atoms (duplicates kept)."""
        return [Point2(x, y) for x, y in zip(self.x.tolist(), self.y.tolist())]


class Samples:
    """Draws ``start`` to ``start + len - 1`` of a run as read-only columns:
    draw k is atom ``ids[idx[k]]`` at ``u[k]``, emitting the law's branch
    ``branch[k]``, the point (``x[branch[k]]``, ``y[branch[k]]``).  ``xi`` and
    ``eta`` gather those points per read; they are not stored."""

    def __init__(self, ids: np.ndarray, idx, u, branch, x, y, start: int = 0) -> None:
        self.ids, self.start = ids, start
        self.idx, self.u, self.branch = (frozen_array(c, c.dtype) for c in (idx, u, branch))
        self.x, self.y = frozen_array(x), frozen_array(y)

    @property
    def xi(self) -> np.ndarray:
        return frozen_array(self.x[self.branch])

    @property
    def eta(self) -> np.ndarray:
        return frozen_array(self.y[self.branch])

    def __len__(self) -> int:
        return len(self.u)


class NormBoundRow(NamedTuple):
    """Norm-bound audit for one atom: worst branch gauge vs. its ceiling."""

    max_branch_gauge: float
    bound: float
    margin: float


def align_law(model: FiltrationModel, law: LiftedLaw) -> LiftedLaw:
    """``law`` with its atoms in model order: ``law`` itself when they already
    are, else a copy that keeps each atom's branches in their order.  Raises
    unless the law's atom ids are the model's, each once."""
    ids, law_ids = model.id_column, law.id_column
    if law_ids is ids or np.array_equal(law_ids, ids):
        return law
    # The model's ids are unique, so equal sorted columns make the law's a permutation of them.
    by_model, by_law = np.argsort(ids, kind="stable"), np.argsort(law_ids, kind="stable")
    if not np.array_equal(ids[by_model], law_ids[by_law]):
        ids, law_ids = ids.tolist(), law_ids.tolist()
        raise InvalidInputError(  # a repeated id counts as extra
            f"law atoms do not match model atoms: missing {sorted((Counter(ids) - Counter(law_ids)).elements())!r}, "
            f"extra {sorted((Counter(law_ids) - Counter(ids)).elements())!r}"
        )
    rank = np.empty(ids.size, dtype=np.int64)
    rank[by_law] = by_model
    order = np.argsort(rank[law.owner], kind="stable")
    return LiftedLaw.from_columns(ids, rank[law.owner[order]], law.prob[order], law.x[order], law.y[order])


def _refuse_over_cap(model: FiltrationModel) -> None:
    """Refuse the first atom whose payoff gauge passes the stage cap, naming it."""
    for lo in range(0, len(model), _LIFT_SLICE):
        f, g = model.f[lo:lo + _LIFT_SLICE], model.g[lo:lo + _LIFT_SLICE]
        over = gauge_batch(f, g) > GAUGE_CAP
        if over.any():
            try:
                decompose_batch(f[over], g[over])  # raises, with the cap's one message
            except InvalidInputError as exc:
                raise InvalidInputError(f"atom {model.id_column[lo + int(np.argmax(over))]!r}: {exc}") from exc


def lift_rows(model: FiltrationModel) -> Iterator[tuple[np.ndarray, ...]]:
    """The law-file rows of :func:`lift`, one ``(ids, lam, u1, v1, u2, v2)`` per
    slice of ``_LIFT_SLICE`` atoms, in model order: ``lam``, then e1 (e2 where
    lam == 0), then e2 (e1 where lam == 1), as :meth:`LiftedLaw.from_rows`
    reads them.  An over-cap atom raises on the call; each slice is decomposed
    when it is reached."""
    _refuse_over_cap(model)
    return (_lift_row_slice(model, slice(lo, lo + _LIFT_SLICE)) for lo in range(0, len(model), _LIFT_SLICE))


def _lift_row_slice(model: FiltrationModel, rows: slice) -> tuple[np.ndarray, ...]:
    _, lam, e1x, e1y, e2x, e2y = decompose_batch(model.f[rows], model.g[rows])
    # lam is exactly 0 only at e2 and exactly 1 only at e1: the row repeats the kept point.
    u1, v1 = np.where(lam == 0.0, e2x, e1x), np.where(lam == 0.0, e2y, e1y)
    u2, v2 = np.where(lam == 1.0, e1x, e2x), np.where(lam == 1.0, e1y, e2y)
    return model.id_column[rows], lam, u1, v1, u2, v2


def lift(model: FiltrationModel) -> LiftedLaw:
    """Decompose every atom's payoff into its two-point law, the :func:`lift_rows`
    slices read by :meth:`LiftedLaw.from_rows`: lam exactly 0 or 1 keeps one
    branch, so no branch carries probability zero."""
    # Each slice's branches follow those of the slices before it, in arrays of two
    # slots per atom whose leading part is the law: so lift holds no more than the
    # law and one slice, whether or not atoms collapse.
    n = model.id_column.size
    owner, prob, x, y = np.empty(2 * n, np.int64), np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)
    m = 0
    for lo, rows in zip(range(0, n, _LIFT_SLICE), lift_rows(model)):
        part = LiftedLaw.from_rows(*rows)
        end = m + part.owner.size
        owner[m:end] = part.owner
        owner[m:end] += lo
        prob[m:end], x[m:end], y[m:end] = part.prob, part.x, part.y
        m = end
    return LiftedLaw.from_columns(model.id_column, owner[:m], prob[:m], x[:m], y[:m])


def sample_table(model: FiltrationModel, law: LiftedLaw) -> tuple[np.ndarray, ...]:
    """The sampler's map, built once per run: (threshold, first, last, cum, guide, x, y).

    :func:`draw_atoms` finds each draw's atom in ``cum``, the model's :func:`weight_cum`,
    through ``guide``, its :func:`atom_guide`.
    The draw emits that atom's branch ``first`` when u <= threshold, else ``last``, in the
    columns ``x`` and ``y`` of ``align_law(model, law)``; a single-branch atom has first == last and threshold 1.
    """
    law = align_law(model, law)
    first, last = law.ends()
    wide = last - first > 1
    if np.any(wide):
        atom_id = model.id_column[int(np.argmax(wide))]
        raise InvalidInputError(f"atom {atom_id!r}: sampling needs 1 or 2 branches")
    cum = weight_cum(model)
    return np.where(first == last, 1.0, law.prob[first]), first, last, cum, atom_guide(cum), law.x, law.y


def sample_branch(table: tuple[np.ndarray, ...], idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sampler kernel: the law branch each draw (atom idx[k], u[k]) emits,
    given the model's :func:`sample_table`."""
    threshold, first, last = table[:3]
    return np.where(u <= threshold[idx], first[idx], last[idx])


def _draw(model: FiltrationModel, table, count: int, seed: int, start: int) -> Samples:
    idx, u = draw_atoms(*table[3:5], count, seed, start)
    return Samples(model.id_column, idx, u, sample_branch(table, idx, u), *table[5:], start)


def sample_lift_arrays(
    model: FiltrationModel, law: LiftedLaw, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sampler: (atom_index, u, xi, eta, took_first_branch)."""
    table = sample_table(model, law)
    s = _draw(model, table, count, seed, 0)
    return s.idx, s.u, s.xi, s.eta, s.branch == table[1][s.idx]


def sample_lift(model: FiltrationModel, law: LiftedLaw, count: int, seed: int) -> Samples:
    """Draw ``count`` comonotone sample pairs from the lifted law.

    Every emitted (xi, eta) is bit-identical to one of its atom's branch
    points; the (atom, u) stream matches ``sample_u_arrays`` for the same seed.
    """
    return _draw(model, sample_table(model, law), count, seed, 0)


def sample_chunks(model: FiltrationModel, law: LiftedLaw, count: int, seed: int) -> Iterator[Samples]:
    """The draws of ``sample_lift(model, law, count, seed)`` as consecutive
    :class:`Samples` of at most ``_DRAW_CHUNK`` draws, all through one table.

    The table and the first chunk are made on the call, so a law that does not
    match the model, or a count or seed that ``sample_lift`` refuses, raises
    before anything is written; each later chunk is drawn when it is reached.
    """
    if not isinstance(count, int) or count < 0:
        raise InvalidInputError(f"count must be a nonnegative int, got {count!r}")
    table = sample_table(model, law)
    head = _draw(model, table, min(_DRAW_CHUNK, count), seed, 0)
    return chain((head,), (_draw(model, table, min(_DRAW_CHUNK, count - start), seed, start)
                           for start in range(_DRAW_CHUNK, count, _DRAW_CHUNK)))


def norm_bound_columns(model: FiltrationModel, law: LiftedLaw) -> tuple[np.ndarray, np.ndarray]:
    """Per model atom, in model order: worst branch gauge and its ceiling
    max(2 * gauge(payoff), 1).

    A :func:`lift` branch has gauge exactly 2^(stage-1), never above the
    ceiling: the stage is 1 for gauge(payoff) <= 1, and above 1 the stage
    guarantee 2^(stage-2) < gauge(payoff) gives 2^(stage-1) < 2 * gauge(payoff).
    """
    law = align_law(model, law)
    worst = np.maximum.reduceat(gauge_batch(law.x, law.y), law.ends()[0])
    return worst, np.maximum(2.0 * gauge_batch(model.f, model.g), 1.0)


def lifted_norm_bound(model: FiltrationModel, law: LiftedLaw) -> dict[str, NormBoundRow]:
    """Audit gauge(branch point) <= max(2 * gauge(payoff), 1) per atom.

    The margin is bound minus the worst branch gauge; laws built by
    :func:`lift` keep it nonnegative up to float dust.
    """
    worst, bound = norm_bound_columns(model, law)
    return {
        atom_id: NormBoundRow(w, b, b - w)
        for atom_id, w, b in zip(model.id_column.tolist(), worst.tolist(), bound.tolist())
    }
