"""Per-atom two-point laws whose conditional mean reproduces the payoffs.

``lift`` decomposes every atom's payoff in one :func:`decompose_batch` call
and stores the result as a small discrete law on the staircase curve: two
branches (lam at e1, 1-lam at e2), collapsed to a single branch when lam is
exactly 0 or 1.  Pooled over atoms, the branch points all lie on one
monotone curve, so the lifted pair is comonotone while conditionally
averaging back to the original payoffs.

``LiftedLaw`` is columnar: flat per-branch arrays (owning atom, probability,
x, y) with each atom's branches contiguous, plus the atom ids in law order.
The ``(prob, Point2)`` mapping ``branches``, ``mean``, ``support_points``
and :func:`lifted_norm_bound` are views of those columns, and the mapping is
only built when asked for.  :func:`align_law` matches a law to a model's atom
order; it owns the check that both hold the same atoms.

``sample_lift`` realizes the law through the model's (atom, u) stream: the
sample emits the first branch when u <= (first branch probability), so for a
two-branch atom the first branch fires with probability lam exactly on the
dyadic grid of u.  :func:`sample_branch` is that choice, the one sampler
kernel.  The (atom, u) pairs for a given seed are identical to
``sample_u``'s, which makes sampled output reproducible end to end, and
:func:`sample_chunks` draws the same run in consecutive chunks.

``LiftedLaw`` is deliberately light on validation: it checks shape, not
semantics (probability ranges, curve membership, mean identities), so that
laws loaded from disk, including corrupted ones, are representable and can
be handed to the verifier to judge.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .decomposition import decompose_batch
from .errors import InvalidInputError
from .filtration import FiltrationModel, frozen_array, sample_u_arrays
from .geometry import GAUGE_CAP, Point2, gauge_batch

__all__ = [
    "Branches",
    "LiftedLaw",
    "SamplePair",
    "Samples",
    "NormBoundRow",
    "align_law",
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
_DRAW_CHUNK = 65_536


class LiftedLaw:
    """Per-atom discrete laws, stored as flat read-only branch columns.

    Branch k belongs to the atom at position ``owner[k]`` of
    :meth:`atom_ids` and carries probability ``prob[k]`` at point
    (``x[k]``, ``y[k]``).  Every atom has at least one branch and its
    branches are contiguous, so ``owner`` is nondecreasing.

    ``LiftedLaw(branches)`` builds the columns from a mapping atom id ->
    ((prob, point), ...); :meth:`from_pairs` from per-atom pairs of slots.
    """

    def __init__(self, branches: Mapping[str, Branches]) -> None:
        if not isinstance(branches, Mapping):
            raise InvalidInputError("branches must map atom ids to (prob, point) tuples")
        rows: list[tuple[int, float, float, float]] = []
        for i, (atom_id, branch) in enumerate(branches.items()):
            if not isinstance(atom_id, str) or not atom_id:
                raise InvalidInputError(f"atom id must be a nonempty string, got {atom_id!r}")
            branch = tuple(branch)
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
        self._init(tuple(branches), table[0].astype(np.int64), table[1], table[2], table[3])

    @classmethod
    def from_pairs(cls, atom_ids: Sequence[str], keep: np.ndarray, prob: np.ndarray,
                   x: np.ndarray, y: np.ndarray) -> LiftedLaw:
        """A law from (n, 2) arrays: atom i's branches are its first and
        second slot, (prob[i, j], (x[i, j], y[i, j])), where keep[i, j] holds.

        Unchecked: every row of ``keep`` must hold at least one true slot.
        """
        law = cls.__new__(cls)
        law._init(tuple(atom_ids), np.nonzero(keep)[0], prob[keep], x[keep], y[keep])
        return law

    def _init(self, atom_ids: tuple[str, ...], owner, prob, x, y) -> None:
        self._ids = atom_ids
        self.owner = frozen_array(owner, np.int64)
        self.prob = frozen_array(prob)
        self.x = frozen_array(x)
        self.y = frozen_array(y)

    def atom_ids(self) -> tuple[str, ...]:
        return self._ids

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Column index of each atom's first and last branch, in law order."""
        counts = np.bincount(self.owner, minlength=len(self._ids))
        last = np.cumsum(counts) - 1
        return last - counts + 1, last

    @cached_property
    def branches(self) -> dict[str, Branches]:
        """atom id -> ((prob, point), ...), in law order."""
        first, last = self.ends()
        prob, x, y = self.prob.tolist(), self.x.tolist(), self.y.tolist()
        return {
            atom_id: tuple((prob[k], Point2(x[k], y[k])) for k in range(a, b + 1))
            for atom_id, a, b in zip(self._ids, first.tolist(), last.tolist())
        }

    @cached_property
    def means(self) -> tuple[np.ndarray, np.ndarray]:
        """Probability-weighted mean point of every atom's law, in law order."""
        size = len(self._ids)
        with np.errstate(over="ignore"):  # an overflowed mean is infinite, for the verifier to judge
            mx = np.bincount(self.owner, weights=self.prob * self.x, minlength=size)
            my = np.bincount(self.owner, weights=self.prob * self.y, minlength=size)
        return frozen_array(mx), frozen_array(my)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {atom_id: i for i, atom_id in enumerate(self._ids)}

    def mean(self, atom_id: str) -> tuple[float, float]:
        """Probability-weighted mean point of one atom's law."""
        i = self._position[atom_id]
        return (float(self.means[0][i]), float(self.means[1][i]))

    def support_points(self) -> list[Point2]:
        """All branch points pooled across atoms (duplicates kept)."""
        return [Point2(x, y) for x, y in zip(self.x.tolist(), self.y.tolist())]


class SamplePair(NamedTuple):
    """One draw: the atom, its uniform coordinate, and the emitted point."""

    atom_id: str
    u: float
    xi: float
    eta: float


class Samples(Sequence[SamplePair]):
    """Draws ``start`` to ``start + len - 1`` of a run as read-only columns:
    draw k is atom ``ids[idx[k]]`` at ``u[k]``, emitting the law's branch
    ``branch[k]``, the point (``x[branch[k]]``, ``y[branch[k]]``).  ``xi`` and
    ``eta`` gather those points per read; they are not stored.  An int index,
    negative too, or iteration builds :class:`SamplePair` views; a slice raises
    ``TypeError``, so slice the columns."""

    def __init__(self, ids: tuple[str, ...], idx, u, branch, x, y, start: int = 0) -> None:
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

    def __getitem__(self, k: int) -> SamplePair:
        b = self.branch[k]
        return SamplePair(self.ids[self.idx[k]], float(self.u[k]), float(self.x[b]), float(self.y[b]))


class NormBoundRow(NamedTuple):
    """Norm-bound audit for one atom: worst branch gauge vs. its ceiling."""

    max_branch_gauge: float
    bound: float
    margin: float


def align_law(model: FiltrationModel, law: LiftedLaw) -> np.ndarray:
    """Position in the law of every model atom, in model order.

    Raises unless the law and the model hold the same atom ids.
    """
    ids, law_ids = model.ids(), law.atom_ids()
    if ids == law_ids:
        return np.arange(len(ids))
    if set(ids) != set(law_ids):
        raise InvalidInputError(
            f"law atoms do not match model atoms: missing {sorted(set(ids) - set(law_ids))!r}, "
            f"extra {sorted(set(law_ids) - set(ids))!r}"
        )
    return np.fromiter(map(law._position.__getitem__, ids), dtype=np.int64, count=len(ids))


def lift(model: FiltrationModel) -> LiftedLaw:
    """Decompose every atom's payoff into its two-point law.

    Exact-boundary weights collapse: lam == 0.0 keeps only e2, lam == 1.0
    keeps only e1, so no branch ever carries probability zero.
    """
    try:
        _, lam, e1x, e1y, e2x, e2y = decompose_batch(model.f, model.g)
    except InvalidInputError as exc:
        bad = int(np.argmax(gauge_batch(model.f, model.g) > GAUGE_CAP))
        raise InvalidInputError(f"atom {model.ids()[bad]!r}: {exc}") from exc
    # The slot whose weight is exactly 0 is dropped.
    keep = np.column_stack((lam != 0.0, lam != 1.0))
    return LiftedLaw.from_pairs(model.ids(), keep, np.column_stack((lam, 1.0 - lam)),
                                np.column_stack((e1x, e2x)), np.column_stack((e1y, e2y)))


def sample_table(model: FiltrationModel, law: LiftedLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per model atom, in model order: (threshold, first, last).

    ``first`` and ``last`` index the atom's first and last branch in the law's
    columns, and a draw takes the first branch when u <= threshold.  A
    single-branch atom has first == last and threshold 1.
    """
    position = align_law(model, law)
    first, last = (ends[position] for ends in law.ends())
    wide = last - first > 1
    if np.any(wide):
        atom_id = model.ids()[int(np.argmax(wide))]
        raise InvalidInputError(f"atom {atom_id!r}: sampling needs 1 or 2 branches")
    return np.where(first == last, 1.0, law.prob[first]), first, last


def sample_branch(table: tuple[np.ndarray, np.ndarray, np.ndarray], idx: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """The sampler kernel: the law branch each draw (atom idx[k], u[k]) emits,
    given the model's :func:`sample_table`."""
    threshold, first, last = table
    return np.where(u <= threshold[idx], first[idx], last[idx])


def _draw(model: FiltrationModel, law: LiftedLaw, table, count: int, seed: int, start: int) -> Samples:
    idx, u = sample_u_arrays(model, count, seed, start)
    return Samples(model.ids(), idx, u, sample_branch(table, idx, u), law.x, law.y, start)


def sample_lift_arrays(
    model: FiltrationModel, law: LiftedLaw, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sampler: (atom_index, u, xi, eta, took_first_branch)."""
    table = sample_table(model, law)
    s = _draw(model, law, table, count, seed, 0)
    return s.idx, s.u, s.xi, s.eta, s.branch == table[1][s.idx]


def sample_lift(model: FiltrationModel, law: LiftedLaw, count: int, seed: int) -> Samples:
    """Draw ``count`` comonotone sample pairs from the lifted law.

    Every emitted (xi, eta) is bit-identical to one of its atom's branch
    points; the (atom, u) stream matches ``sample_u`` for the same seed.
    """
    return _draw(model, law, sample_table(model, law), count, seed, 0)


def sample_chunks(model: FiltrationModel, law: LiftedLaw, count: int, seed: int) -> Iterator[Samples]:
    """The draws of ``sample_lift(model, law, count, seed)`` as consecutive
    :class:`Samples` of at most ``_DRAW_CHUNK`` draws.

    The table and the first chunk are made on the call, so a law that does not
    match the model, or a count or seed that ``sample_lift`` refuses, raises
    before anything is written; each later chunk is drawn when it is reached.
    """
    if not isinstance(count, int) or count < 0:
        raise InvalidInputError(f"count must be a nonnegative int, got {count!r}")
    table = sample_table(model, law)
    head = _draw(model, law, table, min(_DRAW_CHUNK, count), seed, 0)
    return chain((head,), (_draw(model, law, table, min(_DRAW_CHUNK, count - start), seed, start)
                           for start in range(_DRAW_CHUNK, count, _DRAW_CHUNK)))


def norm_bound_columns(model: FiltrationModel, law: LiftedLaw) -> tuple[np.ndarray, np.ndarray]:
    """Per model atom, in model order: worst branch gauge and its ceiling
    max(2 * gauge(payoff), 1)."""
    position = align_law(model, law)
    first, _ = law.ends()
    worst = np.maximum.reduceat(gauge_batch(law.x, law.y), first)[position]
    return worst, np.maximum(2.0 * gauge_batch(model.f, model.g), 1.0)


def lifted_norm_bound(model: FiltrationModel, law: LiftedLaw) -> dict[str, NormBoundRow]:
    """Audit gauge(branch point) <= max(2 * gauge(payoff), 1) per atom.

    The margin is bound minus the worst branch gauge; laws built by
    :func:`lift` keep it nonnegative up to float dust.
    """
    worst, bound = norm_bound_columns(model, law)
    return {
        atom_id: NormBoundRow(w, b, b - w)
        for atom_id, w, b in zip(model.ids(), worst.tolist(), bound.tolist())
    }
