"""Finite two-level information model on atoms x [0, 1].

The sample space is Omega = A x [0, 1]: a finite set of weighted atoms (the
coarse level, carrying a payoff point each) refined by a uniform coordinate
U on [0, 1] (the fine level).  Coarse-level information knows the atom; the
fine level also knows U.  Events measurable at the fine level are stored per
atom as disjoint unions of closed subintervals of [0, 1], and conditional
expectations given the coarse level reduce to exact interval-length sums.
``FiltrationModel`` stores the coarse level as four read-only columns: the
atom ids, one ``StringDType`` column (:data:`ID_DTYPE`, so numpy >= 2.0, with
no dict index beside it), and the weights and payoffs f and g.  An ``Atom``
object, and the tuple that ``ids()`` returns, are views built on demand.

Two families of events matter downstream:

* ``b_t_event`` puts [0, t] on every atom, so its conditional probability is
  the constant t: the model is conditionally atomless, with a whole
  continuum of events between the empty set and Omega.
* ``u_le_h_event`` puts [0, h(atom)] on each atom, realizing any prescribed
  conditional probability profile h; this is the event {U <= h} used to mix
  two-point laws with exact per-atom weights.

``atomless_split`` halves every interval of an event, producing a sub-event
whose conditional probability is strictly between zero and the original on
every atom that had positive probability.  :func:`draw_atoms` draws (atom,
u) pairs from the product measure through the counter-based word stream, so
sample i is a pure function of (seed, i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidEventError, InvalidInputError
from .geometry import Point2
from .rng import uniforms

__all__ = [
    "Atom",
    "FiltrationModel",
    "EventF2",
    "cond_exp_indicator",
    "b_t_event",
    "u_le_h_event",
    "atomless_split",
    "weight_cum",
    "draw_atoms",
    "sample_u_arrays",
    "frozen_array",
    "fsum_column",
    "id_column",
    "ID_DTYPE",
]

#: Construction-level slack on the total atom weight.  CSV ingestion
#: renormalizes at a much looser 1e-6; after renormalization the float sum
#: of up to ~10^5 weights lands well inside this.
WEIGHT_SUM_TOL = 1e-12

#: The dtype of every atom-id column: UTF-8 text, an id of up to 15 bytes stored
#: inline in 16; an id that is not a ``str`` is refused, not converted.
ID_DTYPE = np.dtypes.StringDType(coerce=False)

#: Values :func:`fsum_column` turns into Python floats at a time; the sum does not depend on it.
_SUM_SLICE = 4096


@dataclass(frozen=True, slots=True)
class Atom:
    """A coarse-level atom: identifier, probability weight, payoff point."""

    id: str
    weight: float
    payoff: Point2

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInputError(f"atom id must be a nonempty string, got {self.id!r}")
        w = float(self.weight)
        if not math.isfinite(w) or not 0.0 < w <= 1.0:
            raise InvalidInputError(f"atom {self.id!r}: weight must be in (0, 1], got {self.weight!r}")
        object.__setattr__(self, "weight", w)
        if not isinstance(self.payoff, Point2):
            raise InvalidInputError(f"atom {self.id!r}: payoff must be a Point2")


def frozen_array(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only array (no copy when already of ``dtype``)."""
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def fsum_column(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` of a 1-d array, fed one slice at a time: the
    same values in the same order, so the same sum or exception, without a list
    of every value."""
    return math.fsum(chain.from_iterable(
        values[lo:lo + _SUM_SLICE].tolist() for lo in range(0, values.size, _SUM_SLICE)))


def id_column(ids) -> np.ndarray:
    """``ids`` as a read-only :data:`ID_DTYPE` column: ``ids`` itself when it
    already is one, else a copy.  Refuses an id that is not a ``str`` or that
    UTF-8 cannot encode (a lone surrogate), naming the first."""
    if isinstance(ids, np.ndarray) and ids.dtype == ID_DTYPE and not ids.flags.writeable:
        return ids
    try:
        column = np.array(ids, dtype=ID_DTYPE)
    except (ValueError, UnicodeEncodeError):  # walk the ids only to name the first bad one
        for atom_id in ids:
            if not isinstance(atom_id, str):
                raise InvalidInputError(f"atom id must be a string, got {atom_id!r}") from None
            try:
                atom_id.encode("utf-8")
            except UnicodeEncodeError:
                raise InvalidInputError(f"atom id {atom_id!r} is not UTF-8 encodable") from None
        raise
    column.flags.writeable = False
    return column


class FiltrationModel:
    """Read-only columns in atom order: ``id_column``, :meth:`weights` summing
    to one, and payoffs ``f``, ``g``.  The columns are the model; :meth:`ids`,
    ``atoms`` and iteration build tuples and :class:`Atom` views from them per
    call."""

    __slots__ = ("id_column", "_weights", "f", "g")

    def __init__(self, atoms: Sequence[Atom]) -> None:
        atoms = tuple(atoms)
        if not all(isinstance(atom, Atom) for atom in atoms):
            raise InvalidInputError("model atoms must be Atom instances")
        self._init([a.id for a in atoms], [a.weight for a in atoms],
                   [a.payoff.x for a in atoms], [a.payoff.y for a in atoms])

    @classmethod
    def from_columns(cls, ids: Sequence[str], weights, f, g) -> FiltrationModel:
        """A model from copies of its columns, under the checks of
        ``FiltrationModel(atoms)`` and :class:`Atom`'s weight and finite payoff
        checks; the ids must be ``str`` that UTF-8 can encode, and unique, but
        may be empty.  A read-only :data:`ID_DTYPE` column is kept, not copied."""
        model = cls.__new__(cls)
        model._init(ids, *(np.array(column, dtype=np.float64) for column in (weights, f, g)))
        return model

    def _init(self, ids: Sequence[str], weights, f, g) -> None:
        ids = id_column(ids)
        if not ids.size:
            raise InvalidInputError("model needs at least one atom")
        weights, f, g = (frozen_array(column) for column in (weights, f, g))
        if not weights.shape == f.shape == g.shape == ids.shape == (ids.size,):
            raise InvalidInputError("model needs one weight, f and g per atom id")
        ok = (weights > 0.0) & (weights <= 1.0) & np.isfinite(f) & np.isfinite(g)
        if not ok.all():
            i = int(np.argmin(ok))
            w, x, y = weights[i].item(), f[i].item(), g[i].item()
            fault = (f"weight must be in (0, 1], got {w!r}" if not 0.0 < w <= 1.0
                     else f"f must be finite, got {x!r}" if not math.isfinite(x) else f"g must be finite, got {y!r}")
            raise InvalidInputError(f"atom {ids[i]!r}: {fault}")
        in_order = np.sort(ids, kind="stable")
        if np.any(in_order[1:] == in_order[:-1]):  # walk the ids only to name the first repeat
            seen: set[str] = set()
            repeat = next(atom_id for atom_id in ids.tolist() if atom_id in seen or seen.add(atom_id))
            raise InvalidInputError(f"duplicate atom id {repeat!r}")
        total = fsum_column(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(f"atom weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "id_column", ids)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FiltrationModel is immutable")

    def __len__(self) -> int:
        return self.id_column.size

    def __iter__(self) -> Iterator[Atom]:
        columns = zip(self.id_column.tolist(), self._weights.tolist(), self.f.tolist(), self.g.tolist())
        return (Atom(atom_id, w, Point2(x, y)) for atom_id, w, x, y in columns)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(self)

    def ids(self) -> tuple[str, ...]:
        return tuple(self.id_column.tolist())

    def weights(self) -> np.ndarray:
        return self._weights


def _normalize_intervals(atom_id: str, raw: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    checked: list[tuple[float, float]] = []
    for pair in raw:
        if len(pair) != 2:
            raise InvalidEventError(f"atom {atom_id!r}: intervals must be (lo, hi) pairs")
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidEventError(f"atom {atom_id!r}: interval bounds must be finite")
        if not 0.0 <= lo <= hi <= 1.0:
            raise InvalidEventError(f"atom {atom_id!r}: need 0 <= lo <= hi <= 1, got ({lo!r}, {hi!r})")
        if lo == hi:
            continue  # zero length carries no probability
        checked.append((lo, hi))
    checked.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in checked:
        if merged and lo < merged[-1][1]:
            raise InvalidEventError(f"atom {atom_id!r}: intervals overlap near {lo!r}")
        if merged and lo == merged[-1][1]:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True, slots=True)
class EventF2:
    """A fine-level event: per-atom disjoint interval unions inside [0, 1].

    Construction normalizes each atom's list (sorts, drops zero-length
    pieces, merges touching neighbors) and rejects overlaps.  Atoms absent
    from the mapping carry the empty set.
    """

    intervals: Mapping[str, tuple[tuple[float, float], ...]]

    def __post_init__(self) -> None:
        if not isinstance(self.intervals, Mapping):
            raise InvalidEventError("intervals must map atom ids to (lo, hi) lists")
        norm: dict[str, tuple[tuple[float, float], ...]] = {}
        for atom_id, raw in self.intervals.items():
            if not isinstance(atom_id, str) or not atom_id:
                raise InvalidEventError(f"atom id must be a nonempty string, got {atom_id!r}")
            pieces = _normalize_intervals(atom_id, tuple(raw))
            if pieces:
                norm[atom_id] = pieces
        object.__setattr__(self, "intervals", norm)

    def measure(self, atom_id: str) -> float:
        """Lebesgue measure of the event's slice over one atom."""
        return math.fsum(hi - lo for lo, hi in self.intervals.get(atom_id, ()))


def _require_known_ids(model: FiltrationModel, event: EventF2) -> None:
    unknown = set(event.intervals) - set(model.ids())
    if unknown:
        raise InvalidEventError(f"event references unknown atom ids {sorted(unknown)!r}")


def cond_exp_indicator(model: FiltrationModel, event: EventF2) -> dict[str, float]:
    """Conditional expectation of the event's indicator given the atom, as
    atom id -> value in model order.

    Exact per-atom interval-length sums; every value lies in [0, 1].
    """
    _require_known_ids(model, event)
    return {atom_id: event.measure(atom_id) for atom_id in model.ids()}


def b_t_event(model: FiltrationModel, t: float) -> EventF2:
    """The event with slice [0, t] on every atom.

    Its conditional probability is identically t, witnessing that the model
    is conditionally atomless: t sweeps a continuum of events from the empty
    set (t=0) to all of Omega (t=1).
    """
    t = float(t)
    if not math.isfinite(t) or not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"t must be in [0, 1], got {t!r}")
    if t == 0.0:
        return EventF2({})
    return EventF2({atom_id: ((0.0, t),) for atom_id in model.ids()})


def u_le_h_event(model: FiltrationModel, h: Mapping[str, float]) -> EventF2:
    """The event {U <= h(atom)} for a per-atom level function h into [0, 1].

    Its conditional probability reproduces h exactly: the slice over atom a
    is [0, h(a)], of length h(a).
    """
    if not isinstance(h, Mapping):
        raise InvalidInputError("h must map atom ids to levels in [0, 1]")
    ids = model.ids()
    missing = set(ids) - set(h)
    if missing:
        raise InvalidInputError(f"h is missing atom ids {sorted(missing)!r}")
    extra = set(h) - set(ids)
    if extra:
        raise InvalidInputError(f"h references unknown atom ids {sorted(extra)!r}")
    out: dict[str, tuple[tuple[float, float], ...]] = {}
    for atom_id in ids:
        level = float(h[atom_id])
        if not math.isfinite(level) or not 0.0 <= level <= 1.0:
            raise InvalidInputError(f"atom {atom_id!r}: level must be in [0, 1], got {h[atom_id]!r}")
        if level > 0.0:
            out[atom_id] = ((0.0, level),)
    return EventF2(out)


def atomless_split(model: FiltrationModel, event: EventF2) -> EventF2:
    """A strict sub-event keeping the left half of each interval.

    On every atom where the event has positive probability, the result's
    probability is strictly between zero and the event's.  Raises when an
    interval is too narrow to split at float resolution (width one ulp).
    """
    _require_known_ids(model, event)
    out: dict[str, list[tuple[float, float]]] = {}
    for atom_id, pieces in event.intervals.items():
        halves: list[tuple[float, float]] = []
        for lo, hi in pieces:
            mid = lo + (hi - lo) / 2.0
            if mid <= lo or mid >= hi:
                raise InvalidEventError(
                    f"atom {atom_id!r}: interval ({lo!r}, {hi!r}) is too narrow to split"
                )
            halves.append((lo, mid))
        out[atom_id] = halves
    return EventF2(out)


def weight_cum(model: FiltrationModel) -> np.ndarray:
    """The running sum of the weights, its top pinned to 1 so that any selector below 1 lands on an atom."""
    cum = np.cumsum(model.weights())
    cum[-1] = 1.0
    return cum


def draw_atoms(cum: np.ndarray, count: int, seed: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Atom indices and uniform draws for samples [start, start+count) of a
    model whose :func:`weight_cum` is ``cum``.  Sample i takes stream words 2i
    (sel) and 2i+1 (u), so it is a pure function of (seed, i), and its atom is
    ``searchsorted(cum, sel, "right")``."""
    if not isinstance(count, int) or count < 0:
        raise InvalidInputError(f"count must be a nonnegative int, got {count!r}")
    if not isinstance(start, int) or start < 0:
        raise InvalidInputError(f"start must be a nonnegative int, got {start!r}")
    sel, u = uniforms(seed, 2 * start, 2 * count).reshape(count, 2).T
    return np.searchsorted(cum, sel, side="right"), u.copy()  # compact, so the selector half is freed


def sample_u_arrays(model: FiltrationModel, count: int, seed: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`draw_atoms` for samples [start, start+count) of ``model``."""
    return draw_atoms(weight_cum(model), count, seed, start)
