"""Staircase curve, parallelogram gauge, and scale bookkeeping.

The unit ball here is the closed parallelogram K with vertices (-4,-4),
(-4,-2), (4,2), (4,4): two vertical sides at x = +-4 and two sides of slope
3/4.  Writing s = y - 3x/4 for the skew coordinate, K is exactly
{|x| <= 4, |s| <= 1}, so its Minkowski gauge has the closed form

    gauge(x, y) = max(|x| / 4, |y - 3x/4|).

The dilates K_n = 2^(n-1) K nest, and a monotone staircase curve E threads
through their boundaries.  Stage 1 walks

    (-4,-4) -> (-4,-2) -> (0,0) -> (4,2) -> (4,4)

(vertical, slope 1/2, slope 1/2, vertical), and each stage n >= 2 extends the
walk along K_n: a vertical-then-horizontal hook

    (-2^(n+1), -2^(n+1)) -> (-2^(n+1), -2^n) -> (-2^n, -2^n)

on the negative side, and the mirrored horizontal-then-vertical hook

    (2^n, 2^n) -> (2^(n+1), 2^n) -> (2^(n+1), 2^(n+1))

on the positive side.  Both coordinates are nondecreasing along the whole
walk, which is what makes point sets drawn from E comonotone.

Stages are capped at MAX_STAGE = 1020 (gauge up to 2^1019) so that every
curve coordinate, 2^(stage+1) at worst, stays clear of the float overflow
threshold 2^1024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "MAX_STAGE",
    "GAUGE_CAP",
    "Point2",
    "Segment",
    "SegmentKind",
    "skew_gauge",
    "gauge",
    "gauge_batch",
    "scale_index",
    "scale_index_batch",
    "curve_segments",
    "segment_distance",
    "curve_distance",
    "curve_distance_batch",
    "on_curve",
]

#: Largest supported stage index.
MAX_STAGE = 1020

#: Largest gauge the stage bookkeeping accepts: 2^(MAX_STAGE - 1).
GAUGE_CAP = math.ldexp(1.0, MAX_STAGE - 1)

SegmentKind = Literal["vertical", "horizontal", "slope-half"]

_VALID_KINDS = ("vertical", "horizontal", "slope-half")


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Point2:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite(self.x, "x"))
        object.__setattr__(self, "y", _require_finite(self.y, "y"))

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Segment:
    """A directed curve piece from ``a`` to ``b``, tagged with its stage.

    Both coordinates are nondecreasing from a to b, and ``kind`` names the
    direction: vertical (x constant), horizontal (y constant), or slope-half
    (dy = dx / 2, the two stage-1 pieces through the origin).
    """

    a: Point2
    b: Point2
    kind: SegmentKind
    stage: int

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise InvalidInputError(f"unknown segment kind {self.kind!r}")
        if not isinstance(self.stage, int) or self.stage < 1:
            raise InvalidInputError(f"stage must be a positive int, got {self.stage!r}")
        dx = self.b.x - self.a.x
        dy = self.b.y - self.a.y
        if dx < 0.0 or dy < 0.0 or (dx == 0.0 and dy == 0.0):
            raise InvalidInputError("segment must advance with nondecreasing coordinates")
        ok = (
            (self.kind == "vertical" and dx == 0.0)
            or (self.kind == "horizontal" and dy == 0.0)
            or (self.kind == "slope-half" and dy == dx / 2.0)
        )
        if not ok:
            raise InvalidInputError(f"segment geometry does not match kind {self.kind!r}")


def skew_gauge(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Skew coordinate s = y - 3x/4 and gauge max(|x|/4, |s|), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise InvalidInputError("x and y must have the same shape")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInputError("coordinates must be finite")
    with np.errstate(over="ignore"):  # an overflowed skew is an infinite gauge, past the cap
        s = y - 0.75 * x
    return s, np.maximum(np.abs(x) / 4.0, np.abs(s))


def gauge(p: Point2) -> float:
    """Minkowski gauge of ``p`` for the unit parallelogram K.

    Closed form max(|x|/4, |y - 3x/4|).  Zero exactly at the origin,
    positively homogeneous, and symmetric under p -> -p.
    """
    return float(skew_gauge(p.x, p.y)[1])


def gauge_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`gauge` of every point (x[i], y[i])."""
    return skew_gauge(x, y)[1]


def scale_index(r: float) -> int:
    """Smallest stage n >= 1 whose ball K_n = 2^(n-1) K has gauge radius >= r.

    Equivalently the smallest n >= 1 with r <= 2^(n-1); exact powers of two
    land on their own stage (scale_index(2.0) == 2) and everything in
    (2^(n-2), 2^(n-1)] shares stage n.
    """
    return int(scale_index_batch(r))


def scale_index_batch(r: np.ndarray) -> np.ndarray:
    """:func:`scale_index` of every element of ``r``, as int64."""
    r = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("r must be finite")
    if np.any(r < 0.0):
        raise InvalidInputError("r must be nonnegative")
    if np.any(r > GAUGE_CAP):
        raise InvalidInputError(f"r exceeds the stage cap 2^{MAX_STAGE - 1}")
    # r = m * 2^e exactly, with m in [0.5, 1): r is 2^(e-1) when m == 0.5
    # and lies in (2^(e-1), 2^e) otherwise.  r <= 1 (and r == 0, which
    # frexp splits as 0 * 2^0) lands on stage 1.
    m, e = np.frexp(r)
    return np.maximum(np.where(m == 0.5, e, e + 1), 1).astype(np.int64)


def _require_stage(max_stage: int) -> int:
    if not isinstance(max_stage, int) or isinstance(max_stage, bool):
        raise InvalidInputError(f"max_stage must be an int, got {max_stage!r}")
    if not 1 <= max_stage <= MAX_STAGE:
        raise InvalidInputError(f"max_stage must be in [1, {MAX_STAGE}], got {max_stage}")
    return max_stage


# Every vertex of the MAX_STAGE walk, one (x, y) row each, in walk order:
# the negative hooks (-2^(n+1), -2^(n+1)), (-2^(n+1), -2^n) for n = MAX_STAGE
# down to 2, the five stage-1 vertices, then the negative hooks mirrored
# through the origin.  Segment i runs from row i to row i + 1, and the curve
# through stage k is the middle 4k segments, from segment 2 * (MAX_STAGE - k).
_BIG = np.ldexp(1.0, np.arange(MAX_STAGE, 1, -1) + 1)
_HOOKS = -np.stack([_BIG, _BIG, _BIG, _BIG / 2.0], axis=1).reshape(-1, 2)
_WALK = np.concatenate([_HOOKS, [(-4.0, -4.0), (-4.0, -2.0), (0.0, 0.0), (4.0, 2.0), (4.0, 4.0)], -_HOOKS[::-1]])
_WALK.flags.writeable = False
_WALK_X, _WALK_Y = _WALK.T
# Strictly increasing along the walk; a point's x/2 + y/2 cannot overflow.
_WALK_HALF_SUM = _WALK_X / 2.0 + _WALK_Y / 2.0


def curve_segments(max_stage: int) -> list[Segment]:
    """Directed segments of the staircase curve through stages 1..max_stage.

    Walk order is global: the negative hooks of stages max_stage down to 2,
    then the four stage-1 pieces, then the positive hooks of stages 2 up to
    max_stage.  Segment count is 4 + 4*(max_stage - 1).
    """
    first = 2 * (MAX_STAGE - _require_stage(max_stage))
    walk = _WALK[first:first + 4 * max_stage + 1].tolist()
    stages = [*range(max_stage, 1, -1), 1, 1, *range(2, max_stage + 1)]
    segs: list[Segment] = []
    for i, ((ax, ay), (bx, by)) in enumerate(zip(walk, walk[1:])):
        kind = "vertical" if ax == bx else "horizontal" if ay == by else "slope-half"
        segs.append(Segment(Point2(ax, ay), Point2(bx, by), kind, stages[i // 2]))
    return segs


def _segment_distance(px, py, ax, ay, bx, by) -> np.ndarray:
    """Chebyshev distance from points to segments, broadcast elementwise.

    t -> max(|px - a.x - t*dx|, |py - a.y - t*dy|) is convex piecewise linear
    on [0,1]; its minimum sits at 0, 1, a per-coordinate zero, or a crossing
    |fx| = |fy|, so scanning those candidates, clamped to [0, 1], is exact.
    A zero denominator gives a NaN or infinite candidate, which clamps to 0
    or 1: a candidate already in the scan.  A difference that overflows
    becomes an infinite distance.
    """
    best = None
    with np.errstate(all="ignore"):
        # numpy division, so a zero step yields inf or nan rather than raising
        dx, dy = np.subtract(bx, ax), np.subtract(by, ay)
        rx, ry = px - ax, py - ay
        for t in (0.0, 1.0, rx / dx, ry / dy, (rx - ry) / (dx - dy), (rx + ry) / (dx + dy)):
            t = np.fmin(np.fmax(t, 0.0), 1.0)
            dist = np.maximum(np.abs(rx - t * dx), np.abs(ry - t * dy))
            best = dist if best is None else np.minimum(best, dist)
    return best


def segment_distance(p: Point2, seg: Segment) -> float:
    """Chebyshev (max-coordinate) distance from ``p`` to one segment."""
    return float(_segment_distance(p.x, p.y, seg.a.x, seg.a.y, seg.b.x, seg.b.y))


def curve_distance(p: Point2, max_stage: int) -> float:
    """Chebyshev (max-coordinate) distance from ``p`` to the staircase curve
    restricted to stages 1..max_stage."""
    return float(curve_distance_batch(p.x, p.y, max_stage))


def curve_distance_batch(x: np.ndarray, y: np.ndarray, max_stage: int) -> np.ndarray:
    """:func:`curve_distance` of every point (x[i], y[i]).

    Both coordinates of u = c - p grow as c moves along the walk, so the
    distance max(|ux|, |uy|) equals -min(ux, uy), nonincreasing, while
    ux + uy <= 0, and max(ux, uy), nondecreasing, after: it is reached where
    the anti-diagonal x + y = px + py crosses the walk, or at the walk's
    nearer end when the sum lies outside the walk's range.  Each point is
    measured against that crossing segment, found by binary search on the
    vertex half-sums, and its two walk neighbours, which cover ties at a
    vertex and the rounding of the sum.
    """
    first = 2 * (MAX_STAGE - _require_stage(max_stage))
    x = np.asarray(x, dtype=np.float64)[..., None]
    y = np.asarray(y, dtype=np.float64)[..., None]
    crossing = np.searchsorted(_WALK_HALF_SUM, x / 2.0 + y / 2.0) - 1
    i = np.clip(crossing + np.array([-1, 0, 1]), first, first + 4 * max_stage - 1)
    return _segment_distance(x, y, _WALK_X[i], _WALK_Y[i], _WALK_X[i + 1], _WALK_Y[i + 1]).min(axis=-1)


def on_curve(p: Point2, tol: float = 1e-9) -> bool:
    """Whether ``p`` lies within ``tol`` (Chebyshev) of the staircase curve.

    Points whose gauge exceeds the stage cap are rejected.
    """
    tol = _require_finite(tol, "tol")
    if tol < 0.0:
        raise InvalidInputError(f"tol must be nonnegative, got {tol!r}")
    g = gauge(p)
    if g > GAUGE_CAP:
        raise InvalidInputError(f"gauge {g!r} exceeds the stage cap 2^{MAX_STAGE - 1}")
    return curve_distance(p, MAX_STAGE) <= tol
