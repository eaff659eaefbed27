"""Two-point convex decomposition of a plane point along the staircase curve.

A point p = (x, y) with gauge g > 0 gets stage n = scale_index(g), half-width
h = 2^(n-1), and slab width X = 2^(n+1) = 4h.  In the skew coordinate
s = y - 3x/4 the stage guarantee is |s| <= h, and the two endpoints

    e1 = (-X, s - 3h)        e2 = (X, s + 3h)

sit on the stage-n vertical sides of the curve, both with gauge exactly h.
The convex weight lambda = (X - x) / (2X) reconstructs p:

    lambda * e1 + (1 - lambda) * e2 == p      (exactly in real arithmetic)

because the x-equation is an affine identity and the y-parts combine to
s + 3x/4 = y.  Care is taken so the float versions inherit most of that
exactness: lambda divides by the power of two 2^(n+2) and so is exact given
fl(X - x), hits 0 and 1 exactly iff x hits +-X, and the endpoint gauges are
exactly h by Sterbenz subtraction.  The origin lands on stage 1 with
lam = 1/2 and endpoints (-4, -3) and (4, 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import GAUGE_CAP, MAX_STAGE, Point2, scale_index_batch, skew_gauge

__all__ = [
    "Decomposition",
    "decompose",
    "decompose_batch",
]


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Result of :func:`decompose`: stage, convex weight, and both endpoints.

    ``lam`` is the weight of ``e1`` (the endpoint on the negative vertical
    side); ``e2`` carries weight 1 - lam.
    """

    stage: int
    lam: float
    e1: Point2
    e2: Point2

    def __post_init__(self) -> None:
        if not isinstance(self.stage, int) or not 1 <= self.stage <= MAX_STAGE:
            raise InvalidInputError(f"stage must be in [1, {MAX_STAGE}], got {self.stage!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidInputError(f"lam must be in [0, 1], got {self.lam!r}")
        half = math.ldexp(1.0, self.stage - 1)
        if self.e1.x != -4.0 * half or self.e2.x != 4.0 * half:
            raise InvalidInputError("endpoints must sit on the stage's vertical sides")


def decompose(p: Point2) -> Decomposition:
    """Split ``p`` into a convex combination of two staircase-curve points.

    Postconditions (float-exact unless noted): both endpoints lie on the
    stage-n vertical segments of the curve with gauge exactly 2^(n-1);
    lam is in [0, 1], hitting 0 iff p.x == 2^(n+1) and 1 iff p.x == -2^(n+1);
    lam*e1 + (1-lam)*e2 reproduces p to within a few ulp of its magnitude.
    """
    n, lam, e1x, e1y, e2x, e2y = decompose_batch(p.x, p.y)
    return Decomposition(int(n), float(lam), Point2(e1x, e1y), Point2(e2x, e2y))


def decompose_batch(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decompose` of every point (x[i], y[i]).

    Returns (stage, lam, e1x, e1y, e2x, e2y) as arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    s, g = skew_gauge(x, y)
    over = np.ravel(g)[np.ravel(g) > GAUGE_CAP]
    if over.size:
        raise InvalidInputError(f"gauge {float(over[0])!r} exceeds the stage cap 2^{MAX_STAGE - 1}")
    n = scale_index_batch(g)
    half = np.ldexp(1.0, (n - 1).astype(np.int32))
    big = 4.0 * half
    shift = 3.0 * half
    lam = (big - x) / (8.0 * half)
    return n, lam, -big, s - shift, big, s + shift
