"""An independent gauge of the parallelogram K, for the tests to hold the
closed form in :mod:`comolift.geometry` to.

K is the closed parallelogram with vertices (-4,-4), (-4,-2), (4,2), (4,4).
"""

from __future__ import annotations

import math

from comolift.errors import InvalidInputError
from comolift.geometry import Point2

# Vertex hull of K, triangulated for the bisection oracle.  The oracle must
# not share arithmetic with the closed form of comolift.geometry, so membership
# is decided through barycentric coordinates over these two triangles.
_HULL_A = (-4.0, -4.0)
_HULL_B = (-4.0, -2.0)
_HULL_C = (4.0, 2.0)
_HULL_D = (4.0, 4.0)
_HULL_TRIANGLES = ((_HULL_A, _HULL_B, _HULL_D), (_HULL_A, _HULL_D, _HULL_C))
_HULL_EPS = 1e-14


def _in_triangle(px: float, py: float, p0: tuple[float, float],
                 p1: tuple[float, float], p2: tuple[float, float]) -> bool:
    d1x, d1y = p1[0] - p0[0], p1[1] - p0[1]
    d2x, d2y = p2[0] - p0[0], p2[1] - p0[1]
    det = d1x * d2y - d1y * d2x
    qx, qy = px - p0[0], py - p0[1]
    a = (qx * d2y - qy * d2x) / det
    b = (d1x * qy - d1y * qx) / det
    return a >= -_HULL_EPS and b >= -_HULL_EPS and a + b <= 1.0 + _HULL_EPS


def _in_hull(px: float, py: float) -> bool:
    return any(_in_triangle(px, py, *tri) for tri in _HULL_TRIANGLES)


def gauge_oracle(p: Point2, tol: float = 1e-9) -> float:
    """Gauge of ``p`` by bisection on the scale t of "p/t lies in K".

    Membership of p/t in K goes through barycentric coordinates over the two
    triangles spanned by K's vertices, a route that shares no arithmetic with
    the closed form in :func:`comolift.geometry.gauge`.  The bracket is
    doubled until it contains the answer and then bisected; the returned
    scale is within ``tol`` of the true gauge, up to the float spacing at the
    answer's magnitude.
    """
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise InvalidInputError(f"tol must be finite and positive, got {tol!r}")
    if p.x == 0.0 and p.y == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(1100):
        if _in_hull(p.x / hi, p.y / hi):
            break
        lo, hi = hi, hi * 2.0
    else:  # pragma: no cover - unreachable for finite points
        raise InvalidInputError("point too large for the bisection oracle")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _in_hull(p.x / mid, p.y / mid):
            hi = mid
        else:
            lo = mid
    return hi
