"""Small quadrature helpers shared across modules.

Three tools live here: a fixed composite Simpson rule for sampled radial
integrands, a Takahashi-Mori (tanh-sinh) rule for smooth integrands on a
finite interval, and the one Richardson rule for values refined on grids of
step ratio 2.  All are deterministic; no adaptivity beyond doubling the
tanh-sinh level until two successive levels agree.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid, trapezoid fallback on the
    last interval when the point count is even."""
    import numpy as np
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        return 0.0
    if n == 2:
        return 0.5 * (y[0] + y[1]) * (x[1] - x[0])
    h = x[1] - x[0]
    m = n if n % 2 == 1 else n - 1
    s = y[0] + y[m - 1] + 4.0 * np.sum(y[1:m - 1:2]) + 2.0 * np.sum(y[2:m - 2:2])
    out = s * h / 3.0
    if m != n:
        out += 0.5 * (y[-2] + y[-1]) * h
    return float(out)


# tanh_sinh stops once two successive levels agree to this relative tolerance
_TANH_SINH_RTOL = 1e-13
# richardson reports an estimate while the three-grid ratio lies within this
# fraction of 2^order
_ORDER_BAND = 0.25


def tanh_sinh(f, a: float, b: float, level: int = 10) -> float:
    """Integrate ``f`` over the finite interval [a, b] with the tanh-sinh rule.

    The trapezoid step in the transformed variable is halved until two
    successive refinements agree to ``_TANH_SINH_RTOL`` or ``level``
    halvings are done.
    Endpoint singularities integrable in the tanh-sinh sense are handled by
    construction (nodes never touch a or b).
    """
    if a == b:
        return 0.0
    if a > b:
        return -tanh_sinh(f, b, a, level)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    piov2 = 0.5 * math.pi

    def layer(h: float, only_odd: bool) -> float:
        # sum trapezoid contributions at |t| = h, 2h, ... until weights vanish
        total = 0.0
        k = 1 if only_odd else 0
        step = 2 if only_odd else 1
        while True:
            t = k * h
            ch = math.cosh(t)
            sh = piov2 * math.sinh(t)
            w = piov2 * ch / math.cosh(sh) ** 2
            if w < 1e-17 and k > 2:
                break
            u = math.tanh(sh)
            if 1.0 - abs(u) == 0.0:
                break  # node rounded onto an endpoint; weight negligible
            if k == 0:
                contrib = w * f(mid)
            else:
                contrib = w * (f(mid + half * u) + f(mid - half * u))
            total += contrib
            k += step
        return total

    h = 1.0
    acc = layer(h, only_odd=False)
    result = acc * h * half
    for _ in range(level):
        # halving h: old nodes sit at even multiples of the new step
        h *= 0.5
        acc += layer(h, only_odd=True)
        new = acc * h * half
        if abs(new - result) <= _TANH_SINH_RTOL * max(1.0, abs(new)):
            result = new
            break
        result = new
    return result


def richardson(values, order: int):
    """Richardson's rule on the last three of ``values``, refined on grids
    of step ratio 2, coarsest first, whose error is expected to fall as
    h^order.  Returns (extrapolated, estimate, note): estimate = (x1 -
    x2) / (2^order - 1) is the correction to add to the finest value x1,
    and extrapolated = x1 + estimate.  Both are None, with the note saying
    why, unless the three-grid ratio (x4 - x2) / (x2 - x1) lies within
    ``_ORDER_BAND`` of 2^order."""
    x4, x2, x1 = values[-3:]
    ratio = float((x4 - x2) / (x2 - x1)) if x2 != x1 else math.inf
    expected = 2**order
    if not (1.0 - _ORDER_BAND) * expected <= ratio <= (1.0 + _ORDER_BAND) * expected:
        return None, None, (f"three-grid ratio {ratio!r} is not within "
                            f"{_ORDER_BAND * 100:g} % of {expected}")
    estimate = (x1 - x2) / (expected - 1)
    return x1 + estimate, estimate, None
