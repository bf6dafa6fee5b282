"""Small quadrature helpers shared across modules.

Two tools live here: a fixed composite Simpson rule for sampled radial
integrands, and a Takahashi-Mori (tanh-sinh) rule for smooth integrands on a
finite interval.  Both are deterministic; no adaptivity beyond doubling the
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


def tanh_sinh(f, a: float, b: float, level: int = 10, rtol: float = 1e-13) -> float:
    """Integrate ``f`` over the finite interval [a, b] with the tanh-sinh rule.

    The trapezoid step in the transformed variable is halved until two
    successive refinements agree to ``rtol`` or ``level`` halvings are done.
    Endpoint singularities integrable in the tanh-sinh sense are handled by
    construction (nodes never touch a or b).
    """
    if a == b:
        return 0.0
    if a > b:
        return -tanh_sinh(f, b, a, level, rtol)
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
        if abs(new - result) <= rtol * max(1.0, abs(new)):
            result = new
            break
        result = new
    return result
