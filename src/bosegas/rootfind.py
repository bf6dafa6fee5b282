"""Brent's method for a bracketed scalar root.

``brentq`` is a line-by-line port of scipy's C ``brentq``
(scipy/optimize/Zeros/brentq.c, after Brent, "Algorithms for Minimization
without Derivatives", 1973, ch. 4), with the checks of its Python wrapper,
at scipy's smallest ``rtol``.  It takes the same steps in the same
floating-point order, so it returns the same root as
``scipy.optimize.brentq(..., rtol=4 * 2**-52)`` bit for bit, without
importing scipy.optimize (most of a warm query's start-up time).
"""

from __future__ import annotations

import math

# the relative tolerance: scipy's smallest accepted rtol, 4 ulp of 1
_RTOL = 4.0 * 2.0**-52
# scipy's default iteration cap
_MAXITER = 100


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def brentq(f, a: float, b: float, xtol: float = 2e-12) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) have opposite signs,
    to within ``xtol + _RTOL |x|``.

    Returns an endpoint where f is exactly 0.  Raises ValueError when f(a)
    and f(b) have the same sign or f returns NaN, and RuntimeError when
    ``_MAXITER`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf     # C gives inf or NaN here: both bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")

