import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from bosegas import rootfind
from bosegas.rootfind import brentq

# xtol of onedim.solve_ll_point, and 1e-300, where only rtol ends a search
_XTOLS = [1e-300, 1e-12]


def _outcome(solver, f, a, b, xtol):
    try:
        return solver(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def _corpus(seed, n):
    """Seeded bracketed functions: smooth, kinked, steep, flat-topped and
    stiff shapes, some of which scipy itself fails to converge on."""
    rng = np.random.default_rng(seed)
    for case in range(n):
        r, p = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0)
        a, b = -4.0 - rng.uniform(0.0, 2.0), 4.0 + rng.uniform(0.0, 2.0)
        f = [lambda x, r=r, p=p: math.copysign(abs(x - r) ** p, x - r),
             lambda x, r=r, p=p: math.tanh(p * (x - r)),
             lambda x, r=r, p=p: math.exp(p * x) - math.exp(p * r),
             lambda x, r=r, p=p: math.atan(x - r) * (1.0 + p * x * x),
             lambda x, r=r, p=p: max(min(p * (x - r), 1.0), -1.0)][case % 5]
        yield f, a, b


def _scipy_brentq(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol, rtol=rootfind._RTOL)


@pytest.mark.parametrize("xtol", _XTOLS)
def test_brentq_matches_scipy_bit_for_bit(xtol):
    for f, a, b in _corpus(7, 1500):
        ours = _outcome(brentq, f, a, b, xtol)
        ref = _outcome(_scipy_brentq, f, a, b, xtol)
        assert ours == ref and type(ours) is type(ref)


def test_brentq_endpoint_roots_and_errors(monkeypatch):
    assert brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0)
    monkeypatch.setattr(rootfind, "_MAXITER", 5)
    with pytest.raises(RuntimeError, match="after 5 iterations"):
        brentq(lambda x: math.copysign(abs(x - 0.3) ** 0.2, x - 0.3),
               -1.0, 1.0, xtol=1e-300)
    with pytest.raises(ValueError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)


def test_normalization_root_doubles_the_bracket(normalization_root):
    # mass(mu) = mu^2 reaches 9 first at hi = 4: brentq's root on [0, 4]
    def mass(mu):
        return max(mu, 0.0) ** 2
    ref = scipy_brentq(lambda m: mass(m) - 9.0, 0.0, 4.0, xtol=1e-300,
                       rtol=8.9e-16)
    assert normalization_root(mass, 9.0) == ref
    with pytest.raises(RuntimeError, match="bracket"):
        normalization_root(lambda mu: 0.0, 1.0)
