"""Closed-form energy bounds for the homogeneous dilute gas, plus the
inequality machinery used to prove them: Temple's bound, the soft-potential
construction, the two radial-line lemmas, and the cell-distribution
combinatorics.

Conventions: mu = hbar^2/2m, Y = 4 pi rho a^3 / 3 (3D diluteness), all
potentials nonnegative with finite range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .scattering import RadialPotential

DYSON_CLASSIC = 1.0 / (10.0 * math.sqrt(2.0))
LOWER_BOUND_C = 8.9
LHY_C1 = 128.0 / (15.0 * math.sqrt(math.pi))
LHY_C2 = 8.0 * (4.0 * math.pi / 3.0 - math.sqrt(3.0))
# occupation numbers the cell-distribution LP enumerates: 0.._CELL_N_MAX
_CELL_N_MAX = 20


@dataclass(frozen=True)
class GasState3D:
    """Homogeneous 3D gas: density rho, scattering length a, kinetic mu."""

    rho: float
    a: float
    mu: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.a <= 0 or self.mu <= 0:
            raise ValueError("rho, a, mu must be positive")

    @property
    def Y(self) -> float:
        return 4.0 * math.pi * self.rho * self.a**3 / 3.0

    @property
    def leading(self) -> float:
        """4 pi mu rho a, the low-density energy scale per particle."""
        return 4.0 * math.pi * self.mu * self.rho * self.a


@dataclass(frozen=True)
class GasState2D:
    rho: float
    a: float
    mu: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.a <= 0 or self.mu <= 0:
            raise ValueError("rho, a, mu must be positive")
        if self.rho * self.a**2 >= 1:
            raise ValueError("2D state must be dilute: rho a^2 < 1")

    @property
    def logY(self) -> float:
        return abs(math.log(self.rho * self.a**2))


# --- 3D bounds -----------------------------------------------------------

def upper_bound_3d(state: GasState3D) -> float:
    """Variational upper bound on e0(rho), energy per particle, in the
    thermodynamic form at b = (4 pi rho/3)^{-1/3}:

        e0 / (4 pi mu rho a) <= (1 - Y^{1/3} + Y^{2/3} - Y/2)/(1 - Y^{1/3})^8.
    """
    y3 = state.Y ** (1.0 / 3.0)
    if y3 >= 1:
        raise ValueError("upper bound requires Y < 1")
    return state.leading * (1.0 - y3 + y3**2 - 0.5 * y3**3) / (1.0 - y3) ** 8


@dataclass(frozen=True)
class LowerBound:
    value: float
    clamped: bool


def lower_bound_3d(state: GasState3D) -> LowerBound:
    """Lower bound 4 pi mu rho a (1 - C Y^{1/17}), C = LOWER_BOUND_C, clamped
    at the trivial bound 0 when the correction exceeds 1."""
    factor = 1.0 - LOWER_BOUND_C * state.Y ** (1.0 / 17.0)
    if factor <= 0.0:
        return LowerBound(0.0, True)
    return LowerBound(state.leading * factor, False)


def dyson_classic_lower_bound(state: GasState3D) -> float:
    """Dyson's 1957 hard-sphere bound: e0 >= 4 pi mu rho a / (10 sqrt 2)."""
    return state.leading * DYSON_CLASSIC


def lhy_reference(state: GasState3D) -> float:
    """Low-density expansion including the (rho a^3)^{1/2} and log terms:

    4 pi mu rho a [1 + (128/15 sqrt(pi)) (rho a^3)^{1/2}
                     + 8(4 pi/3 - sqrt 3)(rho a^3) ln(rho a^3)].
    """
    x = state.rho * state.a**3
    if x >= 1:
        raise ValueError("expansion requires rho a^3 < 1")
    corr = 1.0 + LHY_C1 * math.sqrt(x) + LHY_C2 * x * math.log(x)
    return state.leading * corr


# --- finite-box cell-method bound ---------------------------------------

def k_factor(n: float, ell: float, R: float, R0: float, eps: float,
             a: float) -> float:
    """The cell-method factor K(n, ell) of the Neumann-box lower bound
    (4 pi mu a / ell^3) n(n-1) K(n, ell).

    K = (1-eps) (1-2R/ell)^3 (1 + (4 pi/3)(n/ell^3)(R^3-R0^3))^{-1}
        x (1 - (3/pi) a n / ((R^3-R0^3)(pi eps/ell^2 - 4 a n(n-1)/ell^3)))

    The density n/ell^3 in the third factor restores the first-order
    normalization of the nearest-neighbor expectation.  Returns 0 when the Temple
    denominator is not positive (trivial bound).
    """
    if R <= R0:
        raise ValueError("R must exceed R0")
    dR3 = R**3 - R0**3
    first = (1.0 - eps) * max(0.0, 1.0 - 2.0 * R / ell) ** 3 \
        / (1.0 + (4.0 * math.pi / 3.0) * (n / ell**3) * dR3)
    den = math.pi * eps / ell**2 - 4.0 * a * n * (n - 1.0) / ell**3
    if den <= 0.0:
        return 0.0
    temple_factor = 1.0 - (3.0 / math.pi) * a * n / (dR3 * den)
    return first * max(0.0, temple_factor)


# --- 2D bounds -----------------------------------------------------------

def bounds_2d(state: GasState2D) -> dict:
    """Leading-order 2D bounds, as a dict.

    upper: 2 pi mu rho / (ln(b/a) - pi rho b^2) at its minimizing
    b = (2 pi rho)^{-1/2}; lower: 4 pi mu rho/|ln rho a^2|.  The relative
    error sizes 1/ln(b/a) and |ln rho a^2|^{-1/5} (unit constants) are
    reported as upper_ and lower_error_scale, never folded into the bounds.
    """
    b = (2.0 * math.pi * state.rho) ** -0.5
    # b <= a makes ln(b/a) <= 0, so this check covers it too
    den = math.log(b / state.a) - math.pi * state.rho * b**2
    if den <= 0:
        raise ValueError("ln(b/a) - pi rho b^2 must be positive")
    upper = 2.0 * math.pi * state.mu * state.rho / den
    lower = 4.0 * math.pi * state.mu * state.rho / state.logY
    return {"upper": upper, "lower": lower, "b": b,
            "upper_error_scale": 1.0 / math.log(b / state.a),
            "lower_error_scale": state.logY ** -0.2}


# --- soft potentials and the radial-line lemma ---------------------------

@dataclass(frozen=True)
class SoftPotential:
    """The flat annular potential U_R supported on (R0, R).

    3D: height 3/(R^3 - R0^3), normalized so int U r^2 dr = 1.
    2D: height 1/nu(R) with nu(R) = int_{R0}^{R} ln(r/a) r dr, so that
    int U ln(r/a) r dr = 1.
    """

    R0: float
    R: float
    dimension: int
    height: float
    a: float              # the scattering length of the pair potential

    def __call__(self, r):
        import numpy as np
        r = np.asarray(r, dtype=float)
        return np.where((r > self.R0) & (r < self.R), self.height, 0.0)


def nu_2d(R: float, R0: float, a: float) -> float:
    """nu(R) = (1/4){R^2(ln(R^2/a^2)-1) - R0^2(ln(R0^2/a^2)-1)}."""
    return 0.25 * (R**2 * (math.log(R**2 / a**2) - 1.0)
                   - R0**2 * (math.log(R0**2 / a**2) - 1.0))


def soft_potential(R: float, R0: float, dim: int, a: float) -> SoftPotential:
    if R <= R0:
        raise ValueError("soft potential requires R > R0")
    if dim == 3:
        return SoftPotential(R0, R, 3, 3.0 / (R**3 - R0**3), a)
    if dim == 2:
        if R0 <= a:
            raise ValueError("2D soft potential requires R0 > a")
        return SoftPotential(R0, R, 2, 1.0 / nu_2d(R, R0, a), a)
    raise ValueError("dim must be 2 or 3")


def soft_potential_norm_report(U: SoftPotential) -> float:
    """The defining normalization integral, 1 by construction, in closed
    form: int U r^2 dr = height (R^3 - R0^3)/3 (3D), int U ln(r/a) r dr =
    height nu(R) (2D)."""
    if U.dimension == 3:
        return U.height * (U.R**3 - U.R0**3) / 3.0
    return U.height * nu_2d(U.R, U.R0, U.a)


def dyson_lemma_residual(r: np.ndarray, psi: np.ndarray, v: RadialPotential,
                         U: SoftPotential, R1: float) -> float:
    """Margin of the radial-line inequality, >= 0 when the lemma applies.

    3D:  int_0^{R1} [mu psi'^2 + v psi^2 / 2 - mu a U psi^2] r^2 dr
    2D:  int_0^{R1} [mu psi'^2 + v psi^2 / 2 - mu U psi^2] r dr

    The dimension and the scattering length ``a`` are those of ``U``.
    U must be admissible: supported outside the range of v, with
    int U r^2 dr <= 1 (3D) resp. int U ln(r/a) r dr <= 1 (2D).

    ``r`` must be increasing, so the nodes up to R1 are a prefix of it;
    psi' is ``np.gradient``'s on that prefix and the integral is
    ``np.trapezoid``'s.  U is a strict step on (R0, R), so a node exactly
    on either edge samples it as 0 and costs the quadrature half a cell;
    a grid that resolves U puts its nodes just inside the edges.
    """
    import numpy as np
    mu = 1.0
    if U.R0 < v.core_radius * (1 - 1e-12):
        raise ValueError("U must vanish inside the range of v")
    norm = soft_potential_norm_report(U)
    if norm > 1.0 + 1e-8:
        raise ValueError("U violates its normalization constraint")
    if r.ndim != 1 or r.shape != psi.shape:
        raise ValueError("r and psi must be 1D arrays of one length")
    if np.any(r[1:] <= r[:-1]):
        raise ValueError("r must be increasing")
    n = int(np.searchsorted(r, R1 * (1 + 1e-12), side="right"))
    if n < 2:
        raise ValueError("need two nodes of r up to R1")
    rr, pp = r[:n], psi[:n]
    dp = np.gradient(pp, rr)
    vv = np.asarray(v(rr))
    uu = np.asarray(U(rr))
    if U.dimension == 3:
        integrand = (mu * dp**2 + 0.5 * vv * pp**2 - mu * U.a * uu * pp**2) * rr**2
    else:
        integrand = (mu * dp**2 + 0.5 * vv * pp**2 - mu * uu * pp**2) * rr
    return float(np.trapezoid(integrand, rr))


# --- Temple's inequality --------------------------------------------------

def temple_bound(h_mean: float, h2_mean: float, E1: float) -> float:
    """E0 >= <H> - Var(H)/(E1 - <H>), valid when E1 > <H>."""
    var = h2_mean - h_mean**2
    if var < -1e-12 * max(1.0, h_mean**2):
        raise ValueError("negative variance")
    var = max(0.0, var)
    if E1 <= h_mean:
        raise ValueError("Temple gap violated")
    return h_mean - var / (E1 - h_mean)


# --- cell-distribution combinatorics --------------------------------------

def cell_distribution_min(k: float, p: int) -> tuple[float, float]:
    """Minimize t(t-1) + (k-t)(p-1)/2 over t in [1, k].

    Returns (value, argmin t); for p >= 4k the minimum sits at t = k with
    value k(k-1).
    """
    if p < 1 or k < 1:
        raise ValueError("need k >= 1 and p >= 1")

    def f(t):
        return t * (t - 1.0) + 0.5 * (k - t) * (p - 1.0)

    t_star = (p + 1.0) / 4.0
    candidates = [1.0, float(k)]
    if 1.0 < t_star < k:
        candidates.append(t_star)
    vals = [(f(t), t) for t in candidates]
    best = min(vals)
    return best[0], best[1]


def cell_distribution_brute_force(k: float, p: int) -> float:
    """LP oracle: minimize sum_{n<p} c_n n(n-1) + (1/2) sum_{n>=p} c_n n(p-1)
    over c_n >= 0 with sum c_n = 1 and sum c_n n = k, n <= _CELL_N_MAX.

    The objective and constraints are linear in c, so the optimum sits on a
    vertex supported on at most two occupation numbers; exhaustive pair
    enumeration is exact.
    """
    if k > _CELL_N_MAX:
        raise ValueError(f"mean occupation k exceeds {_CELL_N_MAX}")

    def cost(n):
        return n * (n - 1.0) if n < p else 0.5 * n * (p - 1.0)

    best = math.inf
    ns = range(0, _CELL_N_MAX + 1)
    for n1 in ns:
        if n1 == k:
            best = min(best, cost(n1))
        for n2 in ns:
            if n2 <= n1:
                continue
            # c1 n1 + c2 n2 = k, c1 + c2 = 1
            c2 = (k - n1) / (n2 - n1)
            c1 = 1.0 - c2
            if c1 < -1e-12 or c2 < -1e-12:
                continue
            best = min(best, c1 * cost(n1) + c2 * cost(n2))
    return best


# --- Lemma on x, b in (0,1) ------------------------------------------------

def lemma_xb_margin(x, b, k):
    """Margin of  x^2/|ln x| - 2(b/|ln b|) x k + (b^2/|ln b|)(1 + 1/(2|ln b|)^2) k^2 >= 0
    for 0 < x, b < 1 and k >= 1.  Vectorized; |ln .| evaluated via log1p for
    arguments near 1."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any((x <= 0) | (x >= 1)) or np.any((b <= 0) | (b >= 1)):
        raise ValueError("x and b must lie in (0, 1)")
    if np.any(k < 1):
        raise ValueError("k must be >= 1")
    lx = -np.log1p(x - 1.0)
    lb = -np.log1p(b - 1.0)
    margin = (x**2 / lx - 2.0 * (b / lb) * x * k
              + (b**2 / lb) * (1.0 + 1.0 / (2.0 * lb) ** 2) * k**2)
    return margin if margin.shape else float(margin)
