"""Charged Bose gas energetics: the Bogolubov quadratic-form bound, Foldy's
high-density law for the one-component gas, the local Bogolubov energy
integral, and the two-component variational problem with its N^{7/5} law.

mu = hbar^2/2m is kept explicit everywhere; the Foldy constant

    I0 = (2/5) (Gamma(3/4)/Gamma(5/4)) (2/(mu pi))^{1/4}

carries mu^{-1/4}, so -I0 nu (nu/ell^3)^{1/4} and the explicit integral form
-2^{1/2} pi^{-3/4} nu (nu/(mu ell^3))^{1/4} * X agree identically, where

    X = int_0^inf (1 + x^4 - x^2 sqrt(2 + x^4)) dx
      = 2^{3/4} sqrt(pi) Gamma(3/4) / (5 Gamma(5/4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .quadrature import tanh_sinh

if TYPE_CHECKING:
    import numpy as np

    from . import flows

# equal bit for bit to scipy.special.gamma(0.75) / gamma(1.25) (math.gamma is
# an ulp off), so that I0 and the x-integral's closed form load no scipy
_GAMMA_RATIO = 1.3519564801345691  # Gamma(3/4)/Gamma(5/4)

# tanh-sinh covers the x-integral on [0, _X_SPLIT] and the local energy's
# k-integral on [0, _K_SPLIT * k_c]; algebraic tails cover the rest
_X_SPLIT = 8.0
_K_SPLIT = 40.0
# the two-component minimizer at mu = 1: flow grid, and the domain radius in
# units of the dilation scale (1/I0)^{4/3}
_DYSON_GRID = 2048
_DYSON_RMAX_FACTOR = 30.0
# Dyson's minimizer at mu = 1: (E*, int |grad Phi|^2, I0 int Phi^{5/2}), by
# Chebyshev collocation on [-150, 150] with 321 intervals (odd: r = 0 is no
# node) and the r^2 weight in the Clenshaw-Curtis sums; ten bordered Newton
# steps on (-Lap phi - (5/4) I0 phi^{3/2} - lambda phi, int phi^2 - 1) from a
# Gaussian of width 3 (1/I0)^{4/3}.  (R, n) = (120, 241) and (200, 321) agree
# to 5e-15 in E*; the tests repeat the solve
_DYSON_UNIT = (-0.0251705878368567, 0.015102352702114127, 0.040272940538970826)


@dataclass(frozen=True)
class BogolubovParams:
    A: float
    B_plus: float
    B_minus: float = 0.0

    def __post_init__(self):
        if self.A < 0 or self.B_plus < 0 or self.B_minus < 0:
            raise ValueError("Bogolubov parameters must be nonnegative")


def bogolubov_bound(p: BogolubovParams) -> float:
    """Sharp lower bound of the paired quadratic form:
    -(A+B) + sqrt((A+B)^2 - B^2) with B = B_plus + B_minus."""
    B = p.B_plus + p.B_minus
    s = p.A + B
    return -s + math.sqrt(max(s * s - B * B, 0.0))


def x_integral_closed_form() -> float:
    return float(2.0**0.75 * math.sqrt(math.pi) * _GAMMA_RATIO / 5.0)


def x_integral_quadrature() -> float:
    """int_0^inf (1 + x^4 - x^2 sqrt(2 + x^4)) dx by tanh-sinh on [0, X]
    plus the algebraic tail: the integrand expands to x^-4/2 - x^-8/2 + ...,
    so the tail contributes 1/(6 X^3) - 1/(14 X^7) + O(X^-11); X = _X_SPLIT."""

    def integrand(x):
        # rewrite to avoid catastrophic cancellation at large x
        x4 = x**4
        root = math.sqrt(2.0 + x4)
        return 1.0 + x4 - x * x * root

    head = tanh_sinh(integrand, 0.0, _X_SPLIT)
    tail = 1.0 / (6.0 * _X_SPLIT**3) - 1.0 / (14.0 * _X_SPLIT**7)
    return head + tail


@dataclass(frozen=True)
class FoldyConstant:
    i0: float
    x_integral: float
    x_integral_quadrature: float


def _i0(mu: float) -> float:
    if mu <= 0:
        raise ValueError("mu must be positive")
    return 0.4 * _GAMMA_RATIO * (2.0 / (mu * math.pi)) ** 0.25


def foldy_constant(mu: float = 1.0) -> FoldyConstant:
    """I0 and the x-integral, each by two independent routes."""
    return FoldyConstant(_i0(mu), x_integral_closed_form(),
                         x_integral_quadrature())


@dataclass(frozen=True)
class FoldyLaw:
    energy_per_particle: float
    i0: float
    infinite_mass_note = "infinite-mass reference scales as -rho^(1/3)"


def foldy_law(rho: float, mu: float = 1.0) -> FoldyLaw:
    """High-density one-component asymptote e0(rho) ~ -I0 rho^{1/4}."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    i0 = _i0(mu)
    return FoldyLaw(-i0 * rho**0.25, i0)


@dataclass(frozen=True)
class LocalEnergy:
    value: float          # radial quadrature of the k-integral
    closed_form: float    # -2^{1/2} pi^{-3/4} nu (nu/(mu ell^3))^{1/4} X
    rel_deviation: float


def local_energy_integral(nu: float, ell: float, mu: float = 1.0) -> LocalEnergy:
    """Leading local Bogolubov energy

    -(1/2)(2 pi)^-3 int [4 pi nu/k^2 + mu ell^3 k^2
                         - sqrt((4 pi nu/k^2 + mu ell^3 k^2)^2 - (4 pi nu/k^2)^2)] d^3k

    by radial quadrature with the k^-4 algebraic tail integrated separately.
    """
    if min(nu, ell, mu) <= 0:
        raise ValueError("nu, ell, mu must be positive")
    kc = (4.0 * math.pi * nu / (mu * ell**3)) ** 0.25  # crossover scale

    def radial(k):
        B = 4.0 * math.pi * nu / k**2
        A = mu * ell**3 * k**2
        s = A + B
        inner = s * s - B * B
        return (s - math.sqrt(max(inner, 0.0))) * k * k

    K = _K_SPLIT * kc
    head = tanh_sinh(radial, 0.0, K, level=11)
    # large-k expansion: integrand*k^2 -> B^2/(2A) k^2 = (4pi nu)^2/(2 mu ell^3) k^-4
    tail_coef = (4.0 * math.pi * nu) ** 2 / (2.0 * mu * ell**3)
    tail = tail_coef / (3.0 * K**3)
    value = -(0.5) * (2.0 * math.pi) ** -3 * 4.0 * math.pi * (head + tail)
    closed = -(2.0**0.5) * math.pi**-0.75 * nu * (nu / (mu * ell**3)) ** 0.25 \
        * x_integral_closed_form()
    rel = abs(value - closed) / abs(closed)
    return LocalEnergy(value, closed, rel)


# --- two-component variational problem -------------------------------------

@dataclass(frozen=True)
class DysonMinimizer:
    mu: float                # the kinetic coefficient the minimizer is for
    grid: np.ndarray
    Phi: np.ndarray
    energy: float            # E_star < 0
    kinetic: float
    attraction: float        # I0 int Phi^{5/2}
    virial_residual: float   # |2 T - (3/4) I0 P| / |E|
    solve: flows.Solve       # what the flow did


def _dyson_flow(mu: float, n: int, rmax: float) -> DysonMinimizer:
    import numpy as np

    from . import flows
    i0 = _i0(mu)

    # E = mu int |grad Phi|^2 - I0 int Phi^{5/2}: q(y) = -I0 y^{5/4}; q'' is
    # infinite at y = 0, where the 2 y q'' the flow reads vanishes
    def local(y):
        pos = np.where(y > 0, y, 1.0)
        return (-i0 * y ** 1.25, -1.25 * i0 * y ** 0.25,
                np.where(y > 0, -0.3125 * i0 * pos ** -0.75, 0.0))

    width = 0.35 * rmax
    grids, solve = flows.minimize_nested(
        lambda m: flows.sphere_problem(rmax, m, mu, lambda r: np.zeros_like(r),
                                       local, mass=1.0), n,
        lambda fp: np.exp(-(fp.nodes / width) ** 2), "two-component minimization")
    fp, res = grids[-1]
    kin, _, inter = fp.energy_parts(res.psi)
    attraction = -inter
    virial = abs(2.0 * kin - 0.75 * attraction) / abs(res.energy)
    return DysonMinimizer(mu, fp.nodes.copy(), np.abs(res.psi), res.energy, kin,
                          attraction, virial, solve)


def dyson_functional_minimize(mu: float = 1.0) -> DysonMinimizer:
    """Minimize mu int |grad Phi|^2 - I0 int Phi^{5/2} over int Phi^2 = 1.

    One flow solve at mu = 1, then the dilation Phi(x) = mu^{-3/2} Psi(x/mu)
    of its minimizer Psi: I0 carries mu^{-1/4}, so E*(mu) = E*(1)/mu exactly.
    Lengths scale by mu, energies by 1/mu; the virial residual (the dilation
    stationarity 2 * kinetic = (3/4) I0 int Phi^{5/2}) and the flow's
    counters carry no units.  RuntimeError if the boundary mass of the
    mu = 1 domain is 1e-12 or more.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    rmax = _DYSON_RMAX_FACTOR * (1.0 / _i0(1.0)) ** (4.0 / 3.0)
    one = _dyson_flow(1.0, _DYSON_GRID, rmax)
    edge_mass = float(one.Phi[-1] ** 2 * one.grid[-1] ** 2 * 4.0 * math.pi
                      * (one.grid[1] - one.grid[0]))
    if edge_mass >= 1e-12:
        raise RuntimeError(f"two-component minimizer: boundary mass "
                           f"{edge_mass:.3e} is >= 1e-12")
    solve = one.solve
    coarse, error = (None if e is None else e / mu
                     for e in (solve.E_coarse, solve.E_discretization_error))
    return DysonMinimizer(
        mu, one.grid * mu, one.Phi * mu ** -1.5, one.energy / mu,
        one.kinetic / mu, one.attraction / mu, one.virial_residual,
        solve._replace(E_coarse=coarse, E_discretization_error=error))


@dataclass(frozen=True)
class TwoComponentEnergy:
    energy: float
    e_star: float
    N: float
    length_scale: float       # gas radius ~ mu N^{-1/5}: lengths scale as mu
    correlation_length: float  # ~ mu N^{-2/5}
    virial_residual: float    # |2 T - (3/4) A| / |E*| of _DYSON_UNIT


def two_component_energy(N: float, mu: float = 1.0) -> TwoComponentEnergy:
    """E0(N) ~ N^{7/5} E*(1)/mu for the two-component gas, from _DYSON_UNIT."""
    if N < 1 or mu <= 0:
        raise ValueError(f"need N >= 1 and mu > 0, got N = {N}, mu = {mu}")
    e_one, kinetic, attraction = _DYSON_UNIT
    return TwoComponentEnergy(N ** 1.4 * (e_one / mu), e_one / mu, N,
                              mu * N ** -0.2, mu * N ** -0.4,
                              abs(2.0 * kinetic - 0.75 * attraction) / abs(e_one))
