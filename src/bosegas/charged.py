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
from functools import lru_cache

import numpy as np

from .quadrature import tanh_sinh

# equal bit for bit to scipy.special.gamma(0.75) / gamma(1.25) (math.gamma is
# an ulp off), so that only the two-component flow needs scipy
_GAMMA_RATIO = 1.3519564801345691  # Gamma(3/4)/Gamma(5/4)


@dataclass(frozen=True)
class BogolubovParams:
    A: float
    B_plus: float
    B_minus: float = 0.0

    def __post_init__(self):
        if self.A < 0 or self.B_plus < 0 or self.B_minus < 0:
            raise ValueError("Bogolubov parameters must be nonnegative")


@dataclass(frozen=True)
class ChargedState:
    """One-component gas state: background density rho, kinetic mu, and the
    cell data (nu particles in a box of side ell) for local-energy work."""

    rho: float
    mu: float = 1.0
    nu: float = 0.0
    ell: float = 0.0

    def __post_init__(self):
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")

    @classmethod
    def for_cell(cls, rho: float, ell: float, mu: float = 1.0) -> "ChargedState":
        """Neutral cell at background density rho: nu = rho ell^3."""
        return cls(rho, mu, rho * ell**3, ell)


def bogolubov_bound(p: BogolubovParams) -> float:
    """Sharp lower bound of the paired quadratic form:
    -(A+B) + sqrt((A+B)^2 - B^2) with B = B_plus + B_minus."""
    B = p.B_plus + p.B_minus
    s = p.A + B
    return -s + math.sqrt(max(s * s - B * B, 0.0))


def x_integral_closed_form() -> float:
    return float(2.0**0.75 * math.sqrt(math.pi) * _GAMMA_RATIO / 5.0)


def x_integral_quadrature(x_split: float = 8.0) -> float:
    """int_0^inf (1 + x^4 - x^2 sqrt(2 + x^4)) dx by tanh-sinh on [0, X]
    plus the algebraic tail: the integrand expands to x^-4/2 - x^-8/2 + ...,
    so the tail contributes 1/(6 X^3) - 1/(14 X^7) + O(X^-11)."""

    def integrand(x):
        # rewrite to avoid catastrophic cancellation at large x
        x4 = x**4
        root = math.sqrt(2.0 + x4)
        return 1.0 + x4 - x * x * root

    head = tanh_sinh(integrand, 0.0, x_split)
    tail = 1.0 / (6.0 * x_split**3) - 1.0 / (14.0 * x_split**7)
    return head + tail


@dataclass(frozen=True)
class FoldyConstant:
    i0: float
    x_integral: float
    x_integral_quadrature: float


def foldy_constant(mu: float = 1.0) -> FoldyConstant:
    """I0 and the x-integral, each by two independent routes."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    i0 = 0.4 * _GAMMA_RATIO * (2.0 / (mu * math.pi)) ** 0.25
    return FoldyConstant(i0, x_integral_closed_form(), x_integral_quadrature())


@dataclass(frozen=True)
class FoldyLaw:
    energy_per_particle: float
    i0: float
    infinite_mass_note: str = "infinite-mass reference scales as -rho^(1/3)"


def foldy_law(rho: float, mu: float = 1.0) -> FoldyLaw:
    """High-density one-component asymptote e0(rho) ~ -I0 rho^{1/4}."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    i0 = foldy_constant(mu).i0
    return FoldyLaw(-i0 * rho**0.25, i0)


def fermionic_jellium_form(rho: float, c_tf: float, c_d: float) -> float:
    """C_TF rho^{5/3} - C_D rho^{4/3}; the constants are caller-supplied,
    never baked in."""
    return c_tf * rho ** (5.0 / 3.0) - c_d * rho ** (4.0 / 3.0)


@dataclass(frozen=True)
class LocalEnergy:
    value: float          # radial quadrature of the k-integral
    closed_form: float    # -2^{1/2} pi^{-3/4} nu (nu/(mu ell^3))^{1/4} X
    rel_deviation: float


def local_energy_for_state(state: ChargedState) -> LocalEnergy:
    """Local Bogolubov energy of a neutral cell; leading order is
    -I0 nu (nu/(mu ell^3))^{1/4}."""
    if state.nu <= 0 or state.ell <= 0:
        raise ValueError("state needs cell data (nu, ell)")
    return local_energy_integral(state.nu, state.ell, state.mu)


def local_energy_integral(nu: float, ell: float, mu: float = 1.0,
                          k_split: float = 40.0) -> LocalEnergy:
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

    K = k_split * kc
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
    grid: np.ndarray
    Phi: np.ndarray
    energy: float            # E_star < 0
    kinetic: float
    attraction: float        # I0 int Phi^{5/2}
    virial_residual: float   # |2 T - (3/4) I0 P| / |E|
    iterations: int
    rejected_steps: int      # flow step halvings
    polish_rounds: int       # rounds of the flow's residual endgame


def _dyson_flow(mu: float, n: int, rmax: float) -> DysonMinimizer:
    from . import flows
    i0 = foldy_constant(mu).i0

    # u = r Phi representation: E = 4 pi [ mu int u'^2 - I0 int u^{5/2} r^{-1/2} ]
    def q(y, r):
        return -i0 * y ** 1.25 / np.sqrt(r)

    def dq(y, r):
        return -1.25 * i0 * y ** 0.25 / np.sqrt(r)

    fp = flows.radial_u_problem(rmax, n, mu, lambda r: np.zeros_like(r),
                                q, dq, mass=1.0)
    width = 0.35 * rmax
    psi0 = fp.nodes * np.exp(-(fp.nodes / width) ** 2)
    res = flows.minimize_flow(fp, psi0=psi0, rtol=1e-9)
    if not res.converged:
        raise RuntimeError("two-component minimization did not converge")
    kin, _, inter = fp.energy_parts(res.psi)
    attraction = -inter
    virial = abs(2.0 * kin - 0.75 * attraction) / abs(res.energy)
    phi = res.psi / fp.nodes
    return DysonMinimizer(fp.nodes.copy(), np.abs(phi), res.energy, kin,
                          attraction, virial, res.iterations,
                          res.rejected_steps, res.polish_rounds)


@lru_cache(maxsize=16)
def _dyson_cached(mu: float, n: int, rmax_factor: float) -> DysonMinimizer:
    # natural length from the virial balance: mu/L^2 ~ I0 L^{-3/4} L^... ;
    # for mu = 1 the minimizer sits at scale ~ 60, found by domain expansion
    i0 = foldy_constant(mu).i0
    scale = (mu / i0) ** (4.0 / 3.0)  # dilation balance of the two terms
    rmax = rmax_factor * scale
    for _ in range(6):
        out = _dyson_flow(mu, n, rmax)
        edge_mass = float(out.Phi[-1] ** 2 * out.grid[-1] ** 2 * 4.0 * math.pi
                          * (out.grid[1] - out.grid[0]))
        if edge_mass < 1e-12:
            return out
        rmax *= 1.6
    raise RuntimeError(f"two-component minimizer: boundary mass {edge_mass:.3e}"
                       " is still >= 1e-12 after 6 domains")


def dyson_functional_minimize(mu: float = 1.0, grid: int = 2048,
                              rmax_factor: float = 30.0) -> DysonMinimizer:
    """Minimize mu int |grad Phi|^2 - I0 int Phi^{5/2} over int Phi^2 = 1.

    The domain auto-expands until the boundary mass is below 1e-12, and
    RuntimeError is raised if 6 domains do not get there; the
    lambda-dilation stationarity gives the virial identity
    2 * kinetic = (3/4) I0 int Phi^{5/2}.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return _dyson_cached(float(mu), int(grid), float(rmax_factor))


@dataclass(frozen=True)
class TwoComponentEnergy:
    energy: float
    e_star: float
    N: float
    length_scale: float       # gas radius ~ N^{-1/5}
    correlation_length: float  # ~ N^{-2/5}


def two_component_energy(N: float, mu: float = 1.0) -> TwoComponentEnergy:
    """E0(N) ~ N^{7/5} E_star for the two-component gas."""
    if N < 1:
        raise ValueError("N must be at least 1")
    e_star = dyson_functional_minimize(mu).energy
    return TwoComponentEnergy(N ** 1.4 * e_star, e_star, N,
                              N ** -0.2, N ** -0.4)


def dyson_heuristic_length(N: float) -> float:
    """Scalar minimization of N L^-2 - N (N L^-3)^{1/4} over L; the minimum
    sits at L proportional to N^{-1/5} (the sign of the N^{7/5} law)."""
    Ls = np.geomspace(1e-3, 1e3, 200001)
    f = N / Ls**2 - N * (N / Ls**3) ** 0.25
    return float(Ls[np.argmin(f)])
