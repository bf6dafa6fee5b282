"""Gross-Pitaevskii and Thomas-Fermi theory in radial traps (2D and 3D).

3D GP functional:  int ( mu |grad phi|^2 + V |phi|^2 + 4 pi mu a |phi|^4 ),
with int |phi|^2 = N; the 2D version replaces a by the dimensionless
coupling alpha = 1/|ln(rhobar_N a^2)| (quartic term 4 pi mu alpha |phi|^4,
reducing to the usual mu = 1 form).  Thomas-Fermi drops the gradient term;
its minimizer is [mu_TF - V]_+ / (8 pi mu * coupling) with mu_TF fixed by
normalization.

Scaling laws used throughout: E_GP(N, a) = N E_GP(1, Na) with minimizer
sqrt(N) phi_{1,Na}, and E_TF(1, g) = g^{s/(s+3)} E_TF(1, 1) in 3D for traps
homogeneous of order s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flows
from .rootfind import normalization_root
from .scattering import ScatteringSolution


@dataclass(frozen=True)
class TrapPotential:
    """Radial trap V(r).  homogeneous_power: V = r^s; harmonic: s = 2;
    box: V = 0 with a hard wall at r = side/2."""

    kind: str = "harmonic"
    exponent: float = 2.0
    side: float = 0.0

    def __post_init__(self):
        if self.kind not in ("homogeneous_power", "harmonic", "box"):
            raise ValueError(f"unknown trap kind {self.kind!r}")
        if self.kind == "harmonic":
            object.__setattr__(self, "exponent", 2.0)
        if self.kind == "homogeneous_power" and self.exponent <= 0:
            raise ValueError("homogeneous trap needs exponent s > 0")
        if self.kind == "box" and self.side <= 0:
            raise ValueError("box trap needs a positive side")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "box":
            return np.zeros_like(r)
        return r ** self.exponent

    @property
    def is_homogeneous(self) -> bool:
        return self.kind in ("homogeneous_power", "harmonic")


@dataclass(frozen=True)
class GPProblem:
    dimension: int
    N: float
    coupling: float     # a in 3D, alpha in 2D
    mu: float = 1.0
    trap: TrapPotential = TrapPotential()
    n_grid: int = 4096
    rtol: float = 1e-9

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.N <= 0:
            raise ValueError("N must be positive")
        if self.coupling < 0:
            raise ValueError("negative coupling not supported")


@dataclass(frozen=True)
class DensityProfile:
    grid: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    mass: float
    dimension: int

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,phi,rho\n")
            for r, p, d in zip(self.grid, self.phi, self.rho):
                fh.write(f"{float(r)!r},{float(p)!r},{float(d)!r}\n")


@dataclass(frozen=True)
class EnergyReport:
    E_total: float
    kinetic: float
    trap: float
    interaction: float
    mu_chem: float
    residual_gp: float
    iterations: int = 0
    rejected_steps: int = 0         # flow step halvings
    polish_rounds: int = 0          # rounds of the flow's residual endgame
    quartic_integral: float = 0.0   # int |phi|^4

    def __post_init__(self):
        total = self.kinetic + self.trap + self.interaction
        if abs(total - self.E_total) > 1e-10 * max(1.0, abs(self.E_total)):
            raise ValueError("energy components do not sum to the total")

    def as_dict(self) -> dict:
        return {
            "E_total": self.E_total, "kinetic": self.kinetic, "trap": self.trap,
            "interaction": self.interaction, "mu_chem": self.mu_chem,
            "residual_gp": self.residual_gp, "iterations": self.iterations,
            "rejected_steps": self.rejected_steps,
            "polish_rounds": self.polish_rounds,
            "quartic_integral": self.quartic_integral,
        }


def _domain_radius(problem: GPProblem) -> float:
    """Truncation radius: where V reaches ~50x the chemical-potential scale.

    Depends on (dimension, trap, N*coupling) only, which keeps the grid
    covariant under the GP scaling (N, c) -> (1, N c).
    """
    trap = problem.trap
    if trap.kind == "box":
        return 0.5 * trap.side
    g = max(problem.N * problem.coupling, 0.0)
    s = trap.exponent
    d = problem.dimension
    # TF estimate of mu (exact for the harmonic 3D case), floor at the
    # oscillator scale for weak coupling
    mu_tf_est = _tf_mu_estimate(d, s, g, problem.mu)
    mu_scale = max(mu_tf_est, 2.0 * d ** 0.5)
    return (50.0 * mu_scale) ** (1.0 / s)


def _tf_mu_estimate(d: int, s: float, g: float, mu: float) -> float:
    if g <= 0:
        return 0.0
    # normalization integral of [m - r^s]_+ over R^d gives m^{(d+s)/s} times
    # a beta-type constant; solved for m with unit constant
    return (8.0 * math.pi * mu * g) ** (s / (s + d))


def _build_problem(problem: GPProblem) -> flows.FlowProblem:
    mu, c = problem.mu, problem.coupling
    rmax = _domain_radius(problem)
    g4 = 4.0 * math.pi * mu * c
    if problem.dimension == 3:
        # u = r phi: quartic term 4 pi mu a int u^4 / r^2 dr (per measure 4 pi dr)
        q = lambda y, r: g4 * y**2 / r**2
        dq = lambda y, r: 2.0 * g4 * y / r**2
        return flows.radial_u_problem(rmax, problem.n_grid, mu, problem.trap,
                                      q, dq, problem.N)
    q = lambda y, r: g4 * y**2
    dq = lambda y, r: 2.0 * g4 * y
    return flows.radial_cell_problem(rmax, problem.n_grid, mu, problem.trap,
                                     q, dq, problem.N, d=2)


def _profile_from(problem: GPProblem, fp: flows.FlowProblem,
                  psi: np.ndarray) -> DensityProfile:
    if problem.dimension == 3:
        phi = psi / fp.nodes
    else:
        phi = psi.copy()
    return DensityProfile(fp.nodes.copy(), phi, phi**2, problem.N,
                          problem.dimension)


def _initial_guess(problem: GPProblem, fp: flows.FlowProblem) -> np.ndarray | None:
    g = problem.N * problem.coupling
    if g < 10.0 or not problem.trap.is_homogeneous:
        return None
    # TF-shaped start speeds up the strongly interacting regime considerably
    _, _, mu_tf = tf_solve(problem.dimension, problem.N, problem.coupling,
                           problem.trap, problem.mu, n_grid=2000)
    rho0 = np.maximum(mu_tf - problem.trap(fp.nodes), 0.0) \
        / (8.0 * math.pi * problem.mu * problem.coupling)
    psi0 = np.sqrt(rho0 + 1e-12 * max(np.max(rho0), 1.0))
    if problem.dimension == 3:
        psi0 = psi0 * fp.nodes
    return psi0


def gp_minimize(problem: GPProblem, psi0: np.ndarray | None = None
                ) -> tuple[DensityProfile, EnergyReport]:
    """Minimize the GP functional; returns the positive minimizer and its
    energy report (components, chemical potential, EL residual)."""
    fp = _build_problem(problem)
    if psi0 is None:
        psi0 = _initial_guess(problem, fp)
    res = flows.minimize_flow(fp, psi0=psi0, rtol=problem.rtol)
    if not res.converged:
        raise RuntimeError(f"GP minimization did not converge "
                           f"(residual {res.residual:.3e} after {res.iterations} iterations)")
    kin, trap, inter = fp.energy_parts(res.psi)
    quart = inter / (4.0 * math.pi * problem.mu * problem.coupling) \
        if problem.coupling > 0 else _quartic_integral(problem, fp, res.psi)
    report = EnergyReport(res.energy, kin, trap, inter, res.mu_chem,
                          res.residual, res.iterations, res.rejected_steps,
                          res.polish_rounds, quart)
    return _profile_from(problem, fp, np.abs(res.psi)), report


def _quartic_integral(problem: GPProblem, fp: flows.FlowProblem,
                      psi: np.ndarray) -> float:
    if problem.dimension == 3:
        return float(np.sum(fp.w * psi**4 / fp.nodes**2))
    return float(np.sum(fp.w * psi**4))


def gp_energy(dimension: int, N: float, coupling: float, mu: float = 1.0,
              trap: TrapPotential = TrapPotential(), n_grid: int = 4096) -> float:
    _, rep = gp_minimize(GPProblem(dimension, N, coupling, mu, trap, n_grid))
    return rep.E_total


def mu_chem_fd(problem: GPProblem, delta_rel: float = 1e-3) -> float:
    """Finite-difference chemical potential dE/dN (two extra solves)."""
    dN = delta_rel * problem.N
    e_plus = gp_energy(problem.dimension, problem.N + dN, problem.coupling,
                       problem.mu, problem.trap, problem.n_grid)
    e_minus = gp_energy(problem.dimension, problem.N - dN, problem.coupling,
                        problem.mu, problem.trap, problem.n_grid)
    return (e_plus - e_minus) / (2.0 * dN)


# --- 2D coupling ----------------------------------------------------------

def coupling_2d(N: float, a: float, trap: TrapPotential = TrapPotential(),
                mu: float = 1.0, n_grid: int = 4096) -> float:
    """alpha = 1/|ln(rhobar_N a^2)| with rhobar_N = (1/N) int |phi_{N,1}|^4,
    the mean density of the 2D minimizer at coupling 1."""
    _, rep = gp_minimize(GPProblem(2, N, 1.0, mu, trap, n_grid))
    rhobar = rep.quartic_integral / N
    x = rhobar * a**2
    if x >= 1:
        raise ValueError("need rhobar_N a^2 < 1")
    return 1.0 / abs(math.log(x))


# --- Thomas-Fermi ----------------------------------------------------------

def tf_solve(dimension: int, N: float, coupling: float,
             trap: TrapPotential = TrapPotential(), mu: float = 1.0,
             n_grid: int = 20000) -> tuple[DensityProfile, EnergyReport, float]:
    """Exact TF minimizer rho = [mu_TF - V]_+/(8 pi mu c); mu_TF from a
    monotone root-find on the normalization."""
    if not trap.is_homogeneous:
        raise ValueError("TF solver requires a homogeneous trap")
    if coupling <= 0:
        raise ValueError("TF requires positive coupling")
    s = trap.exponent
    omega = 4.0 * math.pi if dimension == 3 else 2.0 * math.pi
    denom = 8.0 * math.pi * mu * coupling
    gl_x, gl_w = np.polynomial.legendre.leggauss(96)

    def mass(m):
        # int_0^{m^{1/s}} (m - r^s) r^{d-1} dr by Gauss-Legendre (the
        # integrand is analytic, so brentq can resolve mu_TF to ~1e-14)
        if m <= 0:
            return 0.0
        redge = m ** (1.0 / s)
        r = 0.5 * redge * (gl_x + 1.0)
        w = 0.5 * redge * gl_w
        rho = (m - r**s) / denom
        return float(np.sum(w * omega * r ** (dimension - 1) * rho))

    mu_tf = normalization_root(mass, N)

    redge = mu_tf ** (1.0 / s)
    r = np.linspace(0.0, 1.05 * redge, n_grid)
    rho = np.maximum(mu_tf - r**s, 0.0) / denom
    w = omega * r ** (dimension - 1)
    trap_e = float(np.trapezoid(w * r**s * rho, r))
    inter_e = float(np.trapezoid(w * 4.0 * math.pi * mu * coupling * rho**2, r))
    e_tot = trap_e + inter_e
    resid = 0.0  # the explicit minimizer satisfies its EL identity exactly
    report = EnergyReport(e_tot, 0.0, trap_e, inter_e, mu_tf, resid,
                          quartic_integral=float(np.trapezoid(w * rho**2, r)))
    prof = DensityProfile(r, np.sqrt(rho), rho, N, dimension)
    return prof, report, float(mu_tf)


def tf_energy(dimension: int, N: float, coupling: float,
              trap: TrapPotential = TrapPotential(), mu: float = 1.0) -> float:
    return tf_solve(dimension, N, coupling, trap, mu)[1].E_total


# --- energy components in the many-body limit ------------------------------

def energy_components(problem: GPProblem, scattering: ScatteringSolution | float
                      ) -> dict:
    """Limiting split of the many-body energy for a converged GP problem.

    kinetic:     mu int |grad phi|^2 + 4 pi mu a s int phi^4
    trap:        int V phi^2
    interaction: (1 - s) 4 pi mu a int phi^4

    The three sum exactly to E_GP (bookkeeping identity).  ``s`` is the
    kinetic fraction of the zero-energy scattering solution.
    """
    s = scattering if isinstance(scattering, float) else scattering.s
    if s is None:
        raise ValueError("missing kinetic fraction s")
    _, rep = gp_minimize(problem)
    shift = 4.0 * math.pi * problem.mu * problem.coupling * rep.quartic_integral
    kin = rep.kinetic + s * shift
    inter = (1.0 - s) * shift
    return {
        "kinetic": kin, "trap": rep.trap, "interaction": inter,
        "sum": kin + rep.trap + inter, "E_GP": rep.E_total, "s": s,
    }


# --- GP -> TF limit ---------------------------------------------------------

def gp_tf_limit_scan(dimension: int, trap: TrapPotential, g_list,
                     mu: float = 1.0, n_grid: int = 4096) -> list[dict]:
    """For each g: E_GP(1, g), E_TF(1, g) and their ratio (3D), or the
    rescaled ratio E_GP(1, g)/g^{s/(s+2)} vs E_TF(1,1) (2D)."""
    if not trap.is_homogeneous:
        raise ValueError("limit scan requires a homogeneous trap")
    s = trap.exponent
    rows = []
    for g in g_list:
        e_gp = gp_energy(dimension, 1.0, g, mu, trap, n_grid)
        if dimension == 3:
            e_tf = tf_energy(3, 1.0, g, trap, mu)
            rows.append({"g": g, "E_GP": e_gp, "E_TF": e_tf,
                         "ratio": e_gp / e_tf})
        else:
            e_tf11 = tf_energy(2, 1.0, 1.0, trap, mu)
            scaled = e_gp / g ** (s / (s + 2.0))
            rows.append({"g": g, "E_GP": e_gp, "E_TF11": e_tf11,
                         "scaled": scaled, "ratio": scaled / e_tf11})
    return rows
