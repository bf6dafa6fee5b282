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

numpy and ``flows`` are imported inside the functions that build arrays or
run a flow, so the closed-form TF energies load neither: ``tf_solve``
samples its profile only when something reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from . import flows

# points at which tf_solve samples its closed-form profile
_TF_GRID = 20000


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
        import numpy as np
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

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,phi,rho\n")
            for r, p, d in zip(self.grid, self.phi, self.rho):
                fh.write(f"{float(r)!r},{float(p)!r},{float(d)!r}\n")


@dataclass(frozen=True)
class TFProfile:
    """The TF minimizer rho = [mu_TF - r^s]_+ / denom, denom = 8 pi mu c,
    read as a DensityProfile: its samples at ``_TF_GRID`` points of
    [0, 1.05 r_edge] are built on first read."""

    mu_tf: float
    exponent: float
    denom: float

    @cached_property
    def grid(self) -> np.ndarray:
        import numpy as np
        return np.linspace(0.0, 1.05 * self.mu_tf ** (1.0 / self.exponent), _TF_GRID)

    @cached_property
    def rho(self) -> np.ndarray:
        import numpy as np
        return np.maximum(self.mu_tf - self.grid**self.exponent, 0.0) / self.denom

    @cached_property
    def phi(self) -> np.ndarray:
        import numpy as np
        return np.sqrt(self.rho)

    export_csv = DensityProfile.export_csv


@dataclass(frozen=True)
class EnergyReport:
    E_total: float
    kinetic: float
    trap: float
    interaction: float
    mu_chem: float
    residual_gp: float
    quartic_integral: float         # int |phi|^4
    # what the flow did (GP only: TF is exact, and its counters are zero)
    solve: flows.Solve | None = None

    def __post_init__(self):
        total = self.kinetic + self.trap + self.interaction
        if abs(total - self.E_total) > 1e-10 * max(1.0, abs(self.E_total)):
            raise ValueError("energy components do not sum to the total")

    def as_dict(self) -> dict:
        """The report's numbers, with the counters of ``solve``; the gp
        record adds the rest of ``solve``, whose entries may be null or
        text."""
        return {
            "E_total": self.E_total, "kinetic": self.kinetic, "trap": self.trap,
            "interaction": self.interaction, "mu_chem": self.mu_chem,
            "residual_gp": self.residual_gp,
            **{k: getattr(self.solve, k, 0)
               for k in ("iterations", "rejected_steps", "newton_steps")},
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
    # mu_TF of the scaled problem (1, N c), floored at the oscillator scale
    # for weak coupling
    mu_scale = max(_tf_mu(d, 1.0, g, s, problem.mu), 2.0 * d ** 0.5)
    return (50.0 * mu_scale) ** (1.0 / s)


def _build_problem(problem: GPProblem) -> flows.FlowProblem:
    from . import flows
    mu, c = problem.mu, problem.coupling
    rmax = _domain_radius(problem)
    g4 = 4.0 * math.pi * mu * c
    local = lambda y: (g4 * y**2, 2.0 * g4 * y, 2.0 * g4)
    if problem.dimension == 3:
        return flows.sphere_problem(rmax, problem.n_grid, mu, problem.trap,
                                    local, problem.N)
    return flows.cell_problem(2, rmax, problem.n_grid, mu, problem.trap,
                              local, problem.N)


def _initial_guess(problem: GPProblem, fp: flows.FlowProblem) -> np.ndarray:
    """The start of the coarsest grid: TF-shaped at N c >= 10 in a
    homogeneous trap, else Gaussian-like over the node indices."""
    import numpy as np
    g = problem.N * problem.coupling
    if g < 10.0 or not problem.trap.is_homogeneous:
        return np.exp(-np.linspace(0, 4, len(fp.nodes)) ** 2) + 0.05
    # TF-shaped start speeds up the strongly interacting regime considerably
    mu_tf = _tf_mu(problem.dimension, problem.N, problem.coupling,
                   problem.trap.exponent, problem.mu)
    rho0 = np.maximum(mu_tf - problem.trap(fp.nodes), 0.0) \
        / (8.0 * math.pi * problem.mu * problem.coupling)
    return np.sqrt(rho0 + 1e-12 * max(np.max(rho0), 1.0))


def gp_minimize(problem: GPProblem) -> tuple[DensityProfile, EnergyReport]:
    """Minimize the GP functional by ``flows.minimize_nested`` on
    ``problem.n_grid`` nodes; returns the positive minimizer and its energy
    report (components, chemical potential, EL residual, the coarse grids'
    error estimate)."""
    import numpy as np

    from . import flows
    grids, solve = flows.minimize_nested(
        lambda m: _build_problem(replace(problem, n_grid=m)), problem.n_grid,
        lambda fp: _initial_guess(problem, fp), "GP minimization")
    fp, res = grids[-1]
    kin, trap, inter = fp.energy_parts(res.psi)
    quart = inter / (4.0 * math.pi * problem.mu * problem.coupling) \
        if problem.coupling > 0 else float(np.sum(fp.w * res.psi**4))
    report = EnergyReport(res.energy, kin, trap, inter, res.mu_chem,
                          res.residual, quart, solve)
    phi = np.abs(res.psi)
    return DensityProfile(fp.nodes.copy(), phi, phi**2), report


def gp_energy(dimension: int, N: float, coupling: float, mu: float = 1.0,
              trap: TrapPotential = TrapPotential(), n_grid: int = 4096) -> float:
    _, rep = gp_minimize(GPProblem(dimension, N, coupling, mu, trap, n_grid))
    return rep.E_total


def mu_chem_fd(problem: GPProblem) -> float:
    """Chemical potential dE/dN by a central difference at N(1 +- 1e-3):
    two extra solves."""
    dN = 1e-3 * problem.N
    e_plus = gp_energy(problem.dimension, problem.N + dN, problem.coupling,
                       problem.mu, problem.trap, problem.n_grid)
    e_minus = gp_energy(problem.dimension, problem.N - dN, problem.coupling,
                        problem.mu, problem.trap, problem.n_grid)
    return (e_plus - e_minus) / (2.0 * dN)


# --- Thomas-Fermi ----------------------------------------------------------

def _tf_mu(d: int, N: float, coupling: float, s: float, mu: float) -> float:
    """Exact mu_TF of V = r^s: the mass of [m - r^s]_+ / D over R^d is
    omega m^{(d+s)/s} s / (D d (d+s)), D = 8 pi mu c."""
    omega = 4.0 * math.pi if d == 3 else 2.0 * math.pi
    denom = 8.0 * math.pi * mu * coupling
    return float((N * denom * d * (d + s) / (omega * s)) ** (s / (d + s)))


def tf_solve(dimension: int, N: float, coupling: float,
             trap: TrapPotential = TrapPotential(), mu: float = 1.0
             ) -> tuple[TFProfile, EnergyReport, float]:
    """Exact TF minimizer rho = [mu_TF - V]_+/(8 pi mu c) in closed form;
    the profile samples it at ``_TF_GRID`` points of [0, 1.05 r_edge] when
    it is read."""
    if not trap.is_homogeneous:
        raise ValueError("TF solver requires a homogeneous trap")
    if coupling <= 0:
        raise ValueError("TF requires positive coupling")
    s, d = trap.exponent, dimension
    mu_tf = _tf_mu(d, N, coupling, s, mu)
    # the energies are integrals of powers of (mu_TF - r^s); with the
    # normalization they reduce to d N mu_TF/(2s + d) and s N mu_TF/(2s + d)
    trap_e = d * N * mu_tf / (2.0 * s + d)
    inter_e = s * N * mu_tf / (2.0 * s + d)
    # the explicit minimizer satisfies its EL identity exactly: residual 0
    report = EnergyReport(trap_e + inter_e, 0.0, trap_e, inter_e, mu_tf, 0.0,
                          inter_e / (4.0 * math.pi * mu * coupling))
    prof = TFProfile(mu_tf, s, 8.0 * math.pi * mu * coupling)
    return prof, report, mu_tf


def tf_energy(dimension: int, N: float, coupling: float) -> float:
    """E_TF in the harmonic trap."""
    return tf_solve(dimension, N, coupling)[1].E_total


# --- GP -> TF limit ---------------------------------------------------------

def gp_tf_limit_scan(dimension: int, g_list) -> list[dict]:
    """In the harmonic trap (s = 2), for each g: E_GP(1, g), E_TF(1, g) and
    their ratio (3D), or the rescaled ratio E_GP(1, g)/g^{s/(s+2)} vs
    E_TF(1,1) (2D), at mu = 1."""
    rows = []
    for g in g_list:
        e_gp = gp_energy(dimension, 1.0, g)
        if dimension == 3:
            e_tf = tf_energy(3, 1.0, g)
            rows.append({"g": g, "E_GP": e_gp, "E_TF": e_tf,
                         "ratio": e_gp / e_tf})
        else:
            e_tf11 = tf_energy(2, 1.0, 1.0)
            scaled = e_gp / g ** 0.5
            rows.append({"g": g, "E_GP": e_gp, "E_TF11": e_tf11,
                         "scaled": scaled, "ratio": scaled / e_tf11})
    return rows
