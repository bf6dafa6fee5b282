"""Normalized gradient flow for mass-constrained energy functionals.

All trap minimizers in the package (Gross-Pitaevskii, the 1D hierarchy, the
two-component variational problem) reduce to the same discrete template

    E[psi] = kin * sum_edges ew_e (psi_r - psi_l)^2
             + sum_i w_i [ V_i psi_i^2 + q(psi_i^2, i) ]

with the mass constraint sum_i w_i psi_i^2 = N.  ``psi`` is the order
parameter (phi, u = r phi, or sqrt(rho)); squaring it keeps densities
nonnegative by construction.

Minimization is an imaginary-time style descent: each step solves the
linearized backward-Euler system (tridiagonal, LAPACK gtsv) and renormalizes;
the step size is grown gently and halved whenever the energy fails to
decrease, so the energy is monotone nonincreasing along the iteration.
Convergence is declared when the Euler-Lagrange residual sup-norm falls
below ``rtol`` times the energy scale and the energy is stationary to 1e-12
relative per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MAX_ITER = 40000
_MAX_POLISH_ROUNDS = 400


@dataclass
class FlowProblem:
    """Discrete constrained functional on a 1D chain of nodes.

    nodes    coordinate of each unknown
    w        norm/quadrature weight per node (sum w psi^2 = N)
    kin      scalar in front of the edge sum
    ew       edge weights, length n+1; ew[0]/ew[n] couple to zero ghosts
             (set to 0.0 for a no-flux boundary)
    V        external potential per node
    q, dq    interaction energy density and its derivative in y = psi^2,
             signature (y_array, nodes) -> array
    mass     constraint value N
    """

    nodes: np.ndarray
    w: np.ndarray
    kin: float
    ew: np.ndarray
    V: np.ndarray
    q: Callable
    dq: Callable
    mass: float

    def __post_init__(self):
        n = len(self.nodes)
        self.w = np.asarray(self.w, dtype=float)
        self.ew = np.asarray(self.ew, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if len(self.ew) != n + 1:
            raise ValueError("need n+1 edge weights")
        # A is the SPD kinetic matrix: psi^T A psi = kin * sum ew (dpsi)^2
        self._diag = self.kin * (self.ew[:-1] + self.ew[1:])
        self._off = -self.kin * self.ew[1:-1]
        self._diag_w = self._diag / self.w

    # --- quadratic form pieces ------------------------------------------
    def kinetic(self, psi: np.ndarray) -> float:
        d_in = psi[1:] - psi[:-1]
        e = self.kin * float(np.sum(self.ew[1:-1] * d_in**2))
        e += self.kin * float(self.ew[0] * psi[0] ** 2 + self.ew[-1] * psi[-1] ** 2)
        return e

    def energy_parts(self, psi: np.ndarray):
        y = psi**2
        kin = self.kinetic(psi)
        trap = float(np.sum(self.w * self.V * y))
        inter = float(np.sum(self.w * self.q(y, self.nodes)))
        return kin, trap, inter

    def energy(self, psi: np.ndarray) -> float:
        return sum(self.energy_parts(psi))

    def gradient(self, psi: np.ndarray) -> np.ndarray:
        """dE/dpsi, exact for the discrete functional."""
        Apsi, g, _ = self.terms(psi)
        return 2.0 * (Apsi + self.w * g * psi)

    def _apply_A(self, psi: np.ndarray) -> np.ndarray:
        out = self._diag * psi
        out[:-1] += self._off * psi[1:]
        out[1:] += self._off * psi[:-1]
        return out

    def terms(self, psi: np.ndarray):
        """(A psi, g = V + q'(psi^2), lam) at ``psi``: every Euler-Lagrange
        piece one flow iterate reads, each evaluated once."""
        y = psi**2
        Apsi = self._apply_A(psi)
        g = self.V + self.dq(y, self.nodes)
        lam = (float(psi @ Apsi) + float(np.sum(self.w * g * y))) / self.mass
        return Apsi, g, lam

    def residual(self, psi: np.ndarray, terms) -> float:
        """Sup-norm of the Euler-Lagrange defect at ``psi``, normalized by
        sup|psi|; ``terms`` = ``self.terms(psi)``."""
        Apsi, g, lam = terms
        defect = Apsi / self.w + g * psi - lam * psi
        return float(np.max(np.abs(defect)) / max(np.max(np.abs(psi)), 1e-300))

    def normalize(self, psi: np.ndarray) -> np.ndarray:
        m = float(np.sum(self.w * psi**2))
        if m <= 0:
            raise ValueError("cannot normalize zero state")
        return psi * math.sqrt(self.mass / m)


@dataclass
class FlowResult:
    psi: np.ndarray
    energy: float
    mu_chem: float
    residual: float
    iterations: int
    converged: bool
    max_energy_increase: float  # largest accepted uphill move (fp noise scale)
    rejected_steps: int         # step halvings, failed solves included
    polish_rounds: int = 0      # rounds of the residual endgame (0: not run)


def _implicit_step(prob: FlowProblem, psi: np.ndarray, terms,
                   dt: float) -> np.ndarray | None:
    """One normalized backward-Euler step of the linearized flow.

    Solves M trial = psi with M = I + dt (W^-1 A + diag(g - lam)), where
    ``terms`` = ``prob.terms(psi)`` = (A psi, g, lam), by LAPACK ``gtsv`` on
    the three diagonals, and renormalizes; returns None when an entry of M
    or psi is not finite, M is singular, or the normalization fails.
    """
    from scipy.linalg.lapack import dgtsv
    _, g, lam = terms
    d = 1.0 + dt * (prob._diag_w + (g - lam))
    off = dt * prob._off
    du = off / prob.w[:-1]
    dl = off / prob.w[1:]
    if not all(np.isfinite(a).all() for a in (dl, d, du, psi)):
        return None
    # the diagonals are temporaries; psi stays intact for a rejected trial
    *_, trial, info = dgtsv(dl, d, du, psi, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1, overwrite_b=0)
    if info != 0:
        return None
    try:
        return prob.normalize(trial)
    except ValueError:
        return None


def minimize_flow(prob: FlowProblem, psi0: np.ndarray | None = None,
                  rtol: float = 1e-9) -> FlowResult:
    """Run the normalized semi-implicit descent to the constrained minimum."""
    n = len(prob.nodes)
    if psi0 is None:
        psi = np.exp(-np.linspace(0, 4, n) ** 2)
        psi = psi + 0.05
    else:
        psi = np.array(psi0, dtype=float)
    psi = prob.normalize(psi)
    e = prob.energy(psi)
    terms = prob.terms(psi)
    scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
    dt = 1.0 / scale
    max_up = 0.0
    stagnant = 0
    rejected = 0
    for it in range(1, _MAX_ITER + 1):
        trial = _implicit_step(prob, psi, terms, dt)
        e_new = math.nan if trial is None else prob.energy(trial)
        if not np.isfinite(e_new) or e_new > e + 1e-14 * max(1.0, abs(e)):
            dt *= 0.5
            rejected += 1
            if dt < 1e-18 / scale:
                break
            continue
        if e_new > e:
            max_up = max(max_up, e_new - e)
        de = abs(e_new - e)
        psi, e = trial, e_new
        terms = prob.terms(psi)
        dt = min(dt * 1.1, 1e4 / scale)
        stagnant = stagnant + 1 if de <= 1e-12 * max(1.0, abs(e)) else 0
        if stagnant >= 1:
            res = prob.residual(psi, terms)
            scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
            if res <= rtol * scale:
                return FlowResult(psi, e, terms[2], res, it, True, max_up,
                                  rejected)
            if stagnant >= 25 or res <= 1e4 * rtol * scale:
                # energy is stationary to rounding but the EL defect is not
                # yet at tolerance; finish with the inverse-iteration endgame
                psi, terms, res, extra = _polish(prob, psi, terms, res, rtol,
                                                 scale)
                e = prob.energy(psi)
                return FlowResult(psi, e, terms[2], res, it + extra,
                                  res <= rtol * scale, max_up, rejected, extra)
    res = prob.residual(psi, terms)
    scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
    return FlowResult(psi, e, terms[2], res, it, res <= rtol * scale, max_up,
                      rejected)


def _polish(prob: FlowProblem, psi: np.ndarray, terms, res: float, rtol: float,
            scale: float):
    """Residual-driven endgame: the same backward-Euler update with a large
    step acts as shifted inverse iteration on the frozen linearization;
    steps are accepted only when the Euler-Lagrange residual drops.
    ``terms`` and ``res`` belong to ``psi``, and so do the ones returned."""
    dt = 1e6 / scale
    for rounds in range(1, _MAX_POLISH_ROUNDS + 1):
        if res <= rtol * scale:
            break
        trial = _implicit_step(prob, psi, terms, dt)
        if trial is None:
            dt *= 0.1
            continue
        trial_terms = prob.terms(trial)
        res_new = prob.residual(trial, trial_terms)
        if np.isfinite(res_new) and res_new < res:
            psi, terms, res = trial, trial_terms, res_new
            dt = min(dt * 2.0, 1e12 / scale)
        else:
            dt *= 0.1
            if dt < 1e-6 / scale:
                break
    return psi, terms, res, rounds


# --- grid builders --------------------------------------------------------

def radial_u_problem(rmax: float, n: int, mu: float, V: Callable,
                     q, dq, mass: float) -> FlowProblem:
    """3D radial problem in the u = r*phi representation.

    Nodes r_i = i h, i = 1..n; u(0) = 0 and u(rmax + h) = 0 ghosts.  The
    norm is 4 pi int u^2 dr, the kinetic term 4 pi mu int u'^2 dr (exact
    transform of int |grad phi|^2 d^3x), and local terms carry weight
    4 pi h.
    """
    h = rmax / (n + 1)
    r = h * np.arange(1, n + 1)
    w = 4.0 * math.pi * h * np.ones(n)
    ew = np.full(n + 1, 1.0 / h)
    return FlowProblem(r, w, 4.0 * math.pi * mu, ew, np.asarray(V(r), dtype=float),
                       q, dq, mass)


def radial_cell_problem(rmax: float, n: int, mu: float, V: Callable,
                        q, dq, mass: float) -> FlowProblem:
    """2D radial problem on a cell-centered grid (phi itself).

    Nodes r_i = (i + 1/2) h; the flux through r = 0 vanishes identically
    (no-flux inner boundary), Dirichlet ghost at rmax.
    """
    h = rmax / (n + 0.5)
    r = h * (np.arange(n) + 0.5)
    omega = 2.0 * math.pi
    w = omega * r * h
    edges = h * np.arange(n + 1)          # edge radii, edge 0 at r=0
    ew = edges / h
    ew[0] = 0.0
    return FlowProblem(r, w, omega * mu, ew, np.asarray(V(r), dtype=float),
                       q, dq, mass)


def line_problem(zmax: float, n: int, kappa: float, V: Callable,
                 q, dq, mass: float) -> FlowProblem:
    """Symmetric 1D problem on (-zmax, zmax) with Dirichlet ghosts."""
    h = 2.0 * zmax / (n + 1)
    z = -zmax + h * np.arange(1, n + 1)
    w = h * np.ones(n)
    ew = np.full(n + 1, 1.0 / h)
    return FlowProblem(z, w, kappa, ew, np.asarray(V(z), dtype=float),
                       q, dq, mass)
