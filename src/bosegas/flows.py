"""Normalized gradient flow for mass-constrained energy functionals.

All trap minimizers in the package (Gross-Pitaevskii, the 1D hierarchy, the
two-component variational problem) reduce to the same discrete template

    E[psi] = kin * sum_edges ew_e (psi_r - psi_l)^2
             + sum_i w_i [ V_i psi_i^2 + q(psi_i^2) ]

with the mass constraint sum_i w_i psi_i^2 = N.  ``psi`` is the order
parameter (phi, or sqrt(rho) in 1D); squaring it keeps densities
nonnegative by construction.  The geometry lives in the grid builder's
weights alone: the local term q is a function of the density y = psi^2.

Minimization starts as an imaginary-time style descent: each step solves
the linearized backward-Euler system (tridiagonal, LAPACK's dgtsv) and
renormalizes; the step size grows by x1.5 (``_DT_GROWTH``) after an
accepted step and is halved whenever the energy fails to decrease, so the
energy is monotone nonincreasing along the descent.  Each trial iterate is
evaluated once (``FlowProblem.evaluate``): one call of ``local``, which
returns q, q' and q'', gives both the energy the step is judged by and, if
it is accepted, every piece the next step reads.  After every accepted
step the descent measures the sup-norm of the Euler-Lagrange residual;
once it is below 1e-2 times the energy scale max(|lam|, |E|/N), Newton's
method on the Euler-Lagrange equation and the mass constraint takes over.
The Newton matrix is the flow's tridiagonal plus diag(2 psi^2 q''(psi^2)),
q'' read from the iterate's evaluation, bordered by psi; Keller's bordering
solves it with one gtsv call on two right-hand sides.  A Newton step is
kept only if it lowers the residual.  Convergence is declared when the
residual falls below ``_RTOL`` times the energy scale.  If Newton stalls
first, the descent resumes from the last kept iterate and hands off again
at a 100x lower level, at most twice; after that the result is reported as
not converged.  ``FlowResult.newton_steps`` counts the Newton steps tried.

Every tridiagonal system goes through ``_solve``, and every one is solved
by LAPACK's ``dgtsv`` algorithm: by ``_gtsv``, its op-for-op replica on
Python floats, until the process has solved ``_SCIPY_AFTER`` = 2^19 rows
times right-hand sides, and by scipy's ``dgtsv`` after that.  Importing
``scipy.linalg.lapack`` costs 0.20-0.25 s and ~27 MB, the replica 0.33-0.5
us per row and right-hand side, so the switch sits at their break-even: a
one-shot CLI call never loads scipy, and a long batch pays for it once.
The two give the same bits, assuming LAPACK was built without fused
multiply-adds (the replica's reference test checks it), so no result
depends on which one ran.

``minimize_nested`` is how every trap minimizer runs the flow: nested
iteration (A. Brandt, Math. Comp. 31, 333 (1977)), coarse grids first.  It
halves n while the next grid keeps at least ``_COARSEST`` nodes, solves the
coarsest grid from the caller's start and each finer grid from the coarser
minimizer, interpolated onto it.  A finer grid then takes one descent step
and one or two Newton steps.  The coarse energies come for free, and with
them Richardson's h^2 estimate of the n-grid energy's discretization error.
What the cascade did, its counters summed over the grids and that
estimate, is one ``Solve`` record, which every trap result carries.
``minimize_nested`` returns every grid's problem and result, coarsest first, with that record,
and raises the one "did not converge" error, naming the caller's problem,
unless the n grid converged.

``sphere_problem`` builds the 3D radial grid; ``cell_problem`` the
cell-centred grid of the 2D radial problem and of the even 1D problems,
which it solves on the half line.  Both have no flux through 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import richardson

_MAX_ITER = 40000
# residual / energy scale at which the descent hands off to Newton: first
# 1e-2 (1e-1 stalls on some ``full`` solves), then, after each Newton stall,
# 100x lower; a stall at the last level is final
_HANDOFF_LEVELS = (1e-2, 1e-4, 1e-6)
# a safety cap: from the first level Newton takes 2-4 steps
_MAX_NEWTON_STEPS = 20
# the descent step grows by this factor after each accepted step (x2.0
# draws so many rejections that gp1d needs more steps than at x1.1)
_DT_GROWTH = 1.5
# the descent step stays within [_DT_MIN, _DT_MAX] / energy scale
_DT_MIN, _DT_MAX = 1e-18, 1e4
# converged: residual below _RTOL times the energy scale
_RTOL = 1e-9
# minimize_nested halves n while the next grid keeps at least this many nodes
_COARSEST = 256
# _solve runs the dgtsv replica until this process has solved this many rows
# times right-hand sides, then scipy's dgtsv (the import's break-even)
_SCIPY_AFTER = 2**19
_rows_solved = 0


@dataclass
class FlowProblem:
    """Discrete constrained functional on a 1D chain of nodes.

    nodes    coordinate of each unknown
    w        norm/quadrature weight per node (sum w psi^2 = N)
    kin      scalar in front of the edge sum
    ew       edge weights, length n+1; ew[0]/ew[n] couple to zero ghosts
             (set to 0.0 for a no-flux boundary)
    V        external potential per node
    local    y -> (q, q', q''): the interaction energy density in the
             density y = psi^2 and its two derivatives, from one evaluation
             (a constant q'' may be a scalar); only 2 y q'' enters (the
             Newton step), so q'' may be 0 where y = 0 and it is infinite
    mass     constraint value N

    The off-diagonals of W^-1 A must be finite: building a problem whose
    off-diagonals are not raises ValueError.
    """

    nodes: np.ndarray
    w: np.ndarray
    kin: float
    ew: np.ndarray
    V: np.ndarray
    local: Callable
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
        with np.errstate(all="ignore"):
            self._diag_w = self._diag / self.w
            finite = (np.isfinite(self._off / self.w[:-1]).all()
                      and np.isfinite(self._off / self.w[1:]).all())
        if not finite:
            raise ValueError("the off-diagonals of W^-1 A are not finite")

    # --- quadratic form pieces ------------------------------------------
    # the reductions below are ndarray methods: on grids of a few hundred
    # nodes np.sum's dispatch costs more than the sum, which is the same
    def kinetic(self, psi: np.ndarray) -> float:
        d_in = psi[1:] - psi[:-1]
        e = self.kin * float((self.ew[1:-1] * d_in**2).sum())
        e += self.kin * float(self.ew[0] * psi[0] ** 2 + self.ew[-1] * psi[-1] ** 2)
        return e

    def _energy_parts(self, psi, y, q):
        kin = self.kinetic(psi)
        trap = float((self.w * self.V * y).sum())
        inter = float((self.w * q).sum())
        return kin, trap, inter

    def energy_parts(self, psi: np.ndarray):
        y = psi**2
        return self._energy_parts(psi, y, self.local(y)[0])

    def _apply_A(self, psi: np.ndarray) -> np.ndarray:
        out = self._diag * psi
        out[:-1] += self._off * psi[1:]
        out[1:] += self._off * psi[:-1]
        return out

    def evaluate(self, psi: np.ndarray):
        """(E, terms) at ``psi`` from one square and one call of ``local``:
        the energy, the sum of ``energy_parts``, and terms = (A psi,
        g = V + q'(psi^2), lam, q''(psi^2)), every piece a flow or Newton
        step from ``psi`` reads."""
        y = psi**2
        q, dq, d2q = self.local(y)
        Apsi = self._apply_A(psi)
        g = self.V + dq
        lam = (float(psi @ Apsi) + float((self.w * g * y).sum())) / self.mass
        return sum(self._energy_parts(psi, y, q)), (Apsi, g, lam, d2q)

    def defect(self, psi: np.ndarray, terms) -> np.ndarray:
        """Euler-Lagrange defect W^-1 A psi + (g - lam) psi at ``psi``;
        ``terms`` are those of ``self.evaluate(psi)``."""
        Apsi, g, lam, _ = terms
        return Apsi / self.w + g * psi - lam * psi

    def residual(self, psi: np.ndarray, terms) -> float:
        """Sup-norm of the Euler-Lagrange defect at ``psi``, normalized by
        sup|psi|; ``terms`` are those of ``self.evaluate(psi)``."""
        return float(np.abs(self.defect(psi, terms)).max()
                     / max(np.abs(psi).max(), 1e-300))

    def normalize(self, psi: np.ndarray) -> np.ndarray:
        m = float((self.w * psi**2).sum())
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
    newton_steps: int           # Newton steps tried, refused ones included


def _gtsv(dl: list, d: list, du: list, cols: list) -> bool:
    """LAPACK's ``dgtsv`` (the netlib reference algorithm; E. Anderson et
    al., *LAPACK Users' Guide*, SIAM 1999) on Python floats, op for op:
    Gaussian elimination with partial pivoting on the tridiagonal with
    sub-, main and superdiagonal ``dl``, ``d``, ``du``, then back
    substitution through the two superdiagonals of U.  Each right-hand side
    in ``cols``, a list of floats, is replaced by its solution.  Returns
    False where LAPACK returns info > 0 (an exactly zero pivot), and where
    it divides by zero and returns inf or NaN: that takes a NaN pivot, so
    entries near the overflow threshold, and a flow step rejects such a
    solution as it rejects a failed solve.

    The elimination is done once and recorded (the factor and whether rows
    were swapped), then replayed on each right-hand side: every operation on
    a right-hand side reads only that column and the factors, so each gets
    the bits of LAPACK's interleaved loop.  The Fortran special-cases the
    last elimination step (I = N-1, no second superdiagonal to fill) and the
    first back-substitution row (no B(I+2) term); here an exact +0.0 stands
    for the missing superdiagonal entry and for B(N+1), so both steps
    compute what the Fortran does: x - (+0.0) is x for every x.
    """
    diag, sup, sup2, fac, swap = [], [], [], [], []
    dcur, ucur = d[0], du[0]
    try:
        for low, dnext, unext in zip(dl, d[1:], du[1:] + [0.0]):
            if abs(dcur) >= abs(low):
                if dcur == 0.0:
                    return False
                f = low / dcur
                diag.append(dcur)
                sup.append(ucur)
                sup2.append(0.0)
                dcur = dnext - f * ucur
                ucur = unext
                swap.append(False)
            else:                       # interchange rows i and i+1
                f = dcur / low
                diag.append(low)
                sup.append(dnext)
                sup2.append(unext)
                dcur = ucur - f * dnext
                ucur = -f * unext
                swap.append(True)
            fac.append(f)
        if dcur == 0.0:
            return False
        for rows in (diag, sup, sup2):
            rows.reverse()
        for j, b in enumerate(cols):
            y, cur = [], b[0]
            for f, swapped, nxt in zip(fac, swap, b[1:]):
                if swapped:
                    y.append(nxt)
                    cur = cur - f * nxt
                else:
                    y.append(cur)
                    cur = nxt - f * cur
            x0, x1 = cur / dcur, 0.0
            x = [x0]
            y.reverse()
            for yi, ui, li, di in zip(y, sup, sup2, diag):
                x0, x1 = (yi - ui * x0 - li * x1) / di, x0
                x.append(x0)
            x.reverse()
            cols[j] = x
    except ZeroDivisionError:
        return False
    return True


def _solve(prob: FlowProblem, d, rhs, dt: float = 1.0) -> np.ndarray | None:
    """Tridiagonal solve with diagonal ``d`` and the off-diagonals of
    dt W^-1 A, leaving ``rhs`` intact; None when an entry of ``d`` or
    ``rhs`` is not finite or the matrix is singular.  The off-diagonals of
    W^-1 A were checked when ``prob`` was built, and dt is within the
    descent's bounds, so dt W^-1 A needs no check.

    The solver is ``_gtsv``, LAPACK's ``dgtsv`` on Python floats, while
    ``_rows_solved``, the rows times right-hand sides this process has
    solved, this call's included, is at most ``_SCIPY_AFTER``; after that
    it is scipy's ``dgtsv``, imported on first use.  2^19 is the break-even
    of the 0.20-0.25 s import against the replica's 0.33-0.5 us per row and
    right-hand side.  A ``gp`` call solves ~3e4 rows, ``regimes`` 2e4 and
    ``verify``'s worker 2.2e5, so none of them loads scipy; a batch of a
    few dozen trap minimizations switches once and pays the import once.
    The two give the same bits provided LAPACK was built without fused
    multiply-adds, which the replica's reference test in
    ``tests/test_flows.py`` checks.
    """
    global _rows_solved
    if not (np.isfinite(d).all() and np.isfinite(rhs).all()):
        return None
    off = dt * prob._off
    du = off / prob.w[:-1]
    dl = off / prob.w[1:]
    _rows_solved += rhs.size
    if _rows_solved > _SCIPY_AFTER:
        from scipy.linalg.lapack import dgtsv
        *_, x, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1, overwrite_b=0)
        return x if info == 0 else None
    # a 2-column rhs is Fortran-ordered, as LAPACK returns it, so that each
    # solution column is contiguous and later dot products sum alike
    cols = [rhs.tolist()] if rhs.ndim == 1 else rhs.T.tolist()
    if not _gtsv(dl.tolist(), d.tolist(), du.tolist(), cols):
        return None
    return np.array(cols[0]) if rhs.ndim == 1 else np.array(cols).T


def _implicit_step(prob: FlowProblem, psi: np.ndarray, terms,
                   dt: float) -> np.ndarray | None:
    """One normalized backward-Euler step of the linearized flow.

    Solves M trial = psi with M = I + dt (W^-1 A + diag(g - lam)), where
    g and lam are from the ``terms`` of ``prob.evaluate(psi)``, and
    renormalizes; returns None when ``_solve`` fails or the normalization
    does.
    """
    _, g, lam, _ = terms
    trial = _solve(prob, 1.0 + dt * (prob._diag_w + (g - lam)), psi, dt)
    if trial is None:
        return None
    try:
        return prob.normalize(trial)
    except ValueError:
        return None


def _newton_step(prob: FlowProblem, psi: np.ndarray,
                 terms) -> np.ndarray | None:
    """One Newton step on F(psi, lam) = W^-1 A psi + (g - lam) psi = 0 with
    sum w psi^2 = N, at the multiplier lam of the ``terms`` of
    ``prob.evaluate(psi)``.

    The Jacobian J = W^-1 A + diag(g - lam + 2 y q''(y)), y = psi^2, is the
    flow's tridiagonal plus the curvature of q, q'' from the ``terms``; it
    is bordered by -psi (the lam column) and by the linearized constraint.
    Keller's bordering (H. B. Keller, in *Applications of Bifurcation
    Theory*, Academic Press 1977, p. 359) solves J a = -F and J b = psi in
    one LAPACK ``gtsv`` call and takes dlam from sum w psi (a + dlam b) = 0;
    the step is dpsi = a + dlam b, and the new iterate is renormalized.  Returns None
    when ``_solve`` fails or the normalization does.
    """
    _, g, lam, d2q = terms
    d = prob._diag_w + (g - lam) + 2.0 * psi**2 * d2q
    rhs = np.empty((len(psi), 2), order="F")
    rhs[:, 0] = -prob.defect(psi, terms)
    rhs[:, 1] = psi
    x = _solve(prob, d, rhs)
    if x is None:
        return None
    wpsi = prob.w * psi
    dlam = -(wpsi @ x[:, 0]) / (wpsi @ x[:, 1])
    try:
        return prob.normalize(psi + (x[:, 0] + dlam * x[:, 1]))
    except ValueError:
        return None


def _newton(prob: FlowProblem, psi: np.ndarray, e: float, terms, res: float,
            tol: float):
    """The endgame: Newton steps from ``psi`` while the residual is above
    ``tol``, each kept only if it lowers the residual.  ``e``, ``terms`` and
    ``res`` belong to ``psi``, and so do the ones returned, with the number
    of steps tried (a refused one included)."""
    steps = 0
    while res > tol and steps < _MAX_NEWTON_STEPS:
        steps += 1
        trial = _newton_step(prob, psi, terms)
        if trial is None:
            break
        e_new, trial_terms = prob.evaluate(trial)
        res_new = prob.residual(trial, trial_terms)
        if not res_new < res:
            break
        psi, e, terms, res = trial, e_new, trial_terms, res_new
    return psi, e, terms, res, steps


def _energy_scale(prob: FlowProblem, terms, e: float) -> float:
    """max(|lam|, |E|/N, 1e-12), the scale of the step and residual tests."""
    return max(abs(terms[2]), abs(e) / prob.mass, 1e-12)


def minimize_flow(prob: FlowProblem, psi0: np.ndarray) -> FlowResult:
    """Run the normalized semi-implicit descent from ``psi0`` until its
    residual is below a hand-off level (``_HANDOFF_LEVELS``) times the
    energy scale, then finish with Newton steps."""
    psi = prob.normalize(np.array(psi0, dtype=float))
    e, terms = prob.evaluate(psi)
    scale = _energy_scale(prob, terms, e)
    dt = 1.0 / scale
    max_up = 0.0
    rejected = 0
    newton = 0
    levels = iter(_HANDOFF_LEVELS)
    handoff = next(levels)
    for it in range(1, _MAX_ITER + 1):
        trial = _implicit_step(prob, psi, terms, dt)
        e_new, trial_terms = (math.nan, None) if trial is None \
            else prob.evaluate(trial)
        if not math.isfinite(e_new) or e_new > e + 1e-14 * max(1.0, abs(e)):
            dt *= 0.5
            rejected += 1
            if dt < _DT_MIN / scale:
                break
            continue
        if e_new > e:
            max_up = max(max_up, e_new - e)
        psi, e, terms = trial, e_new, trial_terms
        dt = min(dt * _DT_GROWTH, _DT_MAX / scale)
        res = prob.residual(psi, terms)
        scale = _energy_scale(prob, terms, e)
        if res > handoff * scale:
            continue
        psi, e, terms, res, steps = _newton(prob, psi, e, terms, res,
                                            _RTOL * scale)
        newton += steps
        # a stalled Newton hands back to the descent, which resumes from the
        # last kept iterate and hands off again at the next level
        handoff = next(levels, None)
        if res <= _RTOL * scale or handoff is None:
            return FlowResult(psi, e, terms[2], res, it + newton,
                              res <= _RTOL * scale, max_up, rejected, newton)
    res = prob.residual(psi, terms)
    scale = _energy_scale(prob, terms, e)
    return FlowResult(psi, e, terms[2], res, it + newton, res <= _RTOL * scale,
                      max_up, rejected, newton)


class Solve(NamedTuple):
    """What a trap minimization did: ``minimize_nested``'s record.

    iterations              flow iterations, summed over the grids
    rejected_steps          descent step halvings, summed over the grids
    newton_steps            Newton steps tried, summed over the grids
    E_coarse                the energy on the n/2 grid
    E_discretization_error  (E_n - E_{n/2}) / 3, Richardson's h^2 estimate
                            of E_inf - E_n: the correction to add to E_n
    discretization_note     why the estimate is None, else None
    """

    iterations: int
    rejected_steps: int
    newton_steps: int
    E_coarse: float | None
    E_discretization_error: float | None
    discretization_note: str | None


def _solve_record(levels: list[FlowResult]) -> Solve:
    """The counters of the grids, coarsest first, summed, and the h^2
    estimate from their energies by ``quadrature.richardson``."""
    counts = (sum(r.iterations for r in levels),
              sum(r.rejected_steps for r in levels),
              sum(r.newton_steps for r in levels))
    if len(levels) < 2:
        return Solve(*counts, None, None, "one grid: no coarse energy")
    e_coarse = levels[-2].energy
    if len(levels) < 3:
        return Solve(*counts, e_coarse, None, "two grids: the order is unchecked")
    if not (levels[-2].converged and levels[-3].converged):
        return Solve(*counts, e_coarse, None, "a coarse grid did not converge")
    _, estimate, note = richardson([r.energy for r in levels[-3:]], 2)
    return Solve(*counts, e_coarse, estimate, note)


def _prolong(coarse: FlowProblem, psi: np.ndarray,
             fine: FlowProblem) -> np.ndarray:
    """``psi`` on the nodes of ``fine`` by linear interpolation, the coarse
    nodes padded with the zero Dirichlet ghost at each end whose boundary
    edge weight is nonzero (the grids are not nested).  At a no-flux end
    ``np.interp`` holds the end value."""
    x, y = coarse.nodes, psi
    if coarse.ew[0] != 0.0:
        x = np.concatenate(([2.0 * x[0] - x[1]], x))
        y = np.concatenate(([0.0], y))
    if coarse.ew[-1] != 0.0:
        x = np.concatenate((x, [2.0 * x[-1] - x[-2]]))
        y = np.concatenate((y, [0.0]))
    return np.interp(fine.nodes, x, y)


def minimize_nested(build: Callable[[int], FlowProblem], n: int,
                    start: Callable[[FlowProblem], np.ndarray], what: str
                    ) -> tuple[list[tuple[FlowProblem, FlowResult]], Solve]:
    """Minimize ``build(n)`` by nested iteration.

    ``build(m)`` is the problem on m nodes.  n is halved while the next grid
    keeps ``_COARSEST`` nodes; the coarsest grid starts from ``start(fp)``,
    each finer one from the coarser minimizer, prolonged, whether or not
    that grid converged.  Returns every grid's (problem, FlowResult),
    coarsest first, and the cascade's ``Solve`` record.  RuntimeError
    naming ``what`` unless the n grid converged.
    """
    sizes = [n]
    while sizes[-1] // 2 >= _COARSEST:
        sizes.append(sizes[-1] // 2)
    grids, fp = [], None
    for m in reversed(sizes):
        coarse, fp = fp, build(m)
        psi0 = start(fp) if coarse is None else _prolong(coarse, grids[-1][1].psi, fp)
        grids.append((fp, minimize_flow(fp, psi0)))
    solve = _solve_record([res for _, res in grids])
    res = grids[-1][1]
    if not res.converged:
        raise RuntimeError(f"{what} did not converge (residual {res.residual:.3e} "
                           f"after {solve.iterations} iterations)")
    return grids, solve


# --- grid builders --------------------------------------------------------

def sphere_problem(rmax: float, n: int, mu: float, V: Callable,
                   local, mass: float) -> FlowProblem:
    """3D radial problem for phi on the vertex grid r_i = i h, i = 1..n,
    h = rmax/(n+1): weights 4 pi r_i^2 h, kin = 4 pi mu and edge weights
    r_e r_(e+1) / h with r_0 = 0 and r_(n+1) = rmax, so no flux through 0
    and a zero ghost at rmax.  The energy is exactly that of u = r phi with
    zero ghosts at both ends: (u_(i+1) - u_i)^2 / h = r_i r_(i+1)
    (phi_(i+1) - phi_i)^2 / h + r_(i+1) phi_(i+1)^2 - r_i phi_i^2, and the
    last two terms telescope to the ghosts.
    """
    h = rmax / (n + 1)
    r = h * np.arange(1, n + 1)
    edges = h * np.arange(n + 2)
    ew = edges[:-1] * edges[1:] / h
    return FlowProblem(r, 4.0 * math.pi * r**2 * h, 4.0 * math.pi * mu, ew,
                       np.asarray(V(r), dtype=float), local, mass)


def cell_problem(d: int, rmax: float, n: int, mu: float, V: Callable,
                 local, mass: float) -> FlowProblem:
    """Even 1D (d = 1) or radial 2D (d = 2) problem for phi on a
    cell-centred grid: nodes r_i = (i + 1/2) h, no flux through r = 0,
    Dirichlet ghost at rmax.  The measure is omega r^(d-1) dr, omega = 2
    (both halves of the line) or 2 pi.  In 1D it is the 2n-node problem on
    (-rmax, rmax), with the same h, restricted to even phi.
    """
    h = rmax / (n + 0.5)
    r = h * (np.arange(n) + 0.5)
    omega = 2.0 if d == 1 else 2.0 * math.pi
    w = omega * r ** (d - 1) * h
    ew = (h * np.arange(n + 1)) ** (d - 1) / h     # edge 0 at r = 0
    ew[0] = 0.0
    return FlowProblem(r, w, omega * mu, ew, np.asarray(V(r), dtype=float),
                       local, mass)
