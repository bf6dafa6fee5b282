"""One-dimensional gas machinery: the Lieb-Liniger ground-state energy
density e(t), transverse confinement modes, the hierarchy of five 1D density
functionals, regime classification for elongated traps, and the finite-box
bracket evaluators.

Units: hbar = 2m = 1 throughout (kinetic operator -d^2/dz^2), matching the
elongated-trap Hamiltonian convention.  The homogeneous 1D gas with coupling
g has energy per particle rho^2 e(g/rho), with e(t) ~ t/2 for t << 1 and
e(t) -> pi^2/3 as t -> infinity.

The function e(t) is computed from the standard Bethe-ansatz Fredholm
system: the quasimomentum density f(x) on [-1, 1] solves

    f(x) = 1/(2 pi) + (1/pi) int lam f(y) / (lam^2 + (x-y)^2) dy ,

and gamma = lam / int f,  e_BA(gamma) = int x^2 f / (int f)^3, with the
convention map e(t) = e_BA(t/2) (the Hamiltonian here carries g delta, the
Bethe-ansatz literature 2c delta).  The integral equation is discretized by
product integration: hat functions on a Chebyshev-graded mesh with the
Lorentzian kernel integrated exactly (arctan/log primitives), which stays
accurate down to very small kernel widths.  The solution is even, so only
half the system is assembled and solved.  The e(t) table ships with the
package as ``ll_table.csv``: one row per kernel width of a sweep of such
solves, with t, e and the exact slope sigma = d log e/d log t of the
discrete solution.  The reference build in the tests writes it and checks
that the shipped bytes are current; at run time ``verify`` solves the
equation directly at three widths against its e and sigma.  The curve is
validated only against its two known limits, the direct solves and the
exact-diagonalization oracle, never against external tables.

The transverse confinement enters through its ground mode b alone, as two
constants per kind at unit radius (``UNIT_MODES``): e_perp and
int |b|^4 d^2x, which ``ElongatedTrap`` scales to its e_perp and 1D
coupling g = 8 pi a / r^2 int |b|^4.  The harmonic mode is a Gaussian and
the hard wall's is J0; ``transverse_mode_numeric``, the second route,
finds both with the radial gradient flow of the trap minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import LL_TABLE, flows, quadrature

PI2_3 = math.pi**2 / 3.0

# LLCurve.f_inverse: Newton in log t stops one step after every |log F -
# log y| is below _NEWTON_TOL (|d log F/d log t| >= 1, and quadratic
# convergence leaves ~_NEWTON_TOL^2 behind); a target still unconverged
# after _NEWTON_STEPS steps is an error
_NEWTON_TOL = 1e-10
_NEWTON_STEPS = 12


# --------------------------------------------------------------------------
# Bethe-ansatz integral equation
# --------------------------------------------------------------------------

# rows of the Fredholm matrix are assembled in blocks of about this many
# entries: ~110 kB per temporary stays in cache and below glibc's mmap
# threshold, so repeated solves reuse heap memory instead of faulting in
# fresh pages (whole-matrix temporaries spent ~40 % of a solve on that)
_BLOCK_ELEMENTS = 14000


def _chebyshev_mesh(m: int) -> np.ndarray:
    """Chebyshev-graded nodes on [-1, 1], exactly mirror-symmetric."""
    x = -np.cos(np.linspace(0.0, math.pi, m + 1))
    return 0.5 * (x - x[::-1])


def solve_ba_density(lam: float, m: int):
    """Solve the Fredholm equation at kernel width ``lam``.

    Returns (gamma, e_BA) for the Bethe-ansatz coupling gamma.  The mesh
    has ``m + 1`` nodes; ``m`` must be even, so that x = 0 is a node.

    The kernel is even and the mesh mirror-symmetric, so the solution is
    even, f(x) = f(-x): only rows 0..m/2 of the system are assembled, the
    columns of mirrored nodes are added together, and the (m/2 + 1)-node
    half system is solved.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if m < 2 or m % 2:
        raise ValueError("m must be a positive even number")
    x = _chebyshev_mesh(m)
    n = len(x)
    c = m // 2                  # the centre node, x_c = 0
    h = np.diff(x)
    rows = max(1, _BLOCK_ELEMENTS // n)

    # F[i, j] = int K(x_i - y) (phi_j(y) + phi_(n-1-j)(y)) dy for the hat
    # functions phi_j (phi_c counted once), with the kernel integrated
    # exactly through its primitives
    F = np.empty((c + 1, c + 1))
    for r in range(0, c + 1, rows):
        u = x[r:min(r + rows, c + 1), None] - x            # x_i - y_j
        A = np.arctan(u / lam) / math.pi                   # primitive of K
        B = (lam / (2.0 * math.pi)) * np.log(lam**2 + u**2)
        dA = A[:, :-1] - A[:, 1:]   # int of K over [y_k, y_k+1]
        # int of (y - y_k) K over [y_k, y_k+1], over h_k: rising half of hat k+1
        up = (u[:, :-1] * dA - (B[:, :-1] - B[:, 1:])) / h
        M = np.zeros((len(u), n))
        M[:, 1:] = up
        M[:, :-1] += dA - up        # falling half of hat k
        F[r:r + rows] = M[:, :c + 1]
        F[r:r + rows, :c] += M[:, :c:-1]
    rhs = np.full(c + 1, 1.0 / (2.0 * math.pi))
    half = np.linalg.solve(np.eye(c + 1) - F, rhs)
    f = np.concatenate((half, half[c - 1::-1]))

    # exact integrals of the piecewise-linear f and x^2 f
    f0, f1 = f[:-1], f[1:]
    int_f = float(np.sum(0.5 * h * (f0 + f1)))
    x0, x1 = x[:-1], x[1:]
    c1 = (f1 - f0) / h
    c0 = f0 - c1 * x0
    # int x^2 (c0 + c1 x) dx over each segment, closed form
    int_x2f = float(np.sum(c0 * (x1**3 - x0**3) / 3.0 + c1 * (x1**4 - x0**4) / 4.0))
    gamma = lam / int_f
    e_ba = int_x2f / int_f**3
    return gamma, e_ba


# the (_MESH + 1)-node mesh the default table was solved on, and that
# table_error's and slope_error's direct solves use
_MESH = 440
# slope_error's step in log lam: its central differences are then good to
# ~4e-10, below the table's slope error between nodes (8e-9 at t = 11.3)
_SLOPE_STEP = 1e-4


class CubicHermite:
    """Piecewise-cubic Hermite interpolant on given node slopes,
    extrapolating with the end cubics.

    Coefficients as scipy's ``CubicHermiteSpline`` builds them (``c[:, k]``
    are the cubic's coefficients in powers 3..0 of x - x[k]) and evaluation
    in the order of its power sum, so values and slopes equal scipy's bit
    for bit.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.asarray(dydx, dtype=float)
        h = np.diff(x)
        if len(x) < 2 or not np.all(h > 0):
            raise ValueError("x must be strictly increasing, with two nodes or more")
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
        # rows c0..c3 of the value, c1, 2 c2, 3 c3 of the slope and 2 c2,
        # 6 c3 of the second derivative, each in ascending powers
        self._rows = np.concatenate((self.c[::-1],
                                     self.c[2::-1] * np.array([[1.0], [2.0], [3.0]]),
                                     self.c[1::-1] * np.array([[2.0], [6.0]])))

    def _at(self, xv, rows):
        """``rows`` of the coefficients of the interval holding each xv
        (x[k] <= xv < x[k+1], the last one closed and the end ones
        extended), and the offsets s = xv - x[k]."""
        k = np.searchsorted(self.x[1:-1], xv, side="right")
        return self._rows[:rows].take(k, axis=1), xv - self.x[k]

    @staticmethod
    def _power_sum(c, s, s2):
        """c[0] + c[1] s (+ c[2] s^2 (+ c[3] s^3)), summed in scipy's order."""
        out = c[1] * s
        out += c[0]
        if len(c) > 2:
            c[2] *= s2
            out += c[2]
        if len(c) == 4:
            c[3] *= s2 * s
            out += c[3]
        return out

    def derivatives(self, xv, order: int):
        """(p, p', p'')[:order + 1] at ``xv``."""
        c, s = self._at(xv, (4, 7, 9)[order])
        s2 = s * s
        return tuple(self._power_sum(c[lo:hi], s, s2)
                     for lo, hi in ((0, 4), (4, 7), (7, 9))[:order + 1])


@dataclass
class LLCurve:
    """Tabulated e(t), with the slope sigma = d log e/d log t at each node,
    read by the cubic Hermite interpolant on those slopes in (log t, log e).

    Outside the table the limiting forms take over, continuity-matched:
    e = (t/2) * const below, pi^2/3 - deficit * (t_max/t) above.  They are
    matched in value, not in slope, so e'(t) jumps at t_min and t_max.
    ``mesh_error`` is the largest relative difference between the table and
    doubled-mesh solves at the first, middle and last sweep widths, measured
    when the table was built.

    ``f_inverse`` inverts F(t) = 3 e/t^2 - e'/t, the t-form of w'(rho) for
    w(rho) = rho^3 e(g/rho).
    """

    nodes_t: np.ndarray
    nodes_e: np.ndarray
    nodes_sigma: np.ndarray
    mesh_error: float
    _interp: CubicHermite = field(init=False, repr=False)
    _low_ratio: float = field(init=False)
    _high_deficit: float = field(init=False)

    def __post_init__(self):
        self._interp = CubicHermite(np.log(self.nodes_t), np.log(self.nodes_e),
                                    self.nodes_sigma)
        self._low_ratio = float(self.nodes_e[0] / (0.5 * self.nodes_t[0]))
        self._high_deficit = float(PI2_3 - self.nodes_e[-1])

    @property
    def t_min(self) -> float:
        return float(self.nodes_t[0])

    @property
    def t_max(self) -> float:
        return float(self.nodes_t[-1])

    def e(self, t):
        return self.derivatives(t, 0)[0]

    def e_source(self, t: float) -> str:
        """The piece of the curve e(t) comes from, as ``derivatives`` picks it."""
        return "low_tail" if t < self.t_min else \
            "high_tail" if t > self.t_max else "table"

    def derivatives(self, t, order: int):
        """(e, e', e'')[:order + 1] at t from one table lookup.  Inside the
        table e = exp(p(log t)), so e' = e p'/t and e'' = e (p'^2 + p'' -
        p')/t^2; the low tail is linear and the high tail has e'' = -2
        deficit t_max / t^3."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        low, high = t < self.t_min, t > self.t_max
        mid = ~(low | high)
        tm, th = t[mid], t[high]
        p = self._interp.derivatives(np.log(tm), order)
        e_mid = np.exp(p[0])
        e = np.empty_like(t)
        e[low] = 0.5 * t[low] * self._low_ratio
        e[mid] = e_mid
        e[high] = PI2_3 - self._high_deficit * (self.t_max / th)
        out = (e,)
        if order >= 1:
            de = np.empty_like(t)
            de[low] = 0.5 * self._low_ratio
            de[mid] = e_mid * p[1] / tm
            de[high] = self._high_deficit * self.t_max / th**2
            out += (de,)
        if order == 2:
            d2e = np.zeros_like(t)
            d2e[mid] = e_mid * (p[1] * p[1] + p[2] - p[1]) / tm**2
            d2e[high] = -2.0 * self._high_deficit * self.t_max / th**3
            out += (d2e,)
        if scalar:
            return tuple(float(v[0]) for v in out)
        return out

    def f_inverse(self, y):
        """t = F^-1(y) for F(t) = 3 e/t^2 - e'/t, so that w'(rho) = g^2 y
        for w(rho) = rho^3 e(g/rho) at rho = g/t.

        F falls with t on each piece of the curve, but the pieces meet in
        value only (see the class docstring).  Across t_min F jumps up
        (on the default table F(t_min-) = 10064.9 < F(t_min+) = 10075.6),
        so a y in that band has a root in the table and one in the low tail;
        across t_max it drops by ~2e-11 relative, so a y in that gap has
        none.  The inverse returns the largest t with F(t) >= y, that is
        the smallest root rho, which never decreases as y grows: the table
        root whenever y <= F(t_min+), else the low tail; t_max inside the
        gap; inf at y = 0.

        - low tail: F = low_ratio/t, so t = low_ratio/y exactly;
        - table: bracket y between the node values of F, then Newton steps
          in x = log t on the segment's cubic p,
          d log F/dx = p' - 2 - p''/(3 - p');
        - high tail: F = pi^2/t^2 - 4 deficit t_max/t^3, Newton steps from
          t = pi/sqrt(y).

        Returns t and sigma = d log F/d log t there, which fixes
        d log rho/d log y = -1/sigma: -1 in the low tail, the Newton slope
        of the last step inside the table and in the high tail, -inf in the
        t_max gap (rho does not move with y there) and -2, the high tail's
        limit, at y = 0.  Raises RuntimeError if a target has not converged
        after ``_NEWTON_STEPS`` steps, ValueError for a negative or NaN y.
        """
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if not np.all(y >= 0):
            raise ValueError("y must be nonnegative")
        x_nodes = self._interp.x
        # log F at the table nodes: F = (e/t^2) (3 - sigma)
        log_f = np.log(self.nodes_e) - 2.0 * x_nodes + np.log(3.0 - self.nodes_sigma)
        q_max = 4.0 * self._high_deficit * self.t_max
        with np.errstate(divide="ignore"):
            ly = np.log(y)
        out = np.full_like(y, math.inf)
        sigma = np.full_like(y, -2.0)
        # log F(t_max+), the top of the high tail
        high = (y > 0) & (ly <= math.log(math.pi**2 - q_max / self.t_max)
                          - 2.0 * x_nodes[-1])
        low = ly > log_f[0]
        table = (y > 0) & ~(high | low)

        out[low] = self._low_ratio / y[low]
        sigma[low] = -1.0

        if np.any(table):
            lt = ly[table]
            k = np.searchsorted(-log_f, -lt)     # the first node with F <= y
            inside = k < len(log_f)              # else y is in the t_max gap
            j = np.maximum(k[inside] - 1, 0)
            c = self._interp.c[:, j]
            x0, x1 = x_nodes[j], x_nodes[j + 1]

            def log_f_segment(x):
                d = x - x0
                p = ((c[0] * d + c[1]) * d + c[2]) * d + c[3]
                dp = (3.0 * c[0] * d + 2.0 * c[1]) * d + c[2]
                room = 3.0 - dp
                return (p - 2.0 * x + np.log(room),
                        dp - 2.0 - (6.0 * c[0] * d + 2.0 * c[1]) / room)

            # start from the log-log chord between the bracketing nodes
            start = x0 + (log_f[j] - lt[inside]) / (log_f[j] - log_f[j + 1]) * (x1 - x0)
            t_table = np.full_like(lt, self.t_max)
            s_table = np.full_like(lt, -math.inf)
            x, s_table[inside] = _newton_log(log_f_segment, lt[inside],
                                             start, x0, x1)
            t_table[inside] = np.exp(x)
            out[table] = t_table
            sigma[table] = s_table

        if np.any(high):
            lh = ly[high]

            def log_f_tail(x):
                q = q_max * np.exp(-x)
                return np.log(math.pi**2 - q) - 2.0 * x, q / (math.pi**2 - q) - 2.0

            start = math.log(math.pi) - 0.5 * lh        # F < pi^2/t^2
            x, sigma[high] = _newton_log(log_f_tail, lh, start,
                                         x_nodes[-1], start)
            out[high] = np.exp(x)
        return (float(out[0]), float(sigma[0])) if scalar else (out, sigma)


def _newton_log(log_f, log_y, x, lo, hi):
    """The root of log F(x) = log_y in [lo, hi] for a decreasing F.
    ``log_f(x)`` returns (log F, d log F/dx).  Newton steps, each clipped to
    the bracket, which shrinks to the last iterate on each side of the
    root; once every residual is below ``_NEWTON_TOL`` one more step is
    taken, and the root is returned with the slope that step used."""
    for _ in range(_NEWTON_STEPS):
        value, slope = log_f(x)
        res = value - log_y
        right = res > 0                      # F(x) > y: the root lies right
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        x = np.clip(x - res / slope, lo, hi)
        if np.all(np.abs(res) <= _NEWTON_TOL):
            return x, slope
    raise RuntimeError(f"F^-1 did not converge in {_NEWTON_STEPS} Newton steps: "
                       f"log residual {float(np.max(np.abs(res))):.3e}")


def table_error(curve: LLCurve, lams) -> float:
    """The largest |e_BA / e(2 gamma) - 1| over the kernel widths ``lams``:
    one direct Fredholm solve on the (_MESH + 1)-node mesh per width, against
    the table ``curve`` at the t = 2 gamma that solve gives."""
    err = 0.0
    for lam in lams:
        gamma, e_ba = solve_ba_density(lam, _MESH)
        err = max(err, abs(e_ba / curve.e(2.0 * gamma) - 1.0))
    return err


def slope_error(curve: LLCurve, lams) -> float:
    """The largest |sigma - sigma_BA| over the kernel widths ``lams``:
    sigma_BA = d log e/d log t by central differences of two direct solves
    at lam exp(+-_SLOPE_STEP), against the table's d log e/d log t at the
    geometric mean of their t."""
    err = 0.0
    for lam in lams:
        (g_lo, e_lo), (g_hi, e_hi) = (solve_ba_density(lam * math.exp(d), _MESH)
                                      for d in (-_SLOPE_STEP, _SLOPE_STEP))
        t = 2.0 * math.sqrt(g_lo * g_hi)
        e, de = curve.derivatives(t, 1)
        err = max(err, abs(de * t / e - math.log(e_hi / e_lo) / math.log(g_hi / g_lo)))
    return err


# the default table, as the reference build in tests/test_onedim.py writes
# it, and that build's mesh_error
_TABLE = Path(LL_TABLE)
_TABLE_MESH_ERROR = 0.0009862429001419315

_DEFAULT_CURVE: LLCurve | None = None


def default_curve() -> LLCurve:
    """The shipped e(t) table, read once per process."""
    global _DEFAULT_CURVE
    if _DEFAULT_CURVE is None:
        t, e, sigma = np.loadtxt(_TABLE, delimiter=",", skiprows=1).T.copy()
        _DEFAULT_CURVE = LLCurve(t, e, sigma, _TABLE_MESH_ERROR)
    return _DEFAULT_CURVE


# --------------------------------------------------------------------------
# transverse confinement
# --------------------------------------------------------------------------

# (e_perp, int |b|^4 d^2x) of the ground transverse mode at unit radius.
# harmonic: b = exp(-r^2/2) / sqrt(pi).  hard wall: b = J0(j r) / (sqrt(pi)
# |J1(j)|), j = 2.40482555769577276862... the first zero of J0; e_perp is j^2
# correctly rounded, int b^4 = 2 int_0^1 J0(j r)^4 r dr / (pi J1(j)^4) by mpmath
UNIT_MODES = {"harmonic": (2.0, 1.0 / (2.0 * math.pi)),
              "hard_wall": (5.783185962946784, 0.6679272899645546)}


@dataclass(frozen=True)
class ElongatedTrap:
    N: float
    L: float
    r: float
    a: float
    s: float = 2.0
    transverse: str = "harmonic"   # or hard_wall

    def __post_init__(self):
        if self.transverse not in UNIT_MODES:
            raise ValueError("transverse kind must be harmonic or hard_wall")
        if min(self.N, self.L, self.r) <= 0 or self.a < 0 or self.s <= 0:
            raise ValueError("trap parameters must be positive")

    @property
    def e_perp(self) -> float:
        """Ground energy of -Lap + V_perp: e_perp at unit radius / r^2."""
        return UNIT_MODES[self.transverse][0] / self.r**2

    @property
    def g(self) -> float:
        """The 1D coupling 8 pi a / r^2 * int |b|^4 at unit radius."""
        return 8.0 * math.pi * self.a / self.r**2 * UNIT_MODES[self.transverse][1]


# cells of the middle of the three grids of transverse_mode_numeric's
# cascade, behind its order check and Richardson step.  The rounding floor
# of the sup-norm residual grows as n^2: on the hard wall's [0, 1] grid the
# finest solve ends at 0.46 of its tolerance at 1000 (2000 cells), and at
# 1500 the 3000-cell solve stalls at 1.1 of it
_MODE_FD_GRID = 1000


def transverse_mode_numeric(kind: str) -> tuple[float, float]:
    """The ground mode of -Lap + V_perp at unit radius by the radial flow
    (``flows.cell_problem`` with q = 0, unit mass): one cascade from
    2 ``_MODE_FD_GRID`` cells, whose three grids (``_MODE_FD_GRID`` / 2,
    ``_MODE_FD_GRID`` and twice that) give Richardson in h.  Returns
    (e_perp, int b^4), the check of ``UNIT_MODES``.  Raises RuntimeError
    when a grid does not converge or a value does not converge at second
    order."""
    rmax, V = (6.0, np.square) if kind == "harmonic" else (1.0, np.zeros_like)
    n = 2 * _MODE_FD_GRID
    grids, solve = flows.minimize_nested(
        lambda m: flows.cell_problem(2, rmax, m, 1.0, V,
                                     lambda y: (0.0 * y, 0.0 * y, 0.0), 1.0), n,
        lambda fp: np.cos(0.5 * math.pi * fp.nodes / rmax),
        f"transverse mode ({kind}, n = {n})")
    # the record's note is set when a coarse grid did not converge or the
    # energies are not second order; each value must show that order too,
    # and Richardson's step kills its h^2 term
    if solve.discretization_note:
        raise RuntimeError(f"transverse mode ({kind}): {solve.discretization_note}")
    out = []
    for values in ([res.mu_chem for _, res in grids],
                   [float((fp.w * res.psi**4).sum()) for fp, res in grids]):
        extrapolated, _, note = quadrature.richardson(values, 2)
        if note:
            raise RuntimeError(f"transverse mode ({kind}): {note}")
        out.append(extrapolated)
    return tuple(out)


# --------------------------------------------------------------------------
# the 1D functional hierarchy
# --------------------------------------------------------------------------

KINDS_1D = ("full", "gp1d", "tf1d", "ll_no_grad", "gt")
# nodes of every 1D minimization grid
_N_GRID_1D = 2048
# the pointwise kinds' normalization: done once |log(mass/N)| is within
# _NORM_TOL (4 ulp of 1); a mu still unconverged after _NORM_SWEEPS density
# sweeps is an error
_NORM_TOL = 4.0 * 2.0**-52
_NORM_SWEEPS = 100


@dataclass(frozen=True)
class Profile1D:
    """A 1D minimizer, even in z, at the nodes z > 0; ``w`` are the solver's
    weights for the whole line: mass = w . rho, rho_bar = w . rho^2 / mass."""

    z: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    mass: float
    # what the gradient flow that found rho did; the pointwise kinds build
    # their own: iterations counts the normalization's density sweeps, and
    # there are no coarse grids
    solve: flows.Solve


def _v_long(z, L: float, s: float):
    return np.abs(z) ** s / L ** (s + 2.0)


def _zmax_gradient(kind: str, N: float, L: float, g: float, s: float) -> float:
    scaled = N * g * L
    base = 1.0 + max(scaled, 0.0) ** (1.0 / (s + 1.0))
    if kind == "full":
        base += N ** (2.0 / (s + 2.0))
    return 6.0 * L * base


def _ll_argument(g: float, rho: np.ndarray) -> np.ndarray:
    """t = g / rho, the Lieb-Liniger argument, capped where rho -> 0."""
    return np.minimum(g / np.maximum(rho, 1e-300), 1e15)


def _curve_for(kind: str) -> LLCurve | None:
    """The e(t) table a functional reads: the shared table for the two kinds
    that use e(t), None for the others."""
    return default_curve() if kind in ("full", "ll_no_grad") else None


def _local_terms(kind: str, g: float, curve):
    """rho -> (w, w', w''), the interaction energy density of a 1D kind and
    its derivatives: the flow's ``local``, and the pointwise energy's w.
    tf1d and gp1d have g rho^2 / 2, gt pi^2 rho^3 / 3, and ll_no_grad and
    full rho^3 e(g/rho) from one lookup in ``curve`` (0 at rho = 0), with
    w' = 3 rho^2 e - g rho e' and w'' = 6 rho e - 4 g e' + g^2 e'' / rho."""
    if kind in ("gp1d", "tf1d"):
        return lambda rho: (0.5 * g * rho**2, g * rho, g)
    if kind == "gt":
        return lambda rho: (PI2_3 * rho**3, math.pi**2 * rho**2,
                            2.0 * math.pi**2 * rho)

    def ll_terms(rho):
        w, dw, d2w = np.zeros((3,) + rho.shape)
        pos = rho > 0
        rp = rho[pos]
        e, de, d2e = curve.derivatives(_ll_argument(g, rp), 2)
        w[pos] = rp**3 * e
        dw[pos] = 3.0 * rp ** 2 * e - g * rp * de
        d2w[pos] = 6.0 * rp * e - 4.0 * g * de + g * g * d2e / rp
        return w, dw, d2w
    return ll_terms


def _minimize_gradient_kind(kind, N, L, g, s, curve):
    zmax = _zmax_gradient(kind, N, L, g, s)
    V = lambda z: _v_long(z, L, s)
    local = _local_terms(kind, g, curve)
    grids, solve = flows.minimize_nested(
        lambda m: flows.cell_problem(1, zmax, m, 1.0, V, local, N),
        _N_GRID_1D // 2,
        lambda fp: np.sqrt(np.maximum(1.0 - (fp.nodes / (0.75 * zmax)) ** 2,
                                      0.0)) + 1e-3, f"1D minimization ({kind})")
    fp, res = grids[-1]
    rho = res.psi**2
    prof = Profile1D(fp.nodes.copy(), fp.w, rho, N, solve)
    return prof, res.energy, float(np.sum(fp.w * rho**2) / N)


def _pointwise_density(kind, mu, V, g, curve):
    """The rho >= 0 that solves V + w'(rho) = mu pointwise (0 where V >= mu),
    and kappa = d log rho/d log(mu - V).

    tf1d has rho = (mu - V)/g (kappa = 1) and gt rho = sqrt(mu - V)/pi
    (kappa = 1/2).  ll_no_grad has w'(rho) = g^2 F(g/rho) with F from
    ``curve``, so rho = g / F^-1((mu - V)/g^2) and kappa = -1/sigma for
    sigma = d log F/d log t at the root.  F jumps up across the table's
    t_min, so w' is not monotone near rho = g/t_min; ``LLCurve.f_inverse``
    takes the smallest root, which keeps rho non-decreasing in mu - V."""
    target = np.maximum(mu - V, 0.0)
    if kind == "tf1d":
        return target / g, 1.0
    if kind == "gt":
        return np.sqrt(target) / math.pi, 0.5
    t, sigma = curve.f_inverse(target / g**2)
    return g / t, -1.0 / sigma


def _pointwise_mu(N, L, s, scale, kappa):
    """The mu at which rho = scale (mu - V)^kappa holds mass N in the
    continuum: N = 2 zedge scale mu^kappa int_0^1 (1 - x^s)^kappa dx with
    zedge = (mu L^(s+2))^(1/s), the integral a Beta function."""
    beta = (math.gamma(1.0 + 1.0 / s) * math.gamma(1.0 + kappa)
            / math.gamma(1.0 + 1.0 / s + kappa))
    return (N / (2.0 * scale * beta * L ** ((s + 2.0) / s))) ** (s / (1.0 + kappa * s))


def _minimize_pointwise_kind(kind, N, L, g, s, curve):
    """tf1d / gt / ll_no_grad have no gradient term: the minimizer solves
    V(z) + w'(rho) = mu pointwise (``_pointwise_density``, in closed form
    or through ``LLCurve.f_inverse``), with mu fixed by normalization.

    mu comes from Newton steps on log mass against log mu.  On the support
    grid z = zedge(mu) sin(pi u/2), V = mu |sin(pi u/2)|^s is homogeneous
    of degree s, so d log mass/d log mu = 1/s + int rho kappa dz / mass
    exactly, kappa from ``_pointwise_density``.  The steps start from the
    continuum mu of tf1d or gt (for ll_no_grad the smaller of the two, as
    e(t) <= min(t/2, pi^2/3)), are kept inside the bracket that the
    residual signs give (else they bisect it in log mu), and stop at a
    residual within _NORM_TOL or when no float is left inside the bracket;
    the last sweep's rho is the result, and the sweep count the
    ``iterations`` of the profile's ``solve``.  rho is even: only the nodes
    u > 0 of u = linspace(-1, 1, _N_GRID_1D) are sampled, and every
    integral reads one weight vector, the full grid's trapezoid weights
    folded onto them, times zedge."""
    if kind != "gt" and not g > 0:
        raise ValueError(f"{kind} needs a positive coupling g")
    # cluster nodes at the support's edge: the minimizers of gt (and, less
    # severely, tf1d) meet zero with a square-root profile there
    u = np.linspace(-1.0, 1.0, _N_GRID_1D)[_N_GRID_1D // 2:]
    edge = np.sin(0.5 * math.pi * u)
    reach = edge ** s                   # V / mu, exactly 1 at the end
    # each node's two intervals; the first node's left one is [-z_0, z_0]
    left = np.diff(edge, prepend=-edge[0])
    unit_w = left + np.append(left[1:], 0.0)
    if kind == "gt":
        mu = _pointwise_mu(N, L, s, 1.0 / math.pi, 0.5)
    else:
        mu = _pointwise_mu(N, L, s, 1.0 / g, 1.0)
        if kind == "ll_no_grad":
            mu = min(mu, _pointwise_mu(N, L, s, 1.0 / math.pi, 0.5))
    lo, hi = 0.0, math.inf
    for sweeps in range(1, _NORM_SWEEPS + 1):
        zedge = (mu * L ** (s + 2.0)) ** (1.0 / s)
        w = zedge * unit_w
        V = mu * reach
        rho, kappa = _pointwise_density(kind, mu, V, g, curve)
        mass = float(w @ rho)
        if not 0.0 < mass < math.inf:
            raise RuntimeError(f"1D normalization ({kind}) failed: "
                               f"mass {mass!r} at mu = {mu!r}")
        res = math.log(mass / N)
        if abs(res) <= _NORM_TOL:
            break
        if res > 0:
            hi = mu
        else:
            lo = mu
        slope = 1.0 / s + float(w @ (rho * kappa)) / mass
        step = mu * math.exp(-res / slope)
        if step != mu and not lo < step < hi:
            step = math.sqrt(lo) * math.sqrt(hi)        # bisect in log mu
        if not lo < step < hi:
            break       # the step keeps mu, or lo and hi are neighbouring floats
        mu = step
    else:
        raise RuntimeError(f"1D normalization ({kind}) did not converge in "
                           f"{_NORM_SWEEPS} sweeps: log mass/N {res:.3e}")

    energy = float(w @ (V * rho + _local_terms(kind, g, curve)(rho)[0]))
    prof = Profile1D(zedge * edge, w, rho, N, flows.Solve(
        sweeps, 0, 0, None, None, "pointwise solution: no coarse grids"))
    return prof, energy, float(w @ rho**2) / N


def minimize_1d(kind: str, N: float, L: float, g: float, s: float = 2.0):
    """Minimize one of the five 1D functionals on the ``_N_GRID_1D``-node
    grid, which is symmetric about z = 0.  The minimizer is even, so each
    kind solves on the grid's ``_N_GRID_1D // 2`` nodes z > 0 only.

    Returns (Profile1D, energy, rho_bar).  ``full`` and ``gp1d`` run the
    constrained gradient flow; ``tf1d``, ``ll_no_grad`` and ``gt`` use their
    pointwise Lagrange solutions with a chemical-potential root-find.
    ``full`` and ``ll_no_grad`` read e(t) from ``default_curve``.
    """
    if kind not in KINDS_1D:
        raise ValueError(f"unknown 1D functional kind {kind!r}")
    if N <= 0:
        raise ValueError("N must be positive")
    curve = _curve_for(kind)
    if kind in ("full", "gp1d"):
        return _minimize_gradient_kind(kind, N, L, g, s, curve)
    return _minimize_pointwise_kind(kind, N, L, g, s, curve)


# --------------------------------------------------------------------------
# regime classification
# --------------------------------------------------------------------------

_CUT_LOW = 1e-2         # "<<" means ratio below this
_CUT_HIGH = 1e2         # ">>" means ratio above this
_BOUNDARY_BAND = 2.0    # ambiguity band factor around each cut
_VALIDITY_CUT = 1e-2    # r^2 rhobar min(rhobar, g) must stay below


_REGION_KIND = {1: "gp1d", 2: "gp1d", 3: "tf1d", 4: "ll_no_grad", 5: "gt"}

_REGION_SCALING = {
    1: "E ~ N e_parallel / L^2 (ideal gas)",
    2: "E_GP(N,L,g) = N L^-2 E_GP(1,1,NgL)",
    3: "E_TF(N,L,g) = N L^-2 (NgL)^{s/(s+1)} E_TF(1,1,1)",
    4: "E_LL(N,L,g) = N gamma^2 E_LL(1,1,g/gamma), gamma = (N/L) N^{-2/(s+2)}",
    5: "E_GT(N,L) = N gamma^2 E_GT(1,1)",
}


def _pick_region(ratio: float, N: float):
    """Region from g/rhobar against N^-2 and 1; returns an int, or a list
    of the two candidates when the ratio sits in a boundary band."""
    edges = [_CUT_LOW / N**2, _CUT_HIGH / N**2, _CUT_LOW, _CUT_HIGH]
    for region, edge in enumerate(edges, 1):
        if ratio < edge / _BOUNDARY_BAND:
            return region
        if ratio <= edge * _BOUNDARY_BAND:
            return [region, region + 1]
    return 5


def regime_classify(trap: ElongatedTrap) -> dict:
    """Classify an elongated trap into Regions 1-5.

    g comes from the transverse mode; rhobar from the full functional, then
    recomputed once with the region-consistent functional (single fixed-point
    pass; the iteration count is deliberately one).  Returns the ``regimes``
    record's outputs, with each ``flows.Solve`` field of the two solves (full,
    then the region's kind) as a list of two, and the first pass's ``diag_*``.
    """
    g = trap.g
    prof0, _, rho_bar = minimize_1d("full", trap.N, trap.L, g, trap.s)
    ratio0 = g / rho_bar
    region0 = _pick_region(ratio0, trap.N)
    kind = _REGION_KIND[region0 if isinstance(region0, int) else region0[0]]
    prof1, _, rho_bar1 = minimize_1d(kind, trap.N, trap.L, g, trap.s)
    ratio1 = g / rho_bar1
    region1 = _pick_region(ratio1, trap.N)
    validity = trap.r**2 * rho_bar1 * min(rho_bar1, g)
    scaling = _REGION_SCALING[region1 if isinstance(region1, int)
                              else region1[0]]
    solves = zip(flows.Solve._fields, zip(prof0.solve, prof1.solve))
    return {"region": region1, "g": g, "rho_bar": rho_bar1, "ratio": ratio1,
            "validity_value": validity, "valid": validity < _VALIDITY_CUT,
            "scaling": scaling, **{k: list(pair) for k, pair in solves},
            "diag_rho_bar_full": rho_bar, "diag_ratio_full": ratio0,
            "diag_region_first_pass": region0, "diag_e_perp": trap.e_perp}
