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
half the system is assembled and solved.  The curve is validated only
against its two known limits and the exact-diagonalization oracle, never
against external tables.
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__, flows
from .rootfind import brentq, normalization_root

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


def solve_ba_density(lam: float, m: int = 440):
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


def solve_ll_point(t: float, m: int = 440) -> float:
    """e(t) by a direct coupling <-> t root-find on the kernel width."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    gamma_target = 0.5 * t

    def mismatch(loglam):
        gamma, _ = solve_ba_density(math.exp(loglam), m)
        return math.log(gamma) - math.log(gamma_target)

    lo = 0.5 * math.log(gamma_target / 4.0)   # weak-coupling gamma ~ 4 lam^2
    hi = math.log(gamma_target / math.pi) if gamma_target > math.pi else 0.0
    lo, hi = min(lo, hi) - 2.0, max(lo, hi) + 2.0
    loglam = brentq(mismatch, lo, hi, xtol=1e-12)
    _, e_ba = solve_ba_density(math.exp(loglam), m)
    return float(e_ba)


class Pchip:
    """Monotone piecewise-cubic Hermite interpolant (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 238 (1980)), extrapolating with the end cubics.

    A port of scipy's ``PchipInterpolator``: node slopes as in its
    ``_find_derivatives``/``_edge_case``, coefficients as in
    ``CubicHermiteSpline`` (``c[:, k]`` are the cubic's coefficients in
    powers 3..0 of x - x[k]) and evaluation in the order of its power sum,
    so values and slopes equal scipy's bit for bit.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        if len(x) < 2 or not np.all(h > 0):
            raise ValueError("x must be strictly increasing, with two nodes or more")
        m = np.diff(y) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m
        else:
            # weighted harmonic mean of the neighbouring slopes, 0 at an
            # extremum or a flat segment
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            # one-sided three-point end slopes, kept shape-preserving
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            wrong_sign = np.sign(end) != np.sign(m0)
            overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(wrong_sign, 0.0,
                                  np.where(overshoot, 3.0 * m0, end))
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
        # rows c3, c2, c1, c0 of the value, then dc2, dc1, dc0 of the slope
        self._rows = np.concatenate((self.c[::-1], self.c[2::-1]
                                     * np.array([[1.0], [2.0], [3.0]])))

    def _at(self, xv, rows):
        """``rows`` of the coefficients of the interval holding each xv
        (x[k] <= xv < x[k+1], the last one closed and the end ones
        extended), and the offsets s = xv - x[k]."""
        k = np.searchsorted(self.x[1:-1], xv, side="right")
        return self._rows[:rows].take(k, axis=1), xv - self.x[k]

    @staticmethod
    def _power_sum(c, s, s2):
        """c[0] + c[1] s + c[2] s^2 (+ c[3] s^3), summed in scipy's order."""
        out = c[1] * s
        out += c[0]
        c[2] *= s2
        out += c[2]
        if len(c) == 4:
            c[3] *= s2 * s
            out += c[3]
        return out

    def __call__(self, xv):
        c, s = self._at(xv, 4)
        return self._power_sum(c, s, s * s)

    def value_and_slope(self, xv):
        c, s = self._at(xv, 7)
        s2 = s * s
        return self._power_sum(c[:4], s, s2), self._power_sum(c[4:], s, s2)


@dataclass
class LLCurve:
    """Tabulated e(t) on log-spaced nodes with monotone cubic interpolation.

    Outside the table the limiting forms take over, continuity-matched:
    e = (t/2) * const below, pi^2/3 - deficit * (t_max/t) above.  They are
    matched in value, not in slope, so e'(t) jumps at t_min and t_max.
    ``mesh_error`` is the largest relative difference between the table and
    doubled-mesh solves at a few points (None when it was not measured).
    ``cache`` says where ``default_curve`` got the table: ``"hit"`` (read
    from the disk cache), ``"built"`` (no cached file) or ``"rebuilt"`` (a
    cached file failed its checks); None for a table made any other way.

    ``f_inverse`` inverts F(t) = 3 e/t^2 - e'/t, the t-form of w'(rho) for
    w(rho) = rho^3 e(g/rho); the table it needs is built on first use.
    """

    nodes_t: np.ndarray
    nodes_e: np.ndarray
    mesh_error: float | None = None
    cache: str | None = None
    _interp: Pchip = field(default=None, repr=False)
    _low_ratio: float = 0.0
    _high_deficit: float = 0.0

    def __post_init__(self):
        self._interp = Pchip(np.log(self.nodes_t), np.log(self.nodes_e))
        self._low_ratio = float(self.nodes_e[0] / (0.5 * self.nodes_t[0]))
        self._high_deficit = float(PI2_3 - self.nodes_e[-1])

    @property
    def t_min(self) -> float:
        return float(self.nodes_t[0])

    @property
    def t_max(self) -> float:
        return float(self.nodes_t[-1])

    def e(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        out = np.empty_like(t)
        low = t < self.t_min
        high = t > self.t_max
        mid = ~(low | high)
        out[low] = 0.5 * t[low] * self._low_ratio
        with np.errstate(divide="ignore"):
            out[mid] = np.exp(self._interp(np.log(t[mid])))
        out[high] = PI2_3 - self._high_deficit * (self.t_max / t[high])
        return float(out[0]) if scalar else out

    def e_and_de(self, t):
        """(e(t), e'(t)) from one table lookup; e equals ``e(t)`` bit for bit."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        e = np.empty_like(t)
        de = np.empty_like(t)
        low = t < self.t_min
        high = t > self.t_max
        mid = ~(low | high)
        e[low] = 0.5 * t[low] * self._low_ratio
        de[low] = 0.5 * self._low_ratio
        tm = t[mid]
        with np.errstate(divide="ignore"):
            p, dp = self._interp.value_and_slope(np.log(tm))
        e_mid = np.exp(p)
        e[mid] = e_mid
        de[mid] = e_mid * dp / tm
        e[high] = PI2_3 - self._high_deficit * (self.t_max / t[high])
        de[high] = self._high_deficit * self.t_max / t[high] ** 2
        return (float(e[0]), float(de[0])) if scalar else (e, de)

    def de(self, t):
        return self.e_and_de(t)[1]

    @cached_property
    def _log_f_nodes(self) -> np.ndarray:
        """log F at the table nodes: e = exp(p(log t)) gives
        F = (e/t^2) (3 - p')."""
        x = self._interp.x
        _, dp = self._interp.value_and_slope(x)
        return np.log(self.nodes_e) - 2.0 * x + np.log(3.0 - dp)

    def f_inverse(self, y):
        """t = F^-1(y) for F(t) = 3 e/t^2 - e'/t, so that w'(rho) = g^2 y
        for w(rho) = rho^3 e(g/rho) at rho = g/t.

        F falls with t on each piece of the curve, but the pieces meet in
        value only (see the class docstring).  Across t_min F jumps up
        (on the default table F(t_min-) = 9983.2 < F(t_min+) = 9993.8), so
        a y in that band has a root in the table and one in the low tail;
        across t_max it drops by ~1e-8 relative, so a y in that gap has
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

        Raises RuntimeError if a target has not converged after
        ``_NEWTON_STEPS`` steps, ValueError for a negative or NaN y.
        """
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if not np.all(y >= 0):
            raise ValueError("y must be nonnegative")
        log_f = self._log_f_nodes
        x_nodes = self._interp.x
        q_max = 4.0 * self._high_deficit * self.t_max
        with np.errstate(divide="ignore"):
            ly = np.log(y)
        out = np.full_like(y, math.inf)
        # log F(t_max+), the top of the high tail
        high = (y > 0) & (ly <= math.log(math.pi**2 - q_max / self.t_max)
                          - 2.0 * x_nodes[-1])
        low = ly > log_f[0]
        table = (y > 0) & ~(high | low)

        out[low] = self._low_ratio / y[low]

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
            t_table[inside] = np.exp(_newton_log(log_f_segment, lt[inside],
                                                 start, x0, x1))
            out[table] = t_table

        if np.any(high):
            lh = ly[high]

            def log_f_tail(x):
                q = q_max * np.exp(-x)
                return np.log(math.pi**2 - q) - 2.0 * x, q / (math.pi**2 - q) - 2.0

            start = math.log(math.pi) - 0.5 * lh        # F < pi^2/t^2
            out[high] = np.exp(_newton_log(log_f_tail, lh, start,
                                           x_nodes[-1], start))
        return float(out[0]) if scalar else out

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,e\n")
            for t, e in zip(self.nodes_t, self.nodes_e):
                fh.write(f"{float(t)!r},{float(e)!r}\n")


def _newton_log(log_f, log_y, x, lo, hi):
    """The root of log F(x) = log_y in [lo, hi] for a decreasing F.
    ``log_f(x)`` returns (log F, d log F/dx).  Newton steps, each clipped to
    the bracket, which shrinks to the last iterate on each side of the
    root; once every residual is below ``_NEWTON_TOL`` one more step is
    taken and the result returned."""
    for _ in range(_NEWTON_STEPS):
        value, slope = log_f(x)
        res = value - log_y
        right = res > 0                      # F(x) > y: the root lies right
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        x = np.clip(x - res / slope, lo, hi)
        if np.all(np.abs(res) <= _NEWTON_TOL):
            return x
    raise RuntimeError(f"F^-1 did not converge in {_NEWTON_STEPS} Newton steps: "
                       f"log residual {float(np.max(np.abs(res))):.3e}")


def build_ll_curve(n_nodes: int = 200, t_min: float = 1e-4, t_max: float = 1e6,
                   mesh: int = 440, sweep: int = 240) -> LLCurve:
    """Sweep the kernel width, collect (t, e) samples, and resample onto the
    canonical log-spaced nodes.

    The first and last sweep points inside [t_min, t_max] and the one
    midway between them are solved again on the doubled mesh; the largest
    relative difference of that e from the table's e at the same t becomes
    the curve's ``mesh_error``.
    """
    lam_lo = 0.4 * math.sqrt(0.5 * t_min)     # gamma ~ 4 lam^2 as lam -> 0
    lam_hi = 2.0 * (0.5 * t_max) / math.pi    # gamma ~ pi lam as lam -> inf
    lams = np.geomspace(lam_lo, lam_hi, sweep)
    ts, es = [], []
    for lam in lams:
        gamma, e_ba = solve_ba_density(lam, mesh)
        ts.append(2.0 * gamma)
        es.append(e_ba)
    ts = np.asarray(ts)
    es = np.asarray(es)
    fine = Pchip(np.log(ts), np.log(es))
    nodes_t = np.geomspace(t_min, t_max, n_nodes)
    nodes_e = np.exp(fine(np.log(nodes_t)))
    curve = LLCurve(nodes_t, nodes_e)

    inside = np.flatnonzero((ts >= t_min) & (ts <= t_max))
    if len(inside):
        curve.mesh_error = 0.0
        for i in (inside[0], inside[len(inside) // 2], inside[-1]):
            gamma2, e2 = solve_ba_density(lams[i], 2 * mesh)
            curve.mesh_error = max(curve.mesh_error,
                                   abs(e2 / curve.e(2.0 * gamma2) - 1.0))
    return curve


# bumped whenever the numbers build_ll_curve returns change, so that a
# cached table from other code is never read
_CURVE_SCHEME = 2
_CURVE_DEFAULTS = build_ll_curve.__defaults__

_DEFAULT_CURVE: LLCurve | None = None


def curve_cache_name() -> str:
    """File name of the cached default table, keyed on the build settings,
    the package version and ``_CURVE_SCHEME``."""
    n_nodes, t_min, t_max, mesh, sweep = _CURVE_DEFAULTS
    return (f"ll_curve_s{_CURVE_SCHEME}_{__version__}_n{n_nodes}"
            f"_t{t_min!r}-{t_max!r}_m{mesh}_w{sweep}.npz")


def default_curve() -> LLCurve:
    """The shared e(t) table, built once per process (disk-cached when
    BOSEGAS_CACHE_DIR is set; a cached table that fails ``_load_curve``'s
    checks is rebuilt and replaced).  Its ``cache`` says which happened."""
    global _DEFAULT_CURVE
    if _DEFAULT_CURVE is None:
        cache_dir = os.environ.get("BOSEGAS_CACHE_DIR")
        path = os.path.join(cache_dir, curve_cache_name()) if cache_dir else None
        curve = _load_curve(path) if path else None
        if curve is not None:
            curve.cache = "hit"
        else:
            rebuilt = path is not None and os.path.exists(path)
            curve = build_ll_curve()
            curve.cache = "rebuilt" if rebuilt else "built"
            if path:
                _save_curve(curve, path)
        _DEFAULT_CURVE = curve
    return _DEFAULT_CURVE


def _load_curve(path: str) -> LLCurve | None:
    """The table cached at ``path``, or None when there is none or it is not
    a valid e(t): finite, t and e strictly increasing, 0 < e < pi^2/3."""
    try:
        with np.load(path) as data:
            t, e = data["t"], data["e"]
            mesh_error = (float(data["mesh_error"])
                          if "mesh_error" in data.files else None)
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None
    valid = (t.ndim == 1 and t.shape == e.shape and len(t) >= 2
             and bool(np.all(np.isfinite(t)) and np.all(np.isfinite(e)))
             and bool(np.all(np.diff(t) > 0) and np.all(np.diff(e) > 0))
             and t[0] > 0 and e[0] > 0 and e[-1] < PI2_3
             and (mesh_error is None or 0.0 <= mesh_error < math.inf))
    return LLCurve(t, e, mesh_error) if valid else None


def _save_curve(curve: LLCurve, path: str) -> None:
    """Write the table to a temporary file beside ``path`` and rename it into
    place, so a concurrent reader sees either no file or a whole one."""
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    arrays = {"t": curve.nodes_t, "e": curve.nodes_e}
    if curve.mesh_error is not None:
        arrays["mesh_error"] = curve.mesh_error
    fd, tmp = tempfile.mkstemp(suffix=".npz", dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# transverse confinement
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ElongatedTrap:
    N: float
    L: float
    r: float
    a: float
    s: float = 2.0
    transverse: str = "harmonic"   # or hard_wall

    def __post_init__(self):
        if self.transverse not in ("harmonic", "hard_wall"):
            raise ValueError("transverse kind must be harmonic or hard_wall")
        if min(self.N, self.L, self.r) <= 0 or self.a < 0 or self.s <= 0:
            raise ValueError("trap parameters must be positive")


@dataclass(frozen=True)
class TransverseMode:
    e_perp_unit: float      # ground energy of -Lap + V_perp at unit r
    e_perp: float           # e_perp_unit / r^2
    grid: np.ndarray
    b: np.ndarray           # unit-scale normalized profile
    int_b4_unit: float      # int |b|^4 d^2x at unit scale
    g: float                # 8 pi a / r^2 * int_b4_unit


def transverse_mode(trap: ElongatedTrap, n_grid: int = 2000) -> TransverseMode:
    """Ground transverse mode and the effective 1D coupling g.

    harmonic: closed form (Gaussian, e_perp = 2, int b^4 = 1/(2 pi));
    hard wall: Bessel J0 with the first zero setting the energy.
    """
    if trap.transverse == "harmonic":
        grid = np.linspace(0.0, 6.0, n_grid)
        b = np.exp(-0.5 * grid**2) / math.sqrt(math.pi)
        e_unit = 2.0
        int_b4 = 1.0 / (2.0 * math.pi)
    else:
        from scipy.special import j0, j1, jn_zeros
        z1 = float(jn_zeros(0, 1)[0])
        grid = np.linspace(0.0, 1.0, n_grid)
        norm = math.sqrt(math.pi) * abs(float(j1(z1)))
        b = j0(z1 * grid) / norm
        e_unit = z1**2
        rho = grid
        int_b4 = float(2.0 * math.pi * np.trapezoid(b**4 * rho, rho))
    g = 8.0 * math.pi * trap.a / trap.r**2 * int_b4
    return TransverseMode(e_unit, e_unit / trap.r**2, grid, b, int_b4, g)


def transverse_mode_numeric(kind: str, n_grid: int = 1500) -> tuple[float, float]:
    """Finite-difference radial eigensolve (cell-centered, Richardson in h):
    returns (e_perp_unit, int b^4).  Independent check of the closed forms."""
    from scipy.linalg import eigh_tridiagonal

    def solve_once(n):
        rmax = 6.0 if kind == "harmonic" else 1.0
        h = rmax / (n + 0.5)
        r = h * (np.arange(n) + 0.5)
        edges = h * np.arange(n + 1)
        ew = edges / h**2
        diag = (ew[:-1] + ew[1:]) / r
        off = -ew[1:-1] / np.sqrt(r[:-1] * r[1:])
        if kind == "harmonic":
            diag = diag + r**2
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        # eigenvector of the symmetrized operator; b = vec / sqrt(2 pi r h)
        b = vecs[:, 0] / np.sqrt(2.0 * math.pi * r * h)
        b /= math.sqrt(float(np.sum(2.0 * math.pi * r * h * b**2)))
        ib4 = float(np.sum(2.0 * math.pi * r * h * b**4))
        return float(vals[0]), ib4

    e1, i1 = solve_once(n_grid)
    e2, i2 = solve_once(2 * n_grid)
    # second-order scheme: Richardson step kills the h^2 term
    return (4.0 * e2 - e1) / 3.0, (4.0 * i2 - i1) / 3.0


# --------------------------------------------------------------------------
# the 1D functional hierarchy
# --------------------------------------------------------------------------

KINDS_1D = ("full", "gp1d", "tf1d", "ll_no_grad", "gt")


@dataclass(frozen=True)
class Profile1D:
    z: np.ndarray
    rho: np.ndarray
    mass: float

    def rho_bar(self) -> float:
        return float(np.trapezoid(self.rho**2, self.z) / self.mass)


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


def _curve_for(kind: str, ll: LLCurve | None) -> LLCurve | None:
    """The e(t) table a functional reads: ``ll``, or the shared table when
    none is given and the kind is one of the two that use e(t)."""
    if ll is None and kind in ("full", "ll_no_grad"):
        return default_curve()
    return ll


def _interaction_density(kind: str, rho: np.ndarray, g: float, curve) -> np.ndarray:
    """Interaction energy density w(rho) of a 1D functional."""
    if kind in ("gp1d", "tf1d"):
        return 0.5 * g * rho**2
    if kind == "gt":
        return PI2_3 * rho**3
    return np.where(rho > 0, rho**3 * curve.e(_ll_argument(g, rho)), 0.0)


def _minimize_gradient_kind(kind, N, L, g, s, curve, n_grid, rtol):
    zmax = _zmax_gradient(kind, N, L, g, s)
    V = lambda z: _v_long(z, L, s)
    q = lambda y, z: _interaction_density(kind, y, g, curve)
    if kind == "gp1d":
        dq = lambda y, z: g * y
    else:
        def dq(y, z):
            out = np.zeros_like(y)
            pos = y > 0
            yp = y[pos]
            e, de = curve.e_and_de(_ll_argument(g, yp))
            out[pos] = 3.0 * yp ** 2 * e - g * yp * de
            return out
    fp = flows.line_problem(zmax, n_grid, 1.0, V, q, dq, N)
    guess = np.sqrt(np.maximum(1.0 - (fp.nodes / (0.75 * zmax)) ** 2, 0.0)) + 1e-3
    res = flows.minimize_flow(fp, psi0=guess, rtol=rtol)
    if not res.converged:
        raise RuntimeError(f"1D minimization ({kind}) did not converge: "
                           f"residual {res.residual:.3e}")
    rho = res.psi**2
    prof = Profile1D(fp.nodes.copy(), rho, N)
    return prof, res.energy, float(np.sum(fp.w * rho**2) / N)


def _pointwise_density(kind, mu, V, g, curve):
    """The rho >= 0 that solves V + w'(rho) = mu pointwise (0 where V >= mu).

    ll_no_grad has w'(rho) = g^2 F(g/rho) with F from ``curve``, so
    rho = g / F^-1((mu - V)/g^2).  F jumps up across the table's t_min, so
    w' is not monotone near rho = g/t_min; ``LLCurve.f_inverse`` takes the
    smallest root, which keeps rho non-decreasing in mu - V."""
    target = np.maximum(mu - V, 0.0)
    if kind == "tf1d":
        return target / g
    if kind == "gt":
        return np.sqrt(target) / math.pi
    return g / curve.f_inverse(target / g**2)


def _minimize_pointwise_kind(kind, N, L, g, s, curve, n_grid):
    """tf1d / gt / ll_no_grad have no gradient term: the minimizer solves
    V(z) + w'(rho) = mu pointwise (``_pointwise_density``, in closed form
    or through ``LLCurve.f_inverse``), with mu fixed by normalization."""
    if kind == "ll_no_grad" and not g > 0:
        raise ValueError("ll_no_grad needs a positive coupling g")

    def support_grid(mu):
        # the support is |z| <= zedge, where V(zedge) = mu; cluster nodes at
        # its edge: the minimizers of gt (and, less severely, tf1d) meet zero
        # with a square-root profile there
        zedge = (mu * L ** (s + 2.0)) ** (1.0 / s)
        u = np.linspace(-1.0, 1.0, n_grid)
        return zedge * np.sin(0.5 * math.pi * u)

    def mass_at(mu):
        if mu <= 0:
            return 0.0
        z = support_grid(mu)
        rho = _pointwise_density(kind, mu, _v_long(z, L, s), g, curve)
        return float(np.trapezoid(rho, z))

    mu = normalization_root(mass_at, N)

    z = support_grid(mu)
    V = _v_long(z, L, s)
    rho = _pointwise_density(kind, mu, V, g, curve)
    energy = float(np.trapezoid(V * rho + _interaction_density(kind, rho, g, curve), z))
    prof = Profile1D(z, rho, N)
    return prof, energy, float(np.trapezoid(rho**2, z) / N)


def minimize_1d(kind: str, N: float, L: float, g: float, s: float = 2.0,
                ll: LLCurve | None = None, n_grid: int = 2048,
                rtol: float = 1e-9):
    """Minimize one of the five 1D functionals.

    Returns (Profile1D, energy, rho_bar).  ``full`` and ``gp1d`` run the
    constrained gradient flow; ``tf1d``, ``ll_no_grad`` and ``gt`` use their
    pointwise Lagrange solutions with a chemical-potential root-find.
    """
    if kind not in KINDS_1D:
        raise ValueError(f"unknown 1D functional kind {kind!r}")
    if N <= 0:
        raise ValueError("N must be positive")
    curve = _curve_for(kind, ll)
    if kind in ("full", "gp1d"):
        return _minimize_gradient_kind(kind, N, L, g, s, curve, n_grid, rtol)
    return _minimize_pointwise_kind(kind, N, L, g, s, curve, n_grid)


def functional_value(kind: str, prof: Profile1D, L: float, g: float,
                     s: float = 2.0, ll: LLCurve | None = None) -> float:
    """Evaluate a 1D functional on a given profile (gradient term by central
    differences of sqrt(rho))."""
    curve = _curve_for(kind, ll)
    z, rho = prof.z, prof.rho
    V = _v_long(z, L, s)
    val = float(np.trapezoid(V * rho + _interaction_density(kind, rho, g, curve), z))
    if kind in ("full", "gp1d"):
        srho = np.sqrt(rho)
        ds = np.gradient(srho, z)
        val += float(np.trapezoid(ds**2, z))
    return val


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


@dataclass(frozen=True)
class RegimeReport:
    region: int | tuple
    g: float
    rho_bar: float
    ratio: float
    validity_value: float
    valid: bool
    scaling: str
    diagnostics: dict

    def as_dict(self) -> dict:
        d = {"region": list(self.region) if isinstance(self.region, tuple) else self.region,
             "g": self.g, "rho_bar": self.rho_bar, "ratio": self.ratio,
             "validity_value": self.validity_value, "valid": self.valid,
             "scaling": self.scaling}
        d.update({f"diag_{k}": v for k, v in self.diagnostics.items()})
        return d


def _pick_region(ratio: float, N: float):
    """Region from g/rhobar against N^-2 and 1; returns an int, or a tuple
    of the two candidates when the ratio sits in a boundary band."""
    edges = [_CUT_LOW / N**2, _CUT_HIGH / N**2, _CUT_LOW, _CUT_HIGH]
    for region, edge in enumerate(edges, 1):
        if ratio < edge / _BOUNDARY_BAND:
            return region
        if ratio <= edge * _BOUNDARY_BAND:
            return (region, region + 1)
    return 5


def regime_classify(trap: ElongatedTrap,
                    ll: LLCurve | None = None) -> RegimeReport:
    """Classify an elongated trap into Regions 1-5.

    g comes from the transverse mode; rhobar from the full functional, then
    recomputed once with the region-consistent functional (single fixed-point
    pass; the iteration count is deliberately one).
    """
    curve = ll if ll is not None else default_curve()
    mode = transverse_mode(trap)
    g = mode.g
    _, _, rho_bar = minimize_1d("full", trap.N, trap.L, g, trap.s, curve)
    ratio0 = g / rho_bar
    region0 = _pick_region(ratio0, trap.N)
    kind = _REGION_KIND[region0 if isinstance(region0, int) else region0[0]]
    _, _, rho_bar1 = minimize_1d(kind, trap.N, trap.L, g, trap.s, curve)
    ratio1 = g / rho_bar1
    region1 = _pick_region(ratio1, trap.N)
    validity = trap.r**2 * rho_bar1 * min(rho_bar1, g)
    scaling = _REGION_SCALING[region1 if isinstance(region1, int)
                              else region1[0]]
    return RegimeReport(region1, g, rho_bar1, ratio1, validity,
                        validity < _VALIDITY_CUT, scaling,
                        {"rho_bar_full": rho_bar, "ratio_full": ratio0,
                         "region_first_pass": region0
                         if isinstance(region0, int) else list(region0),
                         "e_perp": mode.e_perp})


# --------------------------------------------------------------------------
# finite-box brackets
# --------------------------------------------------------------------------

def box_bounds_1d(n: float, ell: float, r: float, a: float,
                  E1D_N: float, E1D_D: float, C: float = 1.0) -> tuple[float, float]:
    """Finite-box bracket around E_QM - n e_perp / r^2.

    lower = E1D_N (1 - C n (a/r)^{1/8} [1 + (n r / ell)(a/r)^{1/8}])
    upper = E1D_D (1 + C [(n a / r)^2 (1 + a ell / r^2)]^{1/3}),
    the upper form valid only while its square-bracket term is below 1.
    """
    if min(n, ell, r) <= 0 or a < 0:
        raise ValueError("parameters must be positive")
    x = (a / r) ** 0.125
    lower = E1D_N * (1.0 - C * n * x * (1.0 + (n * r / ell) * x))
    bracket = (n * a / r) ** 2 * (1.0 + a * ell / r**2)
    if bracket >= 1.0:
        raise ValueError("upper-bound bracket term must be below 1")
    upper = E1D_D * (1.0 + C * bracket ** (1.0 / 3.0))
    return lower, upper
