"""Zero-energy two-body scattering in 2D and 3D.

The radial zero-energy equation

    -2 mu u''(r) + v(r) u(r) = 0,   u(0) = 0          (3D, u = r psi)

is linear, so one step over [r_i, r_{i+1}] maps (u, u') by a 2x2 matrix.
Only the interior [0, R0] is propagated.  Inside a 3D soft sphere the step
is exact, [[cosh kh, sinh kh / k], [k sinh kh, cosh kh]] with
k = sqrt(v / 2 mu) and e^{kh} kept as a log scale; elsewhere it is one
classical Runge-Kutta step (4th order, global error O(h^4)).  All step
matrices are built with array operations and combined by a log-depth
prefix product whose entries are rescaled above 1e100, so the path never
overflows.  Every solve also reports ``a`` on a 2x refined grid; that
check needs only the state at R0, so it takes the total product of the
step matrices alone, a pairwise tree grouped like the prefix product's
last column (bit for bit the same), with no path and no exterior grid.

Outside the range R0 the solution follows in closed form from its state
(u, u') at R0.  In 3D it is linear, u(r) = u'(R0) (r - a), which defines
the scattering length

    a = R0 - u(R0) / u'(R0).

In 2D the regular solution psi(r) of -2 mu (psi'' + psi'/r) + v psi = 0 is
psi(R0) + R0 psi'(R0) ln(r/R0) outside, proportional to ln(r/a) with

    a = R0 exp(-psi(R0) / (R0 psi'(R0))).

The kinetic fraction s and the energy identity read the same interior
integrals (K, P), Simpson on the interior nodes, taken once per solve and
stored on the solution; outside R0, psi0 = 1 - a/r is
exact, so the exterior enters both in closed form and the identity's
residual does not depend on the radius R it is checked at.

Hard cores are a boundary condition, never a large finite barrier: the
interior is empty and the state at the core radius is (u, u') = (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .config import N_GRID_MIN
from .quadrature import simpson

_HARD_CORE = "hard_core"
_SOFT_SPHERE = "soft_sphere"
_TABULATED = "tabulated"
_BIG = 1e100          # rescaling threshold of the propagator
_RMAX_FACTOR = 8.0    # the grid extends to _RMAX_FACTOR * R0
_UNIT_A_TOL = 1e-6    # largest |a - 1| scale_potential accepts of its input


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """Nonnegative, finite-range, spherically symmetric pair potential.

    kind        one of 'hard_core', 'soft_sphere', 'tabulated'
    core_radius range R0 of the potential (core radius for hard cores)
    height      barrier height v0, soft spheres only
    samples     (r, v(r)) pairs with strictly increasing r, as pairs or an
                (n, 2) array, tabulated only
    dimension   2 or 3

    Potentials compare by identity, since ``samples`` may be an array.
    """

    kind: str
    core_radius: float
    height: float = 0.0
    samples: tuple = ()
    dimension: int = 3
    _rs: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _vs: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (_HARD_CORE, _SOFT_SPHERE, _TABULATED):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if not 0.0 <= self.core_radius < math.inf:
            raise ValueError("core radius must be finite and nonnegative")
        if not 0.0 <= self.height < math.inf:
            raise ValueError("height must be finite and nonnegative")
        if self.kind == _TABULATED:
            pts = np.asarray(self.samples, dtype=float)
            if len(pts) < 2:
                raise ValueError("tabulated potential needs at least 2 samples")
            rs, vs = np.ascontiguousarray(pts.T)
            if not (rs[0] >= 0 and np.isfinite(rs).all() and np.all(np.diff(rs) > 0)):
                raise ValueError("tabulated r must be finite, >= 0 and strictly increasing")
            if not np.all((vs >= 0) & (vs < math.inf)):
                raise ValueError("tabulated v must be finite and nonnegative")
            object.__setattr__(self, "_rs", rs)
            object.__setattr__(self, "_vs", vs)

    # --- evaluation -----------------------------------------------------
    def __call__(self, r):
        """v(r), vectorized; hard cores return 0 (the core is a boundary
        condition, not a value)."""
        r = np.asarray(r, dtype=float)
        if self.kind == _HARD_CORE:
            return np.zeros_like(r)
        if self.kind == _SOFT_SPHERE:
            return np.where(r < self.core_radius, self.height, 0.0)
        out = np.interp(r, self._rs, self._vs, left=self._vs[0], right=0.0)
        return np.where(r > self.core_radius, 0.0, out)


def hard_core(radius: float, dimension: int = 3) -> RadialPotential:
    return RadialPotential(_HARD_CORE, radius, dimension=dimension)


def soft_sphere(radius: float, height: float, dimension: int = 3) -> RadialPotential:
    return RadialPotential(_SOFT_SPHERE, radius, height=height, dimension=dimension)


@dataclass(frozen=True)
class GridSpec:
    """Radial grid: n points out to _RMAX_FACTOR * R0."""

    n: int = 4096

    def __post_init__(self):
        if self.n < N_GRID_MIN:
            raise ValueError(
                f"grid needs n >= {N_GRID_MIN} points, got {self.n}")


@dataclass(frozen=True)
class ScatteringSolution:
    """Radial zero-energy profile with extracted scattering data.

    grid / u hold u0(r) in 3D and psi(r) in 2D; ``a`` is the scattering
    length, ``s`` the kinetic fraction int |grad psi0|^2 / (4 pi a) (3D
    with a > 0 only, else None), ``mu`` the kinetic coefficient
    hbar^2/2m, ``a_refined`` the value from a 2x finer grid (Richardson
    check), ``integrals`` the interior (K, P) that ``s`` and
    ``energy_identity_residual`` read (with ``s``, else None).

    For the exact solution s lies in (0, 1], 1 for a hard core only: the
    potential's share of 4 pi a is 1 - s >= 0.  The interior Simpson sum
    of psi0'^2 r^2 overshoots it on stiff soft spheres, whose boundary
    layer, about 1/sqrt(v0) wide, is far below the grid step: ``s`` is
    1.00051 for ``soft_sphere(1, 1e8)`` and 1.00065 at v0 = 1e12 and 1e16
    (0.99283 at 1e4).
    """

    grid: np.ndarray
    u: np.ndarray
    a: float
    s: float | None
    mu: float
    dimension: int
    core_radius: float
    du: np.ndarray = field(repr=False)
    a_refined: float
    integrals: tuple | None = field(repr=False)

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,u\n")
            for r, u in zip(self.grid, self.u):
                fh.write(f"{float(r)!r},{float(u)!r}\n")


def _exact_steps(h: np.ndarray, q: float):
    """Exact steps of u'' = q u for a constant q >= 0, as (P, s) with the
    growth e^{kappa h}, kappa = sqrt(q), factored out into s."""
    zero = np.zeros_like(h)
    if q == 0.0:
        one = zero + 1.0
        return np.array([one, h, zero, one]), zero
    kappa = math.sqrt(q)
    x = kappa * h
    sh = -0.5 * np.expm1(-2.0 * x)      # e^-x sinh x
    ch = 1.0 - sh                       # e^-x cosh x
    return np.array([ch, sh / kappa, kappa * sh, ch]), x


def _rk4_steps(h: np.ndarray, r, q, two_d: bool) -> np.ndarray:
    """Classical RK4 steps of (u, w)' = (w, q u), minus w / r in 2D.

    r and q hold the values at the (left, midpoint, right) nodes of each
    step.  The stage formulas act on the unit states (1, 0) and (0, 1),
    which gives the two columns of each step matrix.
    """
    def g(k, u, w):
        return q[k] * u - w / r[k] if two_d else q[k] * u

    cols = []
    for u, w in ((1.0, 0.0), (0.0, 1.0)):
        k1u, k1w = w, g(0, u, w)
        u2, w2 = u + 0.5 * h * k1u, w + 0.5 * h * k1w
        k2u, k2w = w2, g(1, u2, w2)
        u3, w3 = u + 0.5 * h * k2u, w + 0.5 * h * k2w
        k3u, k3w = w3, g(1, u3, w3)
        u4, w4 = u + h * k3u, w + h * k3w
        k4u, k4w = w4, g(2, u4, w4)
        cols.append((u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
                     w + (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)))
    (a, c), (b, d) = cols
    return np.array([a, b, c, d])


def _interior_steps(v: RadialPotential, mu: float, *grids: np.ndarray) -> list:
    """Step matrices of each interior grid as (P, s): P holds the entries
    (a, b, c, d) as four rows, one column per step, with
    (u, u')(r_{i+1}) = e^{s_i} [[a_i, b_i], [c_i, d_i]] (u, u')(r_i).

    At R0 the inside-limit value of v is used.  A soft sphere in 3D takes
    exact steps, every other potential RK4.  The steps of all grids are
    built side by side in one pass and then split: each step's entries
    depend on its own nodes alone, so they are those of its grid built
    alone, bit for bit, at a fraction of the per-call numpy overhead.  Each
    grid's P is copied out whole, since the products run faster on rows
    that lie together than on views of the joint array.
    """
    r = np.concatenate([grid[:-1] for grid in grids])
    h = np.concatenate([np.diff(grid) for grid in grids])
    q0 = v.height / (2.0 * mu)
    if v.kind != _TABULATED and v.dimension == 3:
        P, s = _exact_steps(h, q0)
    else:
        nodes = (r, r + 0.5 * h, r + h)
        q = ([v(np.minimum(x, v.core_radius)) / (2.0 * mu) for x in nodes]
             if v.kind == _TABULATED else (q0, q0, q0))
        P, s = _rk4_steps(h, nodes, q, v.dimension == 2), np.zeros_like(h)
    steps, lo = [], 0
    for grid in grids:
        hi = lo + len(grid) - 1
        steps.append((P[:, lo:hi].copy(), s[lo:hi]))
        lo = hi
    return steps


def _times(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """The products later @ earlier of two rows of 2x2 matrices, each held
    as a column (a, b, c, d): entry (i, j) is L_i0 E_0j + L_i1 E_1j."""
    L, E = later.reshape(2, 2, 1, -1), earlier.reshape(1, 2, 2, -1)
    return (L[:, 0] * E[:, 0] + L[:, 1] * E[:, 1]).reshape(4, -1)


def _rescale(P: np.ndarray):
    """Divide each matrix whose largest entry exceeds _BIG by that entry,
    in place; returns the logs of the divisors (0.0 when none does)."""
    top = np.abs(P).max(axis=0)
    if top.max() <= _BIG:
        return 0.0
    top[top <= _BIG] = 1.0
    P /= top
    return np.log(top)


def _prefix_products(P: np.ndarray, s: np.ndarray) -> None:
    """Replace the step matrices by their prefix products P_i ... P_0, in
    place, by a Hillis-Steele scan (log2 n levels of array operations).

    Each product is e^s [[a, b], [c, d]], rescaled after every level so
    that no entry overflows.
    """
    k = 1
    while k < P.shape[1]:
        P[:, k:] = _times(P[:, k:], P[:, :-k])
        s[k:] = s[k:] + s[:-k]
        s += _rescale(P)
        k *= 2


def _total_product(P: np.ndarray, s: np.ndarray):
    """The full product P_{n-1} ... P_0 as one column (P, s): the last
    column of ``_prefix_products``, bit for bit, at n - 1 matrix products
    instead of ~n log2 n.

    At each level the scan's last column combines the entries at indices
    n-1, n-1-k, n-1-2k, ... pairwise from the right, so a pairwise tree
    grouped from the right end, with the same rescaling after each level,
    forms the same products in the same order.
    """
    while P.shape[1] > 1:
        o = P.shape[1] % 2                  # an odd count leaves the first alone
        P = np.concatenate((P[:, :o], _times(P[:, o + 1::2], P[:, o::2])), axis=1)
        s = np.concatenate((s[:o], s[o + 1::2] + s[o::2]))
        s += _rescale(P)
    return P, s


def _path(P: np.ndarray, s: np.ndarray, u0: float, w0: float):
    """The states (u, u') that the products (P, s) take (u0, w0) to,
    behind the start state itself.

    The path keeps the start normalization unless an entry would exceed
    _BIG; then the whole path is divided by its largest entry.  A path
    that cancels to zero under a huge log scale comes out NaN at R0,
    where the caller checks it.
    """
    u = np.concatenate(([u0], P[0] * u0 + P[1] * w0))
    w = np.concatenate(([w0], P[2] * u0 + P[3] * w0))
    s = np.concatenate(([0.0], s))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top = np.max(s + np.log(np.maximum(np.abs(u), np.abs(w))))
        scale = np.exp(s - (top if top > math.log(_BIG) else 0.0))
        return u * scale, w * scale


def _interior(v: RadialPotential, mu: float, n: int, rmax: float):
    """The interior grid [start, R0] of an n-point solve and the start state
    (u0, w0) on it; u is r psi in 3D and psi in 2D.

    The interior has n_in + 1 uniform nodes, n_in the share of n that
    [start, R0] has of [start, rmax]; a hard core has the single node R0.
    """
    r0 = v.core_radius
    if v.kind == _HARD_CORE:
        start, u0, w0 = r0, 0.0, 1.0
    elif v.dimension == 2:
        # regular series psi = 1 + c r^2 / 4 at the first node
        start = rmax / (10.0 * n)
        c = float(v(start)) / (2.0 * mu)
        u0, w0 = 1.0 + 0.25 * c * start**2, 0.5 * c * start
    else:
        start, u0, w0 = 0.0, 0.0, 1.0
    if r0 <= start:
        return np.array([r0]), u0, w0
    n_in = max(32, int(round(n * ((r0 - start) / (rmax - start)))))
    return np.linspace(start, r0, n_in + 1), u0, w0


def _scattering_length(v: RadialPotential, uR: float, wR: float) -> float:
    """``a`` from the state (u, u') at R0: R0 - u/u' in 3D and
    R0 exp(-psi / (R0 psi')) in 2D."""
    r0 = v.core_radius
    if not (math.isfinite(uR) and math.isfinite(wR)):
        raise ValueError("interior solution is not finite at R0")
    if v.dimension == 2:
        slope = r0 * wR                 # psi = uR + slope ln(r / R0) outside
        if slope <= 0:                  # v = 0 leaves psi' = 0 exactly
            raise ValueError("no logarithmic asymptote")
        return r0 * math.exp(-uR / slope)
    if wR == 0.0:
        raise ValueError("degenerate exterior solution")
    return r0 - uR / wR                 # u = wR (r - a) outside


def _solve(v: RadialPotential, mu: float, n: int, rmax: float):
    """(grid, u, u', a) on an n-point grid, then ``a`` on the 2n-point grid.

    The equation is u'' = v u / (2 mu) in 3D (u = r psi) and
    psi'' = v psi / (2 mu) - psi' / r in 2D.  It is linear, so the n-point
    path across the interior is the prefix products of its step matrices
    applied to the start state; the nodes on (R0, rmax] continue the state
    at R0 in closed form, n_out = max(32, n - n_in) of them, or n - 1 after
    an empty interior.  The steps of both grids come from one
    ``_interior_steps`` call.

    The 2n-point ``a`` needs only the state at R0: it is read from the
    total product of that grid's steps, with no path and no exterior grid.
    It is the ``a`` of the 2n-point path bit for bit unless that path
    exceeds _BIG at a node before R0 by more than at R0; u and u' grow
    along every 3D interior and inside 2D soft discs.
    """
    inner, u0, w0 = _interior(v, mu, n, rmax)
    fine, fine_u0, fine_w0 = _interior(v, mu, 2 * n, rmax)
    (P, s), fine_steps = _interior_steps(v, mu, inner, fine)
    _prefix_products(P, s)
    u, w = _path(P, s, u0, w0)
    uR, wR = float(u[-1]), float(w[-1])
    a = _scattering_length(v, uR, wR)
    r0, n_in = v.core_radius, len(inner) - 1
    outer = np.linspace(r0, rmax, (max(32, n - n_in) if n_in else n - 1) + 1)[1:]
    if v.dimension == 2:
        slope = r0 * wR
        u_out, w_out = uR + slope * np.log(outer / r0), slope / outer
    else:
        u_out, w_out = uR + wR * (outer - r0), np.full_like(outer, wR)
    fine_u, fine_w = _path(*_total_product(*fine_steps), fine_u0, fine_w0)
    a_refined = _scattering_length(v, float(fine_u[-1]), float(fine_w[-1]))
    return (np.concatenate((inner, outer)), np.concatenate((u, u_out)),
            np.concatenate((w, w_out)), a, a_refined)


def solve_zero_energy(v: RadialPotential, mu: float = 1.0,
                      grid_spec: GridSpec = GridSpec()) -> ScatteringSolution:
    """Solve the zero-energy scattering problem and extract a, s.

    Propagates the regular solution across the interior [0, R0] (from
    u(R0) = 0, u'(R0) = 1 for a hard core, with no step) and reads ``a``
    from its state at R0: a = R0 - u/u' in 3D, and
    a = R0 exp(-psi/(R0 psi')) in 2D.  Outside R0 the profile is the closed
    form through that state.  ``a_refined`` is ``a`` on a 2x refined grid,
    read from the total product of its steps.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    r_ref = v.core_radius if v.core_radius > 0 else 1.0
    rmax = _RMAX_FACTOR * r_ref

    grid, u, du, a, a2 = _solve(v, mu, grid_spec.n, rmax)
    s = integrals = None
    if v.dimension == 3 and a > 0:
        integrals = _interior_integrals(grid, u, du, v, mu)
        # s = int |grad psi0|^2 / (4 pi a) = K/a + a/R0: psi0' = a/r^2 outside
        # (no a^2, which under- or overflows at extreme R0)
        s = integrals[0] / a + a / v.core_radius
    return ScatteringSolution(grid, u, a, s, mu, v.dimension, v.core_radius,
                              du=du, a_refined=a2, integrals=integrals)


def _interior_integrals(grid, u, du, v: RadialPotential, mu: float):
    """(K, P) = (int psi0'^2 r^2 dr, int v psi0^2 r^2 dr / (2 mu)) over
    [0, R0], by Simpson on the interior nodes, with psi0 = u / r scaled by
    the exterior slope du[-1] of u, so that psi0 -> 1 at infinity.  At R0
    the inside-limit value of v is used.  A hard core's interior is the
    one node R0, where both are 0."""
    k = int(np.searchsorted(grid, v.core_radius, side="right"))
    if k < 2:
        return 0.0, 0.0
    r, u, du = grid[:k], u[:k], du[:k]
    with np.errstate(divide="ignore", invalid="ignore"):
        dpsi = np.where(r > 0, (du * r - u) / np.maximum(r, 1e-300) ** 2, 0.0) / du[-1]
        psi = np.where(r > 0, u / np.maximum(r, 1e-300), 0.0) / du[-1]
    vv = np.full(k, v.height) if v.kind == _SOFT_SPHERE else v(np.minimum(r, v.core_radius))
    return simpson(dpsi**2 * r**2, r), simpson(vv * psi**2 * r**2, r) / (2.0 * mu)


def energy_identity_residual(sol: ScatteringSolution, v: RadialPotential,
                             R: float) -> dict:
    """Check int_{|x|<=R} {2 mu |grad psi0|^2 + v psi0^2} = 8 pi mu a (1 - a/R).

    lhs = 8 pi mu (K + P + a^2 (1/R0 - 1/R)): the solution's interior
    (K, P), exact outside, where psi0 = 1 - a/r.  ``v`` must be the solved
    potential's dimension and range.  Returns lhs, rhs, R and the residual
    |lhs - rhs| / (8 pi mu a), which has no R in it: it is |s_K - s_P|, the
    gap between the routes s_K = K/a + a/R0 and s_P = 1 - P/a to ``s``.
    """
    if sol.dimension != 3:
        raise ValueError("identity check is 3D only")
    if (v.dimension, v.core_radius) != (sol.dimension, sol.core_radius):
        raise ValueError("potential is not the one the solution solved")
    if R < v.core_radius:
        raise ValueError("R must be at least the core radius")
    if sol.integrals is None:
        raise ValueError("identity check requires a > 0")
    mu, a, r0 = sol.mu, sol.a, v.core_radius
    K, P = sol.integrals
    lhs = 8.0 * np.pi * mu * (K + P + a * (a / r0 - a / R))
    rhs = 8.0 * np.pi * mu * a * (1.0 - a / R)
    return {"lhs": float(lhs), "rhs": float(rhs), "R": float(R),
            "residual": float(abs(K + P - a * (1.0 - a / r0)) / a)}


def scale_potential(v: RadialPotential, a_target: float) -> RadialPotential:
    """Rescale a unit-scattering-length potential (at mu = 1) to scattering
    length ``a_target`` via v(x) -> a^-2 v1(x/a)."""
    if a_target <= 0:
        raise ValueError("target scattering length must be positive")
    base = solve_zero_energy(v)
    if abs(base.a - 1.0) > _UNIT_A_TOL:
        raise ValueError(f"base potential has scattering length {base.a}, not 1")
    lam = a_target
    if v.kind == _HARD_CORE:
        return hard_core(lam * v.core_radius, v.dimension)
    if v.kind == _SOFT_SPHERE:
        return soft_sphere(lam * v.core_radius, v.height / lam**2, v.dimension)
    samples = tuple((lam * r, vv / lam**2) for r, vv in v.samples)
    return RadialPotential(_TABULATED, lam * v.core_radius, samples=samples,
                           dimension=v.dimension)


# --- file interface -----------------------------------------------------

_HEADERS = {"dimension": int, "R0": float}


def _check_rows(path, stop=None) -> None:
    """Raise ValueError naming the first data line (before line ``stop``)
    of a potential file that is not two finite numbers."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno == stop:
                return
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    r, vv = map(float, line.replace(",", " ").split())
                    if not (math.isfinite(r) and math.isfinite(vv)):
                        raise ValueError("r and v must be finite")
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None


def load_potential(path) -> RadialPotential:
    """Two-column text file (r, v) with '# dimension=' and '# R0=' headers;
    a malformed one raises ValueError, naming the first line at fault.

    One pass over the lines sorts the headers from the data rows, and one
    conversion streams every token through ``float`` into the array; only
    when that fails is the file read again to name the bad line.
    """
    headers, rows = {}, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                if key in _HEADERS:
                    try:
                        headers[key] = _HEADERS[key](value)
                    except ValueError as exc:
                        _check_rows(path, lineno)
                        raise ValueError(f"line {lineno}: {exc}") from None
            elif line:
                rows.append(line.replace(",", " "))
    try:
        if set(map(len, map(str.split, rows))) - {2}:
            raise ValueError("a data row is not two numbers")
        pts = np.fromiter(map(float, chain.from_iterable(map(str.split, rows))),
                          float, 2 * len(rows)).reshape(-1, 2)
        if not np.isfinite(pts).all():
            raise ValueError("r and v must be finite")
    except ValueError:
        _check_rows(path)
        raise
    if len(headers) < 2:
        raise ValueError("potential file must carry '# dimension=' and '# R0=' headers")
    r_last = float(pts[-1, 0]) if len(pts) else 0.0
    R0 = headers["R0"]
    if math.isclose(r_last, R0, rel_tol=1e-9, abs_tol=1e-9):
        R0 = r_last
    return RadialPotential(_TABULATED, R0, samples=pts, dimension=headers["dimension"])
