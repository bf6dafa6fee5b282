"""Zero-energy two-body scattering in 2D and 3D.

The radial zero-energy equation

    -2 mu u''(r) + v(r) u(r) = 0,   u(0) = 0          (3D, u = r psi)

is integrated with a fixed-step classical Runge-Kutta scheme (4th order,
global error O(h^4); a 2x Richardson refinement is reported alongside every
solve).  Outside the range of the potential the solution is exactly linear,
u(r) = c (r - a), which defines the scattering length

    a = lim r - u(r)/u'(r).

In 2D the regular solution psi(r) of -2 mu (psi'' + psi'/r) + v psi = 0 grows
like ln(r/a) outside the range; ``a`` is extracted by a least-squares fit of
psi against ln r on the outer half of the exterior region, which is far less
noisy than pointwise extraction under a log asymptote.

Hard cores are treated as a boundary condition (integration starts at the
core radius with u = 0), never as a large finite barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import simpson

_HARD_CORE = "hard_core"
_SOFT_SPHERE = "soft_sphere"
_TABULATED = "tabulated"


@dataclass(frozen=True)
class RadialPotential:
    """Nonnegative, finite-range, spherically symmetric pair potential.

    kind        one of 'hard_core', 'soft_sphere', 'tabulated'
    core_radius range R0 of the potential (core radius for hard cores)
    height      barrier height v0, soft spheres only
    samples     (r, v(r)) pairs with strictly increasing r, tabulated only
    dimension   2 or 3
    """

    kind: str
    core_radius: float
    height: float = 0.0
    samples: tuple = ()
    dimension: int = 3

    def __post_init__(self):
        if self.kind not in (_HARD_CORE, _SOFT_SPHERE, _TABULATED):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.core_radius < 0:
            raise ValueError("core radius must be nonnegative")
        if self.kind == _SOFT_SPHERE and self.height < 0:
            raise ValueError("negative potential sample")
        if self.kind == _TABULATED:
            rs = np.asarray([p[0] for p in self.samples], dtype=float)
            vs = np.asarray([p[1] for p in self.samples], dtype=float)
            if len(rs) < 2:
                raise ValueError("tabulated potential needs at least 2 samples")
            if np.any(np.diff(rs) <= 0):
                raise ValueError("tabulated samples must be strictly increasing in r")
            if np.any(vs < 0):
                raise ValueError("negative potential sample")

    # --- evaluation -----------------------------------------------------
    def __call__(self, r):
        """v(r), vectorized; hard cores return 0 (the core is a boundary
        condition, not a value)."""
        r = np.asarray(r, dtype=float)
        if self.kind == _HARD_CORE:
            return np.zeros_like(r)
        if self.kind == _SOFT_SPHERE:
            return np.where(r < self.core_radius, self.height, 0.0)
        rs = np.array([p[0] for p in self.samples])
        vs = np.array([p[1] for p in self.samples])
        out = np.interp(r, rs, vs, left=vs[0], right=0.0)
        return np.where(r > self.core_radius, 0.0, out)

    @property
    def is_trivial(self) -> bool:
        """True when v is identically zero."""
        if self.kind == _HARD_CORE:
            return self.core_radius == 0.0
        if self.kind == _SOFT_SPHERE:
            return self.height == 0.0
        return all(p[1] == 0.0 for p in self.samples)


def hard_core(radius: float, dimension: int = 3) -> RadialPotential:
    return RadialPotential(_HARD_CORE, radius, dimension=dimension)


def soft_sphere(radius: float, height: float, dimension: int = 3) -> RadialPotential:
    return RadialPotential(_SOFT_SPHERE, radius, height=height, dimension=dimension)


def tabulated(samples, dimension: int = 3) -> RadialPotential:
    samples = tuple((float(r), float(v)) for r, v in samples)
    return RadialPotential(_TABULATED, samples[-1][0], samples=samples,
                           dimension=dimension)


@dataclass(frozen=True)
class GridSpec:
    """Radial grid: n points out to rmax_factor * R0 (>= 4 required)."""

    n: int = 4096
    rmax_factor: float = 8.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("non-positive grid")
        if self.rmax_factor < 4.0:
            raise ValueError("grid must extend beyond R0 by a factor >= 4")


@dataclass(frozen=True)
class ScatteringSolution:
    """Radial zero-energy profile with extracted scattering data.

    grid / u hold u0(r) in 3D and psi(r) in 2D; ``a`` is the scattering
    length, ``s`` the kinetic fraction (3D only, None in 2D), ``mu`` the
    kinetic coefficient hbar^2/2m, ``a_refined`` the value from a 2x finer
    grid (Richardson check).
    """

    grid: np.ndarray
    u: np.ndarray
    a: float
    s: float | None
    mu: float
    dimension: int
    core_radius: float
    du: np.ndarray = field(default=None, repr=False)
    a_refined: float = field(default=float("nan"))

    def psi(self) -> np.ndarray:
        """psi normalized to 1 at infinity (3D)."""
        if self.dimension != 3:
            raise ValueError("psi() is the 3D normalization")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.grid > 0, self.u / np.where(self.grid > 0, self.grid, 1.0), 0.0)
        return out

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,u\n")
            for r, u in zip(self.grid, self.u):
                fh.write(f"{float(r)!r},{float(u)!r}\n")


def _rk4_path(f: Callable, g: Callable, grid: np.ndarray, y0, y1):
    """RK4 for the system (u, w)' = (f(r,u,w), g(r,u,w)) along ``grid``."""
    n = len(grid)
    us = np.empty(n)
    ws = np.empty(n)
    u, w = float(y0), float(y1)
    us[0], ws[0] = u, w
    for i in range(n - 1):
        r = grid[i]
        h = grid[i + 1] - r
        rh = r + 0.5 * h
        k1u, k1w = f(r, u, w), g(r, u, w)
        k2u, k2w = f(rh, u + 0.5 * h * k1u, w + 0.5 * h * k1w), g(rh, u + 0.5 * h * k1u, w + 0.5 * h * k1w)
        k3u, k3w = f(rh, u + 0.5 * h * k2u, w + 0.5 * h * k2w), g(rh, u + 0.5 * h * k2u, w + 0.5 * h * k2w)
        k4u, k4w = f(r + h, u + h * k3u, w + h * k3w), g(r + h, u + h * k3u, w + h * k3w)
        u += (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        w += (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
        us[i + 1], ws[i + 1] = u, w
    return us, ws


def _segment_grids(start: float, r0: float, rmax: float, n: int):
    """Uniform grids per smooth segment, with r0 an exact endpoint.

    The potential may jump at its range r0; integrating each segment
    separately keeps the integrator at full order.
    """
    if r0 <= start:
        return [np.linspace(start, rmax, n)]
    frac = (r0 - start) / (rmax - start)
    n_in = max(32, int(round(n * frac)))
    n_out = max(32, n - n_in)
    inner = np.linspace(start, r0, n_in + 1)
    outer = np.linspace(r0, rmax, n_out + 1)
    return [inner, outer]


def _v_on_segment(v: RadialPotential, r_right: float):
    """Potential restricted to a segment ending at r_right; at the shared
    boundary node the inside-limit value is used."""
    if r_right <= v.core_radius * (1 + 1e-15):
        if v.kind == _SOFT_SPHERE:
            return lambda r: v.height
        cap = v.core_radius
        return lambda r: float(v(min(r, cap)))
    return lambda r: 0.0


def _integrate_segments(v: RadialPotential, mu: float, segs, u0: float,
                        w0: float):
    """RK4 across consecutive segment grids, each starting from the end
    state of the previous one; returns the joined (grid, u, u').

    The equation is u'' = v u / (2 mu) in 3D (u = r psi) and
    psi'' = v psi / (2 mu) - psi' / r in 2D.
    """
    f = lambda r, u, w: w
    grids, us, ws = [], [], []
    for k, seg in enumerate(segs):
        vseg = _v_on_segment(v, seg[-1])
        if v.dimension == 3:
            g = lambda r, u, w, _vs=vseg: _vs(r) * u / (2.0 * mu)
        else:
            g = lambda r, u, w, _vs=vseg: _vs(r) * u / (2.0 * mu) - w / r
        uu, ww = _rk4_path(f, g, seg, u0, w0)
        sl = slice(1, None) if k > 0 else slice(None)
        grids.append(seg[sl]); us.append(uu[sl]); ws.append(ww[sl])
        u0, w0 = uu[-1], ww[-1]
    return np.concatenate(grids), np.concatenate(us), np.concatenate(ws)


def _solve_3d(v: RadialPotential, mu: float, n: int, rmax: float):
    r0 = v.core_radius
    if v.kind == _HARD_CORE:
        # exterior solution is exactly linear: u = r - R0
        grid = np.linspace(r0, rmax, n)
        u = grid - r0
        return grid, u, np.ones_like(grid), float(r0)

    grid, u, up = _integrate_segments(v, mu, _segment_grids(0.0, r0, rmax, n),
                                      0.0, 1.0)
    if up[-1] == 0.0:
        raise ValueError("degenerate exterior solution")
    a = grid[-1] - u[-1] / up[-1]
    return grid, u, up, float(a)


def _fit_log_asymptote(r: np.ndarray, psi: np.ndarray) -> float:
    """Least squares psi ~= A ln r + B on the given window -> a = exp(-B/A)."""
    x = np.log(r)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, psi, rcond=None)
    slope, intercept = coef
    if slope <= 0:
        raise ValueError("no logarithmic asymptote")
    return float(np.exp(-intercept / slope))


def _solve_2d(v: RadialPotential, mu: float, n: int, rmax: float):
    r0 = v.core_radius
    if v.is_trivial:
        raise ValueError("no logarithmic asymptote")
    if v.kind == _HARD_CORE:
        start = r0
        u0, w0 = 0.0, 1.0
    else:
        start = rmax / (10.0 * n)
        c = float(v(start)) / (2.0 * mu)
        u0, w0 = 1.0 + 0.25 * c * start**2, 0.5 * c * start

    segs = _segment_grids(start, r0 if r0 > start else start, rmax, n)
    grid, psi, dpsi = _integrate_segments(v, mu, segs, u0, w0)
    outer = grid >= 0.5 * (r0 + rmax)
    a = _fit_log_asymptote(grid[outer], psi[outer])
    return grid, psi, dpsi, a


def solve_zero_energy(v: RadialPotential, mu: float = 1.0,
                      grid_spec: GridSpec = GridSpec()) -> ScatteringSolution:
    """Solve the zero-energy scattering problem and extract a, s.

    3D: integrates u'' = v u / (2 mu) outward from u(0)=0 (or u(R0)=0 for a
    hard core, handled analytically) and reads off a = r - u/u' at the outer
    boundary.  2D: integrates the regular radial solution and fits the
    ln(r/a) asymptote.  The solve is repeated on a 2x refined grid; the
    refined value is stored in ``a_refined``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    r_ref = v.core_radius if v.core_radius > 0 else 1.0
    rmax = grid_spec.rmax_factor * r_ref

    solve = _solve_3d if v.dimension == 3 else _solve_2d
    grid, u, du, a = solve(v, mu, grid_spec.n, rmax)
    _, _, _, a2 = solve(v, mu, 2 * grid_spec.n, rmax)
    s = _kinetic_fraction(grid, u, du, a, rmax) if v.dimension == 3 and a > 0 else None
    return ScatteringSolution(grid, u, a, s, mu, v.dimension, v.core_radius,
                              du=du, a_refined=a2)


def _psi0_prime(r, u, du) -> np.ndarray:
    """psi0' = (u / r)' scaled by the exterior slope du[-1] of u, so that
    psi0 -> 1 at infinity; 0 at r = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0, (du * r - u) / np.maximum(r, 1e-300) ** 2, 0.0) / du[-1]


def _kinetic_fraction(grid, u, du, a, rmax) -> float:
    # s = int |grad psi0|^2 / (4 pi a) with psi0 -> 1 at infinity;
    # analytic tail a^2/rmax accounts for r > rmax where psi0' = a/r^2
    integrand = _psi0_prime(grid, u, du)**2 * grid**2
    s = (simpson(integrand, grid) + a**2 / rmax) / a
    return float(s)


def s_parameter(sol: ScatteringSolution) -> float:
    """Kinetic fraction s = int|grad psi0|^2/(4 pi a), in (0, 1]."""
    if sol.dimension != 3:
        raise ValueError("s parameter is defined for 3D solutions")
    if sol.a <= 0:
        raise ValueError("s parameter undefined for a <= 0")
    assert sol.s is not None
    return sol.s


def energy_identity_residual(sol: ScatteringSolution, v: RadialPotential,
                             R: float) -> dict:
    """Check int_{|x|<=R} {2 mu |grad psi0|^2 + v psi0^2} = 8 pi mu a (1 - a/R).

    Returns lhs, rhs and the dimensionless residual |lhs-rhs| / (8 pi mu a),
    evaluated by radial Simpson quadrature on the solver grid.
    """
    if sol.dimension != 3:
        raise ValueError("identity check is 3D only")
    if R < v.core_radius:
        raise ValueError("R must be at least the core radius")
    if sol.a <= 0:
        raise ValueError("identity check requires a > 0")
    mu = sol.mu
    r = sol.grid
    # snap R to the nearest grid node; the snapped value enters both sides
    i_R = int(np.argmin(np.abs(r - R)))
    R_snap = float(r[i_R])
    psi = np.where(r > 0, sol.u / np.maximum(r, 1e-300), 0.0) / sol.du[-1]
    kin = 2.0 * mu * _psi0_prime(r, sol.u, sol.du)**2 * r**2
    # integrate per smooth segment: [start, R0] with the inside-limit v,
    # then [R0, R] where v = 0 exactly (finite range)
    i_core = int(np.argmin(np.abs(r - v.core_radius)))
    lhs = 0.0
    if i_core > 0:
        if v.kind == _SOFT_SPHERE:
            vv_in = np.full(i_core + 1, v.height)
        else:
            vv_in = np.asarray(v(np.minimum(r[: i_core + 1], v.core_radius)))
        lhs += simpson(kin[: i_core + 1] + vv_in * (psi[: i_core + 1] ** 2) * r[: i_core + 1] ** 2,
                       r[: i_core + 1])
    lhs += simpson(kin[i_core: i_R + 1], r[i_core: i_R + 1])
    lhs *= 4.0 * np.pi
    rhs = 8.0 * np.pi * mu * sol.a * (1.0 - sol.a / R_snap)
    residual = abs(lhs - rhs) / (8.0 * np.pi * mu * sol.a)
    return {"lhs": float(lhs), "rhs": float(rhs), "residual": float(residual),
            "R": R_snap}


def scale_potential(v: RadialPotential, a_target: float, mu: float = 1.0,
                    tol: float = 1e-6) -> RadialPotential:
    """Rescale a unit-scattering-length potential to scattering length
    ``a_target`` via v(x) -> a^-2 v1(x/a)."""
    if a_target <= 0:
        raise ValueError("target scattering length must be positive")
    base = solve_zero_energy(v, mu)
    if abs(base.a - 1.0) > tol:
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

def load_potential(path) -> RadialPotential:
    """Two-column text file (r, v) with '# dimension=' and '# R0=' headers."""
    dimension = None
    r0 = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("dimension="):
                    dimension = int(body.split("=", 1)[1])
                elif body.startswith("R0="):
                    r0 = float(body.split("=", 1)[1])
                continue
            parts = line.replace(",", " ").split()
            rows.append((float(parts[0]), float(parts[1])))
    if dimension is None or r0 is None:
        raise ValueError("potential file must carry '# dimension=' and '# R0=' headers")
    pot = tabulated(rows, dimension=dimension)
    if abs(pot.core_radius - r0) > 1e-9 * max(1.0, r0):
        pot = RadialPotential(_TABULATED, r0, samples=pot.samples, dimension=dimension)
    return pot


def save_potential(v: RadialPotential, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# dimension={v.dimension}\n")
        fh.write(f"# R0={v.core_radius!r}\n")
        if v.kind == _TABULATED:
            for r, vv in v.samples:
                fh.write(f"{r!r} {vv!r}\n")
        else:
            rs = np.linspace(0.0, v.core_radius, 65)
            for r in rs:
                fh.write(f"{r!r} {float(v(r))!r}\n")
