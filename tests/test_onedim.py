import dataclasses
import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq
from scipy.special import jn_zeros

from bosegas import flows, onedim as od, quadrature, verify


def mirrored(prof):
    """(z, rho) of a half-line profile on the whole line: the nodes -z and
    z, rho even."""
    return (np.concatenate((-prof.z[::-1], prof.z)),
            np.concatenate((prof.rho[::-1], prof.rho)))


def functional_value(kind, prof, L, g, s=2.0):
    """A 1D functional evaluated on a given profile, mirrored onto the whole
    line, the gradient term by central differences of sqrt(rho)."""
    curve = od._curve_for(kind)
    z, rho = mirrored(prof)
    val = float(np.trapezoid(od._v_long(z, L, s) * rho
                             + od._local_terms(kind, g, curve)(rho)[0], z))
    if kind in ("full", "gp1d"):
        val += float(np.trapezoid(np.gradient(np.sqrt(rho), z) ** 2, z))
    return val


# --- Lieb-Liniger energy density ---------------------------------------------

def test_e_of_zero_is_zero(ll_curve):
    assert ll_curve.e(0.0) == 0.0


def test_e_monotone_and_bounded(ll_curve):
    t = np.geomspace(1e-6, 1e8, 400)
    e = ll_curve.e(t)
    assert np.all(np.diff(e) > 0)
    assert np.all(e <= od.PI2_3 * (1 + 1e-9))
    assert np.all(e <= 0.5 * t * (1 + 1e-9))


def test_e_limiting_values(ll_curve):
    assert abs(ll_curve.e(1e3) * 3.0 / math.pi**2 - 1.0) < 0.02
    assert abs(ll_curve.e(1e-2) / 5e-3 - 1.0) < 0.05


def _reference_ba_density(lam, m=440):
    """The Fredholm solve as first written: full Chebyshev mesh, the matrix
    assembled one column at a time, full-system LU.  The reference the
    half-mesh solve is checked against."""
    from scipy.linalg import solve
    x = -np.cos(np.linspace(0.0, math.pi, m + 1))
    n = len(x)
    u = x[:, None] - x[None, :]
    A = np.arctan(u / lam) / math.pi
    B = (lam / (2.0 * math.pi)) * np.log(lam**2 + u**2)

    def seg_int0(j0_, j1_):
        return A[:, j0_] - A[:, j1_]

    def seg_int1(j0_, j1_):
        return x * (A[:, j0_] - A[:, j1_]) - (B[:, j0_] - B[:, j1_])

    M = np.zeros((n, n))
    for j in range(n):
        if j > 0:
            hL = x[j] - x[j - 1]
            M[:, j] += (seg_int1(j - 1, j) - x[j - 1] * seg_int0(j - 1, j)) / hL
        if j < n - 1:
            hR = x[j + 1] - x[j]
            M[:, j] += (x[j + 1] * seg_int0(j, j + 1) - seg_int1(j, j + 1)) / hR
    f = solve(np.eye(n) - M, np.full(n, 1.0 / (2.0 * math.pi)))
    h = np.diff(x)
    f0, f1 = f[:-1], f[1:]
    int_f = float(np.sum(0.5 * h * (f0 + f1)))
    x0, x1 = x[:-1], x[1:]
    c1 = (f1 - f0) / h
    c0 = f0 - c1 * x0
    int_x2f = float(np.sum(c0 * (x1**3 - x0**3) / 3.0 + c1 * (x1**4 - x0**4) / 4.0))
    return lam / int_f, int_x2f / int_f**3


@pytest.mark.parametrize("lam", np.geomspace(1e-3, 1e5, 9).tolist())
def test_half_mesh_solve_matches_reference(lam):
    gamma, e_ba = od.solve_ba_density(lam, od._MESH)
    gamma_ref, e_ref = _reference_ba_density(lam)
    assert abs(gamma / gamma_ref - 1.0) < 1e-12
    assert abs(e_ba / e_ref - 1.0) < 1e-12


def test_solve_ba_density_rejects_odd_mesh():
    with pytest.raises(ValueError):
        od.solve_ba_density(1.0, 441)


# (node index, t, e) of the default table: the full-mesh column-loop solve,
# which the half-mesh one replaced, at the node's sweep width
_PINNED_NODES = [
    (0, "0x1.a00805b824da7p-14", "0x1.9f56fa6dd5329p-15"),
    (40, "0x1.947fc910e34d4p-4", "0x1.6fa9a22ae9dc2p-5"),
    (80, "0x1.6a5187bda8583p+4", "0x1.32ba6aefafa37p+1"),
    (120, "0x1.c7d331fd946acp+9", "0x1.a16e9d37260c9p+1"),
    (160, "0x1.ee269113fea1dp+14", "0x1.a4ff22727d4c5p+1"),
    (199, "0x1.e847800000001p+19", "0x1.a519895dcc5c1p+1"),
]
# the default table's mesh_error, built with one BLAS thread
_PINNED_MESH_ERROR = "0x1.0289a40212000p-10"


def test_default_table_pinned_nodes(ll_curve):
    assert len(ll_curve.nodes_t) == 200
    for i, t_hex, e_hex in _PINNED_NODES:
        assert abs(ll_curve.nodes_t[i] / float.fromhex(t_hex) - 1.0) < 1e-12
        assert abs(ll_curve.nodes_e[i] / float.fromhex(e_hex) - 1.0) < 1e-12
    assert ll_curve.mesh_error == float.fromhex(_PINNED_MESH_ERROR)


def test_table_reports_mesh_error(ll_curve):
    assert ll_curve.mesh_error is not None
    assert math.isfinite(ll_curve.mesh_error)
    assert 0.0 < ll_curve.mesh_error < 1e-2


def test_table_error_is_the_worst_direct_solve(ll_curve):
    # one Fredholm solve per width, read against the table at t = 2 gamma
    lams = verify._LL_DIRECT_WIDTHS
    errors = []
    for lam in lams:
        gamma, e_ba = od.solve_ba_density(lam, od._MESH)
        errors.append(abs(e_ba / ll_curve.e(2.0 * gamma) - 1.0))
    assert od.table_error(ll_curve, lams) == max(errors) < 1e-6
    assert od.table_error(ll_curve, lams[1:2]) == errors[1]
    assert od.table_error(ll_curve, ()) == 0.0


def test_slope_error_sees_slopes_the_values_miss(ll_curve):
    # on the shipped rows, PCHIP's slopes or sigma 1e-5 high keep e within
    # verify's 1e-6 at the direct-route widths, but not d log e/d log t
    x, y = np.log(ll_curve.nodes_t), np.log(ll_curve.nodes_e)
    lams = verify._LL_DIRECT_WIDTHS
    for sigma in (PchipInterpolator(x, y).derivative()(x),
                  ll_curve.nodes_sigma * (1.0 + 1e-5)):
        curve = od.LLCurve(ll_curve.nodes_t, ll_curve.nodes_e, sigma,
                           ll_curve.mesh_error)
        assert od.table_error(curve, lams) < 1e-6
        assert od.slope_error(curve, lams) > 1e-6
    assert od.slope_error(ll_curve, lams) < 1e-8
    assert od.slope_error(ll_curve, ()) == 0.0


# --- the reference build of the shipped e(t) table ---------------------------

# the default table: one row per kernel width of a _SWEEP-width geometric
# sweep, solved on the (od._MESH + 1)-node mesh, whose end widths put t near
# _T_MIN and _T_MAX
_SWEEP = 200
_T_MIN = 1e-4
_T_MAX = 1e6

# how to regenerate the shipped table: this file, run as a script, writes
# the reference build to the path given and prints its mesh_error
_REGENERATE = ("OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_onedim.py "
               "src/bosegas/ll_table.csv, then set onedim._TABLE_MESH_ERROR to the "
               "value it prints")


def _moments(x, f):
    """int f and int x^2 f of the piecewise-linear f on the mesh x, exactly."""
    h = np.diff(x)
    f0, f1 = f[:-1], f[1:]
    x0, x1 = x[:-1], x[1:]
    c1 = (f1 - f0) / h
    c0 = f0 - c1 * x0
    return (float(np.sum(0.5 * h * (f0 + f1))),
            float(np.sum(c0 * (x1**3 - x0**3) / 3.0 + c1 * (x1**4 - x0**4) / 4.0)))


def _ba_slope(lam, m):
    """sigma = d log e/d log t, exactly, of the discrete solution that
    ``od.solve_ba_density(lam, m)`` finds: its half system (I - F) f =
    1/(2 pi), assembled as there, differentiated in lam, (I - F) f_lam =
    F_lam f, and solved on the same LU.

    F_lam f is taken by parts.  For K(u) = lam/(pi (lam^2 + u^2)),
    dK/dlam = -(1/lam) d(u K)/du, and B is the primitive of u K, so for the
    piecewise-linear f with slopes s_k on [y_k, y_k+1]
    (F_lam f)(x) = ([(x - y) K(x - y) f(y)] from y = -1 to 1
                    - sum_k s_k (B(x - y_k) - B(x - y_k+1))) / lam.
    Then gamma = lam/int f and e = int x^2 f/(int f)^3 differentiate
    through the same exact integrals of f_lam."""
    x = od._chebyshev_mesh(m)
    n = len(x)
    c = m // 2
    h = np.diff(x)
    rows = max(1, od._BLOCK_ELEMENTS // n)
    F = np.empty((c + 1, c + 1))
    dB = np.empty((c + 1, n - 1))
    for r in range(0, c + 1, rows):
        u = x[r:min(r + rows, c + 1), None] - x
        A = np.arctan(u / lam) / math.pi
        B = (lam / (2.0 * math.pi)) * np.log(lam**2 + u**2)
        dA = A[:, :-1] - A[:, 1:]
        dB[r:r + rows] = B[:, :-1] - B[:, 1:]
        up = (u[:, :-1] * dA - dB[r:r + rows]) / h
        M = np.zeros((len(u), n))
        M[:, 1:] = up
        M[:, :-1] += dA - up
        F[r:r + rows] = M[:, :c + 1]
        F[r:r + rows, :c] += M[:, :c:-1]
    lu = lu_factor(np.eye(c + 1) - F)
    half = lu_solve(lu, np.full(c + 1, 1.0 / (2.0 * math.pi)))
    f = np.concatenate((half, half[c - 1::-1]))
    u_kernel = lambda u: lam * u / (math.pi * (lam**2 + u**2))
    xi = x[:c + 1]
    f_lam = lu_solve(lu, (f[-1] * (u_kernel(xi - 1.0) - u_kernel(xi + 1.0))
                          - dB @ (np.diff(f) / h)) / lam)
    i0, i2 = _moments(x, f)
    d0, d2 = _moments(x, np.concatenate((f_lam, f_lam[c - 1::-1])))
    return (d2 / i2 - 3.0 * d0 / i0) / (1.0 / lam - d0 / i0)


def _sweep_widths() -> np.ndarray:
    """The table's kernel widths, log-spaced: t = 2 gamma runs from ~_T_MIN
    to ~_T_MAX."""
    lam_lo = 0.5 * math.sqrt(0.5 * _T_MIN)     # gamma ~ 4 lam^2 as lam -> 0
    lam_hi = _T_MAX / (2.0 * math.pi)          # gamma ~ pi lam as lam -> inf
    return np.geomspace(lam_lo, lam_hi, _SWEEP)


def build_ll_curve() -> od.LLCurve:
    """Sweep the kernel width: each width's (t, e) as ``od.solve_ba_density``
    gives them, with its exact slope from ``_ba_slope``, is one table node.

    The first, middle and last widths are solved again on the doubled mesh;
    the largest relative difference of that e from the table's e at the same
    t becomes the curve's ``mesh_error``.
    """
    lams = _sweep_widths()
    rows = []
    for lam in lams:
        gamma, e_ba = od.solve_ba_density(lam, od._MESH)
        rows.append((2.0 * gamma, e_ba, _ba_slope(lam, od._MESH)))
    curve = od.LLCurve(*map(np.array, zip(*rows)), math.nan)

    doubled = (od.solve_ba_density(lam, 2 * od._MESH)
               for lam in lams[[0, _SWEEP // 2, -1]])
    curve.mesh_error = max(abs(e_ba / curve.e(2.0 * gamma) - 1.0)
                           for gamma, e_ba in doubled)
    return curve


def export_csv(curve: od.LLCurve, path) -> None:
    """The curve's nodes as the shipped table's CSV: a ``t,e,sigma`` header,
    then one row per node with repr floats, which read back bit for bit."""
    with open(path, "w") as fh:
        fh.write("t,e,sigma\n")
        for row in zip(curve.nodes_t, curve.nodes_e, curve.nodes_sigma):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_shipped_table_is_the_reference_build(tmp_path, ll_curve):
    # bit for bit at one BLAS thread, set in the child's environment only
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "ll_table.csv"
    proc = subprocess.run([sys.executable, __file__, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stale = f"ll_table.csv is not the reference build; regenerate it: {_REGENERATE}"
    assert out.read_bytes() == od._TABLE.read_bytes(), stale
    assert float(proc.stdout) == od._TABLE_MESH_ERROR, stale
    # the LU rounds differently at other thread counts: two threads move 48
    # of the 200 t values, 71 e values and 73 sigma values, by at most
    # 5.4e-15 relative
    curve = build_ll_curve()
    for column in ("nodes_t", "nodes_e", "nodes_sigma"):
        np.testing.assert_allclose(getattr(curve, column), getattr(ll_curve, column),
                                   rtol=1e-12, atol=0.0)
    assert abs(curve.mesh_error / ll_curve.mesh_error - 1.0) < 1e-10


def test_direct_route_widths_fall_between_sweep_widths(monkeypatch):
    # record the widths build_ll_curve sweeps, with cheap stand-ins for
    # the Fredholm solve (gamma = lam, e rising to 1) and its slope
    sweep = []

    def record(lam, m):
        if m == od._MESH:
            sweep.append(lam)
        return lam, lam / (1.0 + lam)
    monkeypatch.setattr(od, "solve_ba_density", record)
    monkeypatch.setitem(globals(), "_ba_slope", lambda lam, m: 1.0 / (1.0 + lam))
    build_ll_curve()
    monkeypatch.undo()
    log_sweep = np.log(sweep)
    step = log_sweep[1] - log_sweep[0]
    assert len(sweep) == _SWEEP
    np.testing.assert_allclose(np.diff(log_sweep), step, rtol=1e-9)
    for lam in verify._LL_DIRECT_WIDTHS:
        assert np.min(np.abs(math.log(lam) - log_sweep)) >= 0.25 * step
        gamma, _ = od.solve_ba_density(lam, od._MESH)
        assert _T_MIN <= 2.0 * gamma <= _T_MAX


def test_shipped_slopes_match_central_differences(ll_curve):
    # the second route for sigma: central differences of direct solves in
    # log lam at step 1e-5 (truncation and rounding both below 3e-10 here)
    lams = _sweep_widths()
    for i in (0, 40, 80, 120, 160, 199):
        gp, ep = od.solve_ba_density(lams[i] * math.exp(1e-5), od._MESH)
        gm, em = od.solve_ba_density(lams[i] * math.exp(-1e-5), od._MESH)
        sigma = math.log(ep / em) / math.log(gp / gm)
        assert abs(ll_curve.nodes_sigma[i] - sigma) <= 2e-9


def test_table_is_within_1e_7_at_every_sweep_midpoint(ll_curve):
    # the interpolation error peaks between nodes: 6.0e-8 at t = 11.3
    lams = _sweep_widths()
    assert od.table_error(ll_curve, np.sqrt(lams[:-1] * lams[1:])) <= 1e-7


def test_composite_convexity(ll_curve):
    rho = np.linspace(0.05, 20.0, 200)
    h = rho**3 * ll_curve.e(1.0 / rho)
    assert float(np.min(np.diff(h, 2))) >= -1e-8


def test_curve_derivative_consistency(ll_curve):
    for t in (1e-3, 0.2, 5.0, 2e3):
        h = 1e-5 * t
        fd = (ll_curve.e(t + h) - ll_curve.e(t - h)) / (2 * h)
        assert abs(ll_curve.derivatives(t, 1)[1] - fd) < 1e-4 * max(abs(fd), 1e-12)


def test_curve_derivative_is_the_interpolant_derivative(ll_curve):
    t = np.geomspace(ll_curve.t_min, ll_curve.t_max, 37)
    lt = np.log(t)
    ref = CubicHermiteSpline(np.log(ll_curve.nodes_t), np.log(ll_curve.nodes_e),
                             ll_curve.nodes_sigma)
    assert np.array_equal(ll_curve.e(t), np.exp(ref(lt)))
    assert np.array_equal(ll_curve.derivatives(t, 1)[1], np.exp(ref(lt)) * ref.derivative()(lt) / t)


def test_e_and_de_equals_e_and_de(ll_curve):
    # low tail (t = 0 included), table (ends and nodes included), high tail;
    # e' written out: the tail forms' slopes, exp(p) p'/t inside the table
    t_min, t_max = ll_curve.t_min, ll_curve.t_max
    t = np.concatenate(([0.0], np.geomspace(1e-3 * t_min, t_min, 9, endpoint=False),
                        ll_curve.nodes_t, np.geomspace(t_min, t_max, 101),
                        np.geomspace(t_max, 1e3 * t_max, 10)[1:]))
    low, high = t < t_min, t > t_max
    mid = ~(low | high)
    de = np.empty_like(t)
    de[low] = 0.5 * ll_curve._low_ratio
    p, dp = ll_curve._interp.derivatives(np.log(t[mid]), 1)
    de[mid] = np.exp(p) * dp / t[mid]
    de[high] = ll_curve._high_deficit * t_max / t[high] ** 2
    assert low.sum() == 10 and high.sum() == 9
    pair = ll_curve.derivatives(t, 1)
    assert np.array_equal(pair[0], ll_curve.e(t))
    assert np.array_equal(pair[1], de)
    for i in (0, 5, 12, len(t) - 1):
        assert ll_curve.derivatives(t[i], 1) == (ll_curve.e(t[i]), de[i])


def test_e_and_de_is_the_first_two_of_e_derivatives(ll_curve):
    # the lookup without e'' gives e and e' bit for bit as the one with it:
    # t = 0, the low tail, t_min, table nodes and points between them, t_max
    # and the high tail, as one array and one scalar at a time
    t_min, t_max = ll_curve.t_min, ll_curve.t_max
    t = np.concatenate(([0.0], np.geomspace(1e-3 * t_min, t_min, 7, endpoint=False),
                        ll_curve.nodes_t, np.geomspace(t_min, t_max, 53)[1:-1],
                        np.geomspace(t_max, 1e3 * t_max, 8)[1:], [1e15]))
    pair = ll_curve.derivatives(t, 1)
    triple = ll_curve.derivatives(t, 2)
    assert len(pair) == 2
    for got, ref in zip(pair, triple[:2]):
        assert got.tobytes() == ref.tobytes()
    for ti in (0.0, 0.5 * t_min, t_min, 1.0, t_max, 2.0 * t_max):
        assert ll_curve.derivatives(ti, 1) == ll_curve.derivatives(ti, 2)[:2]
        assert all(type(v) is float for v in ll_curve.derivatives(ti, 1))


def test_e_second_derivative(ll_curve):
    # e'' in the closed forms of the tails, and inside the table against
    # central differences of e' at midpoints between nodes (the Hermite
    # cubic is only C1)
    t_min, t_max = ll_curve.t_min, ll_curve.t_max
    x = np.log(ll_curve.nodes_t)
    t = np.concatenate(([0.0], np.geomspace(1e-3 * t_min, t_min, 5, endpoint=False),
                        np.exp(0.5 * (x[:-1] + x[1:])),
                        np.geomspace(t_max, 1e3 * t_max, 6)[1:]))
    d2e = ll_curve.derivatives(t, 2)[2]
    assert ll_curve.derivatives(t[10], 2)[2] == d2e[10]
    assert np.all(d2e[:6] == 0.0)
    assert np.array_equal(d2e[-5:], -2.0 * ll_curve._high_deficit * t_max
                          / t[-5:] ** 3)
    h = 1e-6 * t[1:]
    fd = (ll_curve.derivatives(t[1:] + h, 1)[1]
          - ll_curve.derivatives(t[1:] - h, 1)[1]) / (2.0 * h)
    np.testing.assert_allclose(d2e[1:], fd, rtol=1e-6, atol=1e-12 * np.abs(fd).max())


def test_full_kind_converges_at_strong_coupling():
    # the regimes case N = 1000, L = 1, g = 4000 at the default n_grid; the
    # inverse-iteration endgame stopped at residual 4.2e-5 here
    prof, energy, _ = od.minimize_1d("full", 1000.0, 1.0, 4000.0, 2.0)
    assert np.isfinite(energy) and prof.solve.newton_steps > 0
    assert energy == pytest.approx(987194.73, rel=1e-7)


def _assert_hermite_matches_scipy(x, y, dydx, at):
    ours, ref = od.CubicHermite(x, y, dydx), CubicHermiteSpline(x, y, dydx)
    assert np.array_equal(ours.x, ref.x)
    assert np.array_equal(ours.c, ref.c)
    assert np.array_equal(ours.derivatives(at, 0)[0], ref(at))
    value, slope = ours.derivatives(at, 1)
    assert np.array_equal(value, ref(at))
    assert np.array_equal(slope, ref.derivative()(at))
    value2, slope2, curvature = ours.derivatives(at, 2)
    assert np.array_equal(value2, value) and np.array_equal(slope2, slope)
    ref2 = ref.derivative(2)(at)
    np.testing.assert_allclose(curvature, ref2, rtol=1e-13,
                               atol=1e-13 * np.abs(ref2).max())


def test_hermite_matches_scipy_on_the_default_table(ll_curve):
    x = np.log(ll_curve.nodes_t)
    at = np.concatenate((x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 20001)))
    _assert_hermite_matches_scipy(x, np.log(ll_curve.nodes_e),
                                  ll_curve.nodes_sigma, at)
    assert ll_curve._interp.c.shape == (4, len(x) - 1)


def test_hermite_matches_scipy_on_random_data():
    rng = np.random.default_rng(20240)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        at = np.concatenate((x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 200)))
        _assert_hermite_matches_scipy(x, rng.normal(size=n), rng.normal(size=n), at)
    with pytest.raises(ValueError):
        od.CubicHermite([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])


def test_negative_t_rejected(ll_curve):
    with pytest.raises(ValueError):
        ll_curve.e(-1.0)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        ll_curve.derivatives(-1.0, 1)


# --- transverse modes ---------------------------------------------------------

def test_harmonic_transverse_closed_form():
    trap = od.ElongatedTrap(10.0, 50.0, 1.0, 0.25)
    e_unit, int_b4 = od.UNIT_MODES["harmonic"]
    assert e_unit == 2.0 == trap.e_perp
    assert int_b4 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert trap.g == pytest.approx(4.0 * 0.25, rel=1e-12)


def test_hard_wall_transverse_bessel():
    trap = od.ElongatedTrap(10.0, 50.0, 2.0, 0.25, transverse="hard_wall")
    z1 = float(jn_zeros(0, 1)[0])
    assert od.UNIT_MODES["hard_wall"][0] == pytest.approx(z1**2, rel=1e-12)
    assert trap.e_perp == pytest.approx(z1**2 / 4.0, rel=1e-12)
    assert trap.g == 8.0 * math.pi * 0.25 / 4.0 * 0.6679272899645546


def _closed_form_profile(kind):
    """(b, b', V, rmax) of the unit-radius ground transverse mode of
    ``kind``: the Gaussian in the harmonic well, J0 in the hard wall."""
    from scipy.special import j0, j1
    if kind == "harmonic":
        b = lambda r: math.exp(-0.5 * r * r) / math.sqrt(math.pi)
        return b, lambda r: -r * b(r), lambda r: r * r, math.inf
    z1 = float(jn_zeros(0, 1)[0])
    norm = math.sqrt(math.pi) * abs(float(j1(z1)))
    return (lambda r: float(j0(z1 * r)) / norm,
            lambda r: -z1 * float(j1(z1 * r)) / norm, lambda r: 0.0, 1.0)


def test_hard_wall_e_perp_is_j01_squared_correctly_rounded():
    # j_{0,1} to 50 digits (OEIS A115368), squared exactly and rounded once
    # (scipy's jn_zeros(0, 1) is an ulp low, and so was its square)
    j = decimal.Decimal("2.404825557695772768621631879326454643124244909145614")
    square = decimal.Context(prec=110).multiply(j, j)
    assert od.UNIT_MODES["hard_wall"][0] == float(square) == 5.783185962946784


@pytest.mark.parametrize("kind", ["harmonic", "hard_wall"])
def test_unit_mode_constants_match_quadrature_of_the_profile(kind):
    # int over the plane of b^2 (the profile's normalization), of |b'|^2 +
    # V b^2 (e_perp) and of b^4, by adaptive quadrature of the closed form
    from scipy.integrate import quad
    b, db, V, rmax = _closed_form_profile(kind)

    def plane(f):
        return quad(lambda r: 2.0 * math.pi * r * f(r), 0.0, rmax,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    assert plane(lambda r: b(r) ** 2) == pytest.approx(1.0, rel=1e-13)
    e_unit, int_b4 = od.UNIT_MODES[kind]
    assert plane(lambda r: db(r) ** 2 + V(r) * b(r) ** 2) \
        == pytest.approx(e_unit, rel=1e-13)
    assert plane(lambda r: b(r) ** 4) == pytest.approx(int_b4, rel=1e-13)
    # the trap scales them by r^-2 in the expressions it documents
    trap = od.ElongatedTrap(30.0, 100.0, 0.5, 1e-4, transverse=kind)
    assert trap.e_perp == e_unit / 0.5**2
    assert trap.g == 8.0 * math.pi * 1e-4 / 0.5**2 * int_b4


def test_transverse_numeric_agreement():
    # measured: 1.49e-9 (harmonic) and 5.2e-10 (hard wall)
    for kind, (e_exact, ib4_exact) in od.UNIT_MODES.items():
        e_unit, ib4 = od.transverse_mode_numeric(kind)
        assert max(abs(e_unit - e_exact), abs(ib4 - ib4_exact)) < 5e-9, kind


def test_transverse_numeric_finest_solve_clears_the_rounding_floor(monkeypatch):
    # the sup-norm residual's rounding floor grows as n^2; the
    # finest hard-wall solve must end at no more than half its tolerance,
    # so that a finer grid that walks it onto the floor fails here first
    ends = []
    nested = flows.minimize_nested

    def recording(build, n, start, what):
        grids, solve = nested(build, n, start, what)
        res = grids[-1][1]
        ends.append((n, res.residual / (flows._RTOL * max(abs(res.mu_chem),
                                                          abs(res.energy)))))
        return grids, solve

    monkeypatch.setattr(flows, "minimize_nested", recording)
    od.transverse_mode_numeric("hard_wall")
    n, fraction = ends[-1]
    assert n == 2 * od._MODE_FD_GRID
    assert fraction <= 0.5


@pytest.mark.parametrize("kind", sorted(od.UNIT_MODES))
def test_transverse_numeric_is_three_separate_cascades(kind, monkeypatch):
    # one cascade from 2000 cells solves the 500-, 1000- and 2000-cell
    # grids, one flow solve each, and gives bit for bit the Richardson
    # values of three separate cascades to 500, 1000 and 2000 cells
    seen, sizes = [], []
    nested, run = flows.minimize_nested, flows.minimize_flow

    def capture(build, n, start, what):
        seen.append((build, start, what))
        return nested(build, n, start, what)

    def counting(prob, psi0):
        sizes.append(len(prob.nodes))
        return run(prob, psi0)

    with monkeypatch.context() as patch:
        patch.setattr(flows, "minimize_nested", capture)
        patch.setattr(flows, "minimize_flow", counting)
        got = od.transverse_mode_numeric(kind)
    assert sizes == [500, 1000, 2000] and len(seen) == 1
    build, start, what = seen[0]
    finest = [nested(build, n, start, what)[0][-1] for n in (500, 1000, 2000)]
    ref = [quadrature.richardson(values, 2)[0] for values in (
        [res.mu_chem for _, res in finest],
        [float((fp.w * res.psi**4).sum()) for fp, res in finest])]
    assert got == tuple(ref)


@pytest.mark.parametrize("kind", sorted(od.UNIT_MODES))
def test_transverse_numeric_raises_on_an_unconverged_coarse_grid(kind,
                                                                 monkeypatch):
    run = flows.minimize_flow
    monkeypatch.setattr(flows, "minimize_flow", lambda prob, psi0: dataclasses.replace(
        run(prob, psi0), converged=len(prob.nodes) != 500))
    with pytest.raises(RuntimeError, match=f"transverse mode \\({kind}\\): "
                                           "a coarse grid did not converge"):
        od.transverse_mode_numeric(kind)


def test_verify_checks_the_hard_wall_int_b4(monkeypatch):
    # int b^4 of the hard wall 1e-7 off fails its verify entry, by that much
    e_unit, int_b4 = od.UNIT_MODES["hard_wall"]
    monkeypatch.setitem(od.UNIT_MODES, "hard_wall", (e_unit, int_b4 + 1e-7))
    checks = {c["name"]: c for c in verify._onedim_checks()}
    entry = checks["onedim.transverse_hard_wall"]
    assert not entry["passed"]
    assert entry["value"] == pytest.approx(1e-7, rel=1e-3)
    assert all(c["passed"] for name, c in checks.items() if c is not entry)


def test_transverse_numeric_checks_its_order(monkeypatch):
    # on 2-, 4- and 8-cell grids no value converges at second order; the
    # cascade from 8 cells reaches 2 once its coarsest grid may have 2
    monkeypatch.setattr(od, "_MODE_FD_GRID", 4)
    monkeypatch.setattr(flows, "_COARSEST", 2)
    for kind in ("harmonic", "hard_wall"):
        with pytest.raises(RuntimeError, match="three-grid ratio"):
            od.transverse_mode_numeric(kind)


def test_g_scales_as_a_over_r_squared():
    g1 = od.ElongatedTrap(1.0, 10.0, 1.0, 0.02).g
    g2 = od.ElongatedTrap(1.0, 10.0, 2.0, 0.02).g
    g3 = od.ElongatedTrap(1.0, 10.0, 1.0, 0.04).g
    assert g2 == pytest.approx(g1 / 4.0, rel=1e-12)
    assert g3 == pytest.approx(2.0 * g1, rel=1e-12)


# --- 1D functionals ------------------------------------------------------------

def test_gt_pointwise_matches_gradient_flow(ll_curve):
    # flow-minimize the GT functional itself (no kinetic edges) and compare
    # with the closed-form pointwise Lagrange solution
    N, L, s = 3.0, 2.0, 2.0
    prof, e_gt, _ = od.minimize_1d("gt", N, L, 0.0, s)
    zmax = prof.z[-1]
    n = 1536
    h = 2.0 * zmax / (n + 1)
    z = -zmax + h * np.arange(1, n + 1)
    fp = flows.FlowProblem(
        z, h * np.ones(n), 0.0, np.zeros(n + 1),
        np.abs(z) ** s / L ** (s + 2.0),
        lambda y: (od.PI2_3 * y**3, math.pi**2 * y**2, 2.0 * math.pi**2 * y),
        N)
    res = flows.minimize_flow(fp, psi0=np.sqrt(np.maximum(1 - (z / zmax) ** 2, 0.0) + 1e-4))
    assert abs(res.energy - e_gt) / e_gt < 1e-6


def test_gp1d_region2_scaling(ll_curve):
    e1 = od.minimize_1d("gp1d", 7.0, 3.0, 0.11, 2.0)[1]
    e2 = od.minimize_1d("gp1d", 1.0, 1.0, 7.0 * 0.11 * 3.0, 2.0)[1]
    assert abs(e1 - 7.0 * 3.0**-2 * e2) / abs(e1) < 1e-8


def test_tf1d_region3_scaling_exponent():
    gs = np.geomspace(1e2, 1e6, 9)
    es = [od.minimize_1d("tf1d", 1.0, 1.0, g, 2.0)[1] for g in gs]
    slope = np.polyfit(np.log(gs), np.log(es), 1)[0]
    assert abs(slope - 2.0 / 3.0) < 1e-3   # s/(s+1) at s = 2
    e111 = od.minimize_1d("tf1d", 1.0, 1.0, 1.0, 2.0)[1]
    eNLg = od.minimize_1d("tf1d", 5.0, 2.0, 3.0, 2.0)[1]
    assert abs(eNLg - 5.0 / 4.0 * 30.0 ** (2 / 3) * e111) / eNLg < 1e-10


def test_ll_region4_scaling():
    N, L, g, s = 9.0, 4.0, 0.8, 2.0
    gamma = (N / L) * N ** (-2.0 / (s + 2.0))
    eA = od.minimize_1d("ll_no_grad", N, L, g, s)[1]
    eB = od.minimize_1d("ll_no_grad", 1.0, 1.0, g / gamma, s)[1]
    assert abs(eA - N * gamma**2 * eB) / abs(eA) < 1e-6


def test_gt_region5_scaling():
    N, L, s = 9.0, 4.0, 1.0
    gamma = (N / L) * N ** (-2.0 / (s + 2.0))
    eA = od.minimize_1d("gt", N, L, 0.0, s)[1]
    eB = od.minimize_1d("gt", 1.0, 1.0, 0.0, s)[1]
    assert abs(eA - N * gamma**2 * eB) / abs(eA) < 1e-8


def test_full_functional_relaxes_nothing():
    N, L, g, s = 5.0, 3.0, 0.5, 2.0
    _, e_full, _ = od.minimize_1d("full", N, L, g, s)
    for kind in ("gp1d", "tf1d", "ll_no_grad", "gt"):
        prof_k, _, _ = od.minimize_1d(kind, N, L, g, s)
        v_full = functional_value("full", prof_k, L, g, s)
        assert v_full >= e_full - 1e-8 * abs(e_full)


def test_minimize_1d_normalization_and_rho_bar():
    for kind in od.KINDS_1D:
        prof, _, rho_bar = od.minimize_1d(kind, 4.0, 2.0, 0.7, 2.0)
        z, rho = mirrored(prof)
        mass = np.trapezoid(rho, z)
        assert mass == pytest.approx(4.0, rel=1e-6)
        assert rho_bar == pytest.approx(
            np.trapezoid(rho**2, z) / prof.mass, rel=1e-6)
        # the solver's own weights give the mass and rho_bar to rounding
        assert prof.w @ prof.rho == pytest.approx(4.0, rel=4e-15)
        assert rho_bar == pytest.approx(prof.w @ prof.rho**2 / 4.0, rel=4e-15)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        od.minimize_1d("bogus", 1.0, 1.0, 1.0)


def test_ll_no_grad_rejects_nonpositive_g():
    for g in (0.0, -0.5):
        with pytest.raises(ValueError):
            od.minimize_1d("ll_no_grad", 1.0, 1.0, g, 2.0)


def test_tf1d_rejects_nonpositive_g():
    # rho = (mu - V)/g: the continuum mu start would be complex for g < 0
    for g in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="positive coupling"):
            od.minimize_1d("tf1d", 1.0, 1.0, g, 2.0)


# --- ll_no_grad: w'(rho) inverted through the e(t) table ------------------------

_POINTWISE_DENSITY = od._pointwise_density


def _reference_ll_density(kind, mu, V, g, curve):
    """The ll_no_grad density as first written: 80 bisection passes on
    w'(rho) = 3 rho^2 e(t) - g rho e'(t), t = g/rho, over [0, cap].  The
    reference ``LLCurve.f_inverse`` is checked against."""
    lo = np.zeros_like(V)
    cap = max(2.0 * (mu / od.PI2_3) ** 0.5, 2.0 * mu / g + 1.0)
    hi = np.full_like(V, cap)
    target = np.maximum(mu - V, 0.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        t = od._ll_argument(g, mid)
        wprime = 3.0 * mid**2 * curve.e(t) - g * mid * curve.derivatives(t, 1)[1]
        high = wprime > target
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


def _f_of_t(curve, t):
    """F(t) = 3 e/t^2 - e'/t, straight from e and e'."""
    return 3.0 * curve.e(t) / t**2 - curve.derivatives(t, 1)[1] / t


def _sigma_of_t(curve, t):
    """d log F/d log t = t F'/F, with F' = 4 e'/t^2 - 6 e/t^3 - e''/t."""
    e, de, d2e = curve.derivatives(t, 2)
    return (4.0 * de / t - 6.0 * e / t**2 - d2e) / (3.0 * e / t**2 - de / t)


def _full_grid_route(normalization_root, kind, N, L, g, s=2.0,
                     density=lambda *args: _POINTWISE_DENSITY(*args)[0]):
    """A pointwise kind as solved before the half line, with mu as first
    found: rho by ``density`` on the whole support grid u = linspace(-1, 1,
    _N_GRID_1D), V = mu |sin(pi u/2)|^s, every integral by ``np.trapezoid``
    and mu by bracket doubling and brentq on the mass.  With
    ``_reference_ll_density`` it is the bisection reference for ll_no_grad.
    Returns (energy, rho_bar, mu)."""
    curve = od._curve_for(kind)
    edge = np.sin(0.5 * math.pi * np.linspace(-1.0, 1.0, od._N_GRID_1D))

    def profile(mu):
        z = (mu * L ** (s + 2.0)) ** (1.0 / s) * edge
        V = mu * np.abs(edge) ** s
        return z, V, density(kind, mu, V, g, curve)

    def mass(mu):
        if mu <= 0:
            return 0.0
        z, _, rho = profile(mu)
        return float(np.trapezoid(rho, z))

    mu = normalization_root(mass, N)
    z, V, rho = profile(mu)
    w = od._local_terms(kind, g, curve)(rho)[0]
    return (float(np.trapezoid(V * rho + w, z)),
            float(np.trapezoid(rho**2, z) / N), mu)


def test_normalization_root_doubles_the_bracket(normalization_root):
    # mass(mu) = mu^2 reaches 9 first at hi = 4: brentq's root on [0, 4]
    def mass(mu):
        return max(mu, 0.0) ** 2
    ref = brentq(lambda m: mass(m) - 9.0, 0.0, 4.0, xtol=1e-300, rtol=8.9e-16)
    assert normalization_root(mass, 9.0) == ref
    with pytest.raises(RuntimeError, match="bracket"):
        normalization_root(lambda mu: 0.0, 1.0)


def _solve_recorded(monkeypatch, kind, N, L, g, s=2.0):
    """minimize_1d(kind) and the mu of every density sweep it made."""
    mus = []

    def recording_density(kind, mu, V, g, curve):
        mus.append(mu)
        return _POINTWISE_DENSITY(kind, mu, V, g, curve)
    monkeypatch.setattr(od, "_pointwise_density", recording_density)
    return (*od.minimize_1d(kind, N, L, g, s), mus)


# the corners of trap-batch's ranges (N 1..100, L 1..10, g 1e-2..10) and one
# point inside; (100, 1, 1e-2) reaches t = 1.2e-4, next to the table's t_min
_LL_CASES = [(N, L, g) for N in (1.0, 100.0) for L in (1.0, 10.0)
             for g in (1e-2, 10.0)] + [(3.7, 4.3, 0.13)]


@pytest.mark.parametrize("N, L, g", _LL_CASES)
def test_ll_no_grad_matches_bisection_reference(monkeypatch, ll_curve,
                                                normalization_root, N, L, g):
    prof, energy, rho_bar, mus = _solve_recorded(monkeypatch, "ll_no_grad",
                                                 N, L, g)
    mu = mus[-1]
    ref_energy, ref_rho_bar, ref_mu = _full_grid_route(
        normalization_root, "ll_no_grad", N, L, g,
        density=_reference_ll_density)
    assert abs(energy / ref_energy - 1.0) <= 1e-10
    assert abs(rho_bar / ref_rho_bar - 1.0) <= 1e-10
    assert abs(mu / ref_mu - 1.0) <= 1e-12

    # the same mu: the support grid, and targets mu - V down to ~1e-16 mu
    # at the support edge, where t = g/rho lies beyond the table's t_max
    V = np.concatenate((od._v_long(prof.z, L, 2.0),
                        mu * (1.0 - np.geomspace(1e-15, 1e-6, 10))))
    rho, _ = _POINTWISE_DENSITY("ll_no_grad", mu, V, g, ll_curve)
    ref = _reference_ll_density("ll_no_grad", mu, V, g, ll_curve)
    pos = rho > 0
    assert np.max(g / rho[pos]) > ll_curve.t_max
    assert np.max(np.abs(rho[pos] / ref[pos] - 1.0)) <= 1e-12
    # rho = 0 exactly where mu <= V; the bisection stops at its resolution
    assert np.all(ref[~pos] <= 2.0**-79 * max(2.0 * mu / g + 1.0, 4.0 * mu))


# density sweeps of the Newton normalization on each of _LL_CASES: one
# Newton step is exact for the power laws of tf1d and gt
_SWEEPS = {"tf1d": [2] * 9, "gt": [2] * 9,
           "ll_no_grad": [3, 4, 4, 4, 3, 4, 3, 4, 4]}


@pytest.mark.parametrize("kind", ["tf1d", "gt", "ll_no_grad"])
def test_pointwise_normalization_sweeps(monkeypatch, kind):
    sweeps = []
    for N, L, g in _LL_CASES:
        prof, _, _, mus = _solve_recorded(monkeypatch, kind, N, L, g)
        assert prof.solve.iterations == len(mus)
        assert prof.solve.rejected_steps == prof.solve.newton_steps == 0
        sweeps.append(prof.solve.iterations)
        assert abs(prof.w @ prof.rho / N - 1.0) <= 4e-15
        # the profile is the last sweep's: its support edge is at that mu
        assert prof.z[-1] == pytest.approx((mus[-1] * L**4) ** 0.5, rel=1e-15)
    assert sweeps == _SWEEPS[kind]


@pytest.mark.parametrize("kind", ["tf1d", "gt", "ll_no_grad"])
def test_pointwise_normalization_cap_raises(monkeypatch, kind):
    monkeypatch.setattr(od, "_NORM_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        od.minimize_1d(kind, 3.7, 4.3, 0.13, 2.0)


def test_ll_no_grad_normalization_across_a_mass_jump(monkeypatch, ll_curve,
                                                   normalization_root):
    # rho jumps by ~1e-3 where a node's mu - V crosses g^2 F(t_min+) (the
    # t_min band), so the mass jumps with mu; an N inside the jump has no
    # root, and the bracket closes on the jump, as brentq's does
    g, L = 0.01, 1.0
    edge = np.sin(0.5 * math.pi * np.linspace(-1.0, 1.0, od._N_GRID_1D))

    def mass(mu):
        rho, _ = _POINTWISE_DENSITY("ll_no_grad", mu, mu * edge**2, g, ll_curve)
        return float(np.trapezoid(rho, mu**0.5 * edge))
    # the two nodes next to z = 0 cross together
    mu_jump = g * g * _f_of_t(ll_curve, ll_curve.t_min) / (1.0 - edge[1024] ** 2)
    below, above = mass(mu_jump * (1.0 - 1e-9)), mass(mu_jump * (1.0 + 1e-9))
    assert above / below - 1.0 > 1e-6
    N = 0.5 * (below + above)
    prof, _, _, mus = _solve_recorded(monkeypatch, "ll_no_grad", N, L, g)
    assert prof.solve.iterations < od._NORM_SWEEPS
    assert abs(mus[-1] / normalization_root(mass, N) - 1.0) <= 1e-14
    assert abs(prof.w @ prof.rho / N - 1.0) <= above / below - 1.0


@pytest.mark.parametrize("kind, N, L, g", [("gt", 3.7, 4.3, 0.0),
                                           ("ll_no_grad", 100.0, 1.0, 0.01),
                                           ("tf1d", 9.0, 4.0, 0.8)])
def test_pointwise_density_vanishes_at_the_support_edge(kind, N, L, g):
    # V = mu at the support's edge, where |z|^2/L^4 rounds to just below mu;
    # rho[0] is the centre, its largest value
    prof, _, _ = od.minimize_1d(kind, N, L, g, 2.0)
    assert prof.rho[-1] == 0.0
    assert np.all(prof.rho[:-1] > 0.0)
    assert prof.rho[0] == prof.rho.max()


@pytest.mark.parametrize("kind", ["tf1d", "gt", "ll_no_grad"])
def test_half_line_matches_the_full_grid_route(monkeypatch, normalization_root,
                                               half_line_corpus, kind):
    # the folded weights are the full grid's trapezoid rule: the same mu,
    # energy and rho_bar to rounding
    for N, L, g, s in half_line_corpus:
        _, energy, rho_bar, mus = _solve_recorded(monkeypatch, kind, N, L, g, s)
        ref_energy, ref_rho_bar, mu = _full_grid_route(normalization_root,
                                                       kind, N, L, g, s)
        assert mus[-1] == pytest.approx(mu, rel=1e-14, abs=0.0)
        assert energy == pytest.approx(ref_energy, rel=1e-14, abs=0.0)
        assert rho_bar == pytest.approx(ref_rho_bar, rel=1e-14, abs=0.0)


def test_1d_solves_read_the_half_line(monkeypatch, ll_curve):
    # no 1D solve passes e(t) or F^-1 more than the 1024 nodes of the half
    # line, and the cascade of full builds the grids 256, 512 and 1024
    sizes, grids = {}, []
    # the e(t) lookups are recorded by derivative order: derivatives0 is e
    for name in ("derivatives", "f_inverse"):
        def wrapped(self, t, *order, method=getattr(od.LLCurve, name), name=name):
            sizes.setdefault(name + "".join(map(str, order)), []).append(np.size(t))
            return method(self, t, *order)
        monkeypatch.setattr(od.LLCurve, name, wrapped)
    build = flows.cell_problem

    def recording(d, zmax, n, *args):
        grids.append(n)
        return build(d, zmax, n, *args)
    monkeypatch.setattr(flows, "cell_problem", recording)
    for kind in od.KINDS_1D:
        od.minimize_1d(kind, 30.0, 5.0, 0.5, 2.0)
        if kind == "full":
            assert grids == [256, 512, 1024]
    assert sorted(sizes) == ["derivatives2", "f_inverse"]
    assert max(max(n) for n in sizes.values()) == 1024


def test_ll_density_takes_the_smallest_root_at_t_min(ll_curve):
    # the low tail meets the table in value but not in slope, and F jumps
    # up across t_min: a y in (F(t_min-), F(t_min+)] has two roots
    t_min = ll_curve.t_min
    f_below = ll_curve._low_ratio / t_min
    f_above = _f_of_t(ll_curve, t_min)
    assert f_below < f_above
    y = np.linspace(f_below, f_above * (1.0 - 1e-12), 6)[1:]
    t, sigma = ll_curve.f_inverse(y)
    assert np.all(t >= t_min)                     # the table root
    assert np.max(np.abs(_f_of_t(ll_curve, t) / y - 1.0)) <= 1e-12
    assert np.max(np.abs(sigma / _sigma_of_t(ll_curve, t) - 1.0)) <= 1e-8
    above = f_above * (1.0 + 1e-9)                # only the low tail is left
    t, sigma = ll_curve.f_inverse(above)
    assert t == pytest.approx(ll_curve._low_ratio / above, rel=1e-15)
    assert sigma == -1.0
    # rho (g = 1) rises with mu - V through the band, and stays at or below
    # g/t_min while mu - V <= g^2 F(t_min+)
    mu = 2.0 * f_above
    target = np.linspace(0.99 * f_below, 1.01 * f_above, 2001)
    rho, _ = od._pointwise_density("ll_no_grad", mu, mu - target, 1.0, ll_curve)
    assert np.all(np.diff(rho) >= 0.0)
    assert np.all(rho[target < f_above * (1.0 - 1e-12)] <= 1.0 / t_min)
    assert np.all(rho[target > f_above * (1.0 + 1e-12)] > 1.0 / t_min)


def test_f_inverse_in_the_t_max_gap(ll_curve):
    # across t_max F drops: a y between F(t_max+) and F(t_max-) has no
    # root, and the largest t with F(t) >= y is t_max itself
    t_max = ll_curve.t_max
    f_below = _f_of_t(ll_curve, t_max)
    f_above = (math.pi**2 - 4.0 * ll_curve._high_deficit) / t_max**2
    assert f_above < f_below
    y = np.linspace(f_above, f_below, 5)[1:-1]
    t, sigma = ll_curve.f_inverse(y)
    assert np.all(t == t_max)
    # rho = g/t_max does not move with y there: kappa = -1/sigma = 0
    assert np.all(sigma == -math.inf)
    assert ll_curve.f_inverse(f_above * (1.0 - 1e-9))[0] > t_max


def test_f_inverse_rejects_bad_targets_and_raises_unconverged(monkeypatch,
                                                              ll_curve):
    assert ll_curve.f_inverse(0.0) == (math.inf, -2.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            ll_curve.f_inverse(bad)
    monkeypatch.setattr(od, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        ll_curve.f_inverse(np.geomspace(1e-12, 1e3, 50))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(log10_y=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=16))
@example(log10_y=[-12.0, 12.0])
@example(log10_y=[4.0028, 4.0029, 4.0032, 4.0033])      # across t_min's band
@example(log10_y=[-11.0057, -11.0056, -11.0055])         # around t_max
def test_f_inverse_property(ll_curve, log10_y):
    y = np.sort(10.0 ** np.asarray(log10_y))
    t, sigma = ll_curve.f_inverse(y)
    assert np.all(np.diff(t) <= 0.0)
    gap = t == ll_curve.t_max
    assert np.all(np.abs(_f_of_t(ll_curve, t[~gap]) / y[~gap] - 1.0) <= 1e-12)
    # sigma = d log F/d log t at the root: -1 in the low tail, -inf in the gap
    low = t < ll_curve.t_min
    assert np.all(sigma[low] == -1.0) and np.all(sigma[gap] == -math.inf)
    rest = ~(low | gap)
    assert np.all(np.abs(sigma[rest] / _sigma_of_t(ll_curve, t[rest]) - 1.0) <= 1e-8)
    f_above = (math.pi**2 - 4.0 * ll_curve._high_deficit) / ll_curve.t_max**2
    assert np.all((y[gap] >= f_above * (1.0 - 1e-15))
                  & (y[gap] <= _f_of_t(ll_curve, ll_curve.t_max) * (1.0 + 1e-15)))


# --- regime classification ------------------------------------------------------

def _probe_trap(target_ratio, N=50.0, L=200.0, r=0.5, s=2.0):
    trap = od.ElongatedTrap(N, L, r, 1e-6, s)
    _, _, rho_bar = od.minimize_1d("full", N, L, trap.g, s)
    int_b4 = od.UNIT_MODES[trap.transverse][1]
    for _ in range(8):
        a = target_ratio * rho_bar * r**2 / (8.0 * math.pi * int_b4)
        trap = od.ElongatedTrap(N, L, r, a, s)
        _, _, rho_bar = od.minimize_1d("full", N, L, trap.g, s)
        if abs(trap.g / rho_bar - target_ratio) / target_ratio < 0.02:
            break
    return trap


def test_regime_probes():
    tr = _probe_trap(1e-4 * 50.0**-2)
    assert od.regime_classify(tr)["region"] == 1
    tr = _probe_trap(1.0)
    rep = od.regime_classify(tr)
    assert rep["region"] == 4
    assert rep["valid"]
    tr = _probe_trap(1e3)
    rep5 = od.regime_classify(tr)
    assert rep5["region"] == 5
    assert "Girardeau" not in rep5["scaling"]  # scaling string is formulaic
    assert rep5["scaling"].startswith("E_GT")


def test_regime_boundary_returns_pair():
    # ratio right at the 4|5 cut -> ambiguous band -> pair, not a guess
    tr = _probe_trap(1e2)
    assert od.regime_classify(tr)["region"] == [4, 5]


def test_condition_validity_flag():
    # fat transverse trap violates e1D << 1/r^2
    trap = od.ElongatedTrap(40.0, 10.0, 5.0, 1.0, 2.0)
    assert not od.regime_classify(trap)["valid"]


def test_llcurve_export(tmp_path, ll_curve):
    path = tmp_path / "curve.csv"
    export_csv(ll_curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,e,sigma"
    assert len(lines) == 201
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    ts, es, sigmas = map(list, zip(*rows))
    assert ts == sorted(ts) and ts[0] == ll_curve.t_min
    assert es == sorted(es)
    assert sigmas == ll_curve.nodes_sigma.tolist()


def test_functional_value_closed_forms_build_no_table(tmp_path, monkeypatch):
    # with the shipped table unreadable, a kind that reads e(t) raises
    monkeypatch.setattr(od, "_DEFAULT_CURVE", None)
    monkeypatch.setattr(od, "_TABLE", tmp_path / "no_table.csv")
    for kind in ("gp1d", "tf1d", "gt"):
        prof, energy, _ = od.minimize_1d(kind, 4.0 / 3.0, 1.0, 0.5, 2.0)
        assert math.isfinite(energy)
        assert math.isfinite(functional_value(kind, prof, 1.0, 0.5))
    with pytest.raises(FileNotFoundError):
        od.minimize_1d("ll_no_grad", 4.0 / 3.0, 1.0, 0.5, 2.0)


if __name__ == "__main__":
    # the reference build, written as the shipped table: see _REGENERATE
    curve = build_ll_curve()
    export_csv(curve, sys.argv[1])
    print(repr(curve.mesh_error))
