import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.special import jn_zeros

from bosegas import flows, onedim as od
from bosegas.rootfind import normalization_root


# --- Lieb-Liniger energy density ---------------------------------------------

def test_e_of_zero_is_zero(ll_curve):
    assert ll_curve.e(0.0) == 0.0
    assert od.solve_ll_point(0.0) == 0.0


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
    gamma, e_ba = od.solve_ba_density(lam)
    gamma_ref, e_ref = _reference_ba_density(lam)
    assert abs(gamma / gamma_ref - 1.0) < 1e-12
    assert abs(e_ba / e_ref - 1.0) < 1e-12


def test_solve_ba_density_rejects_odd_mesh():
    with pytest.raises(ValueError):
        od.solve_ba_density(1.0, 441)


# (node index, t, e) of the default table, from the full-mesh column-loop
# solve the half-mesh one replaced
_PINNED_NODES = [
    (0, "0x1.a36e2eb1c432dp-14", "0x1.a2b9d79faa9bbp-15"),
    (40, "0x1.4f59f88311431p-7", "0x1.4552b318ba586p-8"),
    (80, "0x1.0c207fc9849b4p+0", "0x1.858ee8254063ap-2"),
    (120, "0x1.acc1abcc54ee0p+6", "0x1.8765d7066d8fcp+1"),
    (160, "0x1.56cedd240dd53p+13", "0x1.a4cbd336b91a0p+1"),
    (199, "0x1.e848000000000p+19", "0x1.a519895de897ep+1"),
]


def test_default_table_pinned_nodes(ll_curve):
    assert len(ll_curve.nodes_t) == 200
    for i, t_hex, e_hex in _PINNED_NODES:
        assert ll_curve.nodes_t[i] == float.fromhex(t_hex)
        assert abs(ll_curve.nodes_e[i] / float.fromhex(e_hex) - 1.0) < 1e-12


def test_table_reports_mesh_error(ll_curve):
    assert ll_curve.mesh_error is not None
    assert math.isfinite(ll_curve.mesh_error)
    assert 0.0 < ll_curve.mesh_error < 1e-2


def test_curve_against_direct_root_find(ll_curve):
    for t in (3e-3, 0.37, 42.0):
        direct = od.solve_ll_point(t)
        assert abs(ll_curve.e(t) / direct - 1.0) < 1e-5


def test_composite_convexity(ll_curve):
    rho = np.linspace(0.05, 20.0, 200)
    h = rho**3 * ll_curve.e(1.0 / rho)
    assert float(np.min(np.diff(h, 2))) >= -1e-8


def test_curve_derivative_consistency(ll_curve):
    for t in (1e-3, 0.2, 5.0, 2e3):
        h = 1e-5 * t
        fd = (ll_curve.e(t + h) - ll_curve.e(t - h)) / (2 * h)
        assert abs(ll_curve.de(t) - fd) < 1e-4 * max(abs(fd), 1e-12)


def test_curve_derivative_is_the_interpolant_derivative(ll_curve):
    t = np.geomspace(ll_curve.t_min, ll_curve.t_max, 37)
    lt = np.log(t)
    ref = PchipInterpolator(np.log(ll_curve.nodes_t), np.log(ll_curve.nodes_e))
    assert np.array_equal(ll_curve.e(t), np.exp(ref(lt)))
    assert np.array_equal(ll_curve.de(t), np.exp(ref(lt)) * ref.derivative()(lt) / t)


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
    p, dp = ll_curve._interp.value_and_slope(np.log(t[mid]))
    de[mid] = np.exp(p) * dp / t[mid]
    de[high] = ll_curve._high_deficit * t_max / t[high] ** 2
    assert low.sum() == 10 and high.sum() == 9
    pair = ll_curve.e_and_de(t)
    assert np.array_equal(pair[0], ll_curve.e(t))
    assert np.array_equal(pair[1], de)
    assert np.array_equal(ll_curve.de(t), de)
    for i in (0, 5, 12, len(t) - 1):
        assert ll_curve.e_and_de(t[i]) == (ll_curve.e(t[i]), de[i])


def _assert_pchip_matches_scipy(x, y, at):
    ours, ref = od.Pchip(x, y), PchipInterpolator(x, y)
    assert np.array_equal(ours.x, ref.x)
    assert np.array_equal(ours.c, ref.c)
    assert np.array_equal(ours(at), ref(at))
    value, slope = ours.value_and_slope(at)
    assert np.array_equal(value, ref(at))
    assert np.array_equal(slope, ref.derivative()(at))


def test_pchip_matches_scipy_on_the_default_table(ll_curve):
    x = np.log(ll_curve.nodes_t)
    at = np.concatenate((x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 20001)))
    _assert_pchip_matches_scipy(x, np.log(ll_curve.nodes_e), at)
    assert ll_curve._interp.c.shape == (4, len(x) - 1)


def test_pchip_matches_scipy_on_shaped_data():
    # end slopes: (3 m0 - m1)/2 has the wrong sign (set to 0), and the
    # slopes change sign with |d| > 3 |m0| (clamped to 3 m0)
    for y in ([0.0, 1.0, 5.0, 6.0], [0.0, 1.0, -9.0, -9.5]):
        x = np.arange(4.0)
        _assert_pchip_matches_scipy(x, np.array(y), np.linspace(-1.0, 4.0, 51))
    assert od.Pchip(np.arange(4.0), [0.0, 1.0, 5.0, 6.0]).c[2, 0] == 0.0
    assert od.Pchip(np.arange(4.0), [0.0, 1.0, -9.0, -9.5]).c[2, 0] == 3.0
    rng = np.random.default_rng(20240)
    for case in range(300):
        n = int(rng.integers(2, 40))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        # integer levels give flat segments and repeated sign changes
        y = rng.integers(-2, 3, n).astype(float) if case % 2 else rng.normal(size=n)
        at = np.concatenate((x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 200)))
        _assert_pchip_matches_scipy(x, y, at)
    with pytest.raises(ValueError):
        od.Pchip([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


def test_negative_t_rejected(ll_curve):
    with pytest.raises(ValueError):
        ll_curve.e(-1.0)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        ll_curve.de(-1.0)


# --- transverse modes ---------------------------------------------------------

def test_harmonic_transverse_closed_form():
    trap = od.ElongatedTrap(10.0, 50.0, 1.0, 0.25)
    mode = od.transverse_mode(trap)
    assert mode.e_perp_unit == 2.0
    assert mode.int_b4_unit == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert mode.g == pytest.approx(4.0 * 0.25, rel=1e-12)
    # Gaussian profile normalized (quadrature + tail truncation ~ 1e-6)
    r = mode.grid
    norm = np.trapezoid(2 * math.pi * r * mode.b**2, r)
    assert norm == pytest.approx(1.0, abs=1e-5)


def test_hard_wall_transverse_bessel():
    trap = od.ElongatedTrap(10.0, 50.0, 2.0, 0.25, transverse="hard_wall")
    mode = od.transverse_mode(trap)
    z1 = float(jn_zeros(0, 1)[0])
    assert mode.e_perp_unit == pytest.approx(z1**2, rel=1e-12)
    assert mode.e_perp == pytest.approx(z1**2 / 4.0, rel=1e-12)


def test_transverse_numeric_agreement():
    e_unit, ib4 = od.transverse_mode_numeric("harmonic")
    assert abs(e_unit - 2.0) < 1e-8
    assert abs(ib4 - 1.0 / (2.0 * math.pi)) < 1e-8
    e_hw, ib4_hw = od.transverse_mode_numeric("hard_wall")
    trap = od.ElongatedTrap(1.0, 10.0, 1.0, 0.01, transverse="hard_wall")
    mode = od.transverse_mode(trap)
    assert abs(e_hw - mode.e_perp_unit) < 1e-8
    assert abs(ib4_hw - mode.int_b4_unit) < 1e-6


def test_g_scales_as_a_over_r_squared():
    g1 = od.transverse_mode(od.ElongatedTrap(1.0, 10.0, 1.0, 0.02)).g
    g2 = od.transverse_mode(od.ElongatedTrap(1.0, 10.0, 2.0, 0.02)).g
    g3 = od.transverse_mode(od.ElongatedTrap(1.0, 10.0, 1.0, 0.04)).g
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
        lambda y, zz: od.PI2_3 * y**3,
        lambda y, zz: math.pi**2 * y**2,
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


def test_ll_region4_scaling(ll_curve):
    N, L, g, s = 9.0, 4.0, 0.8, 2.0
    gamma = (N / L) * N ** (-2.0 / (s + 2.0))
    eA = od.minimize_1d("ll_no_grad", N, L, g, s, ll_curve)[1]
    eB = od.minimize_1d("ll_no_grad", 1.0, 1.0, g / gamma, s, ll_curve)[1]
    assert abs(eA - N * gamma**2 * eB) / abs(eA) < 1e-6


def test_gt_region5_scaling():
    N, L, s = 9.0, 4.0, 1.0
    gamma = (N / L) * N ** (-2.0 / (s + 2.0))
    eA = od.minimize_1d("gt", N, L, 0.0, s)[1]
    eB = od.minimize_1d("gt", 1.0, 1.0, 0.0, s)[1]
    assert abs(eA - N * gamma**2 * eB) / abs(eA) < 1e-8


def test_full_functional_relaxes_nothing(ll_curve):
    N, L, g, s = 5.0, 3.0, 0.5, 2.0
    _, e_full, _ = od.minimize_1d("full", N, L, g, s, ll_curve)
    for kind in ("gp1d", "tf1d", "ll_no_grad", "gt"):
        prof_k, _, _ = od.minimize_1d(kind, N, L, g, s, ll_curve)
        v_full = od.functional_value("full", prof_k, L, g, s, ll_curve)
        assert v_full >= e_full - 1e-8 * abs(e_full)


def test_minimize_1d_normalization_and_rho_bar(ll_curve):
    for kind in od.KINDS_1D:
        prof, _, rho_bar = od.minimize_1d(kind, 4.0, 2.0, 0.7, 2.0, ll_curve)
        mass = np.trapezoid(prof.rho, prof.z)
        assert mass == pytest.approx(4.0, rel=1e-6)
        assert rho_bar == pytest.approx(prof.rho_bar(), rel=1e-6)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        od.minimize_1d("bogus", 1.0, 1.0, 1.0)


def test_ll_no_grad_rejects_nonpositive_g(ll_curve):
    for g in (0.0, -0.5):
        with pytest.raises(ValueError):
            od.minimize_1d("ll_no_grad", 1.0, 1.0, g, 2.0, ll_curve)


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
        wprime = 3.0 * mid**2 * curve.e(t) - g * mid * curve.de(t)
        high = wprime > target
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


def _f_of_t(curve, t):
    """F(t) = 3 e/t^2 - e'/t, straight from e and e'."""
    return 3.0 * curve.e(t) / t**2 - curve.de(t) / t


def _solve_ll_no_grad(monkeypatch, curve, density, N, L, g):
    """minimize_1d("ll_no_grad") with ``density`` as the pointwise solve;
    returns (profile, energy, rho_bar, mu), mu being the last
    normalization root."""
    roots = []

    def recording_root(*args, **kwargs):
        roots.append(normalization_root(*args, **kwargs))
        return roots[-1]
    monkeypatch.setattr(od, "normalization_root", recording_root)
    monkeypatch.setattr(od, "_pointwise_density", density)
    return (*od.minimize_1d("ll_no_grad", N, L, g, 2.0, curve), roots[-1])


# the corners of trap-batch's ranges (N 1..100, L 1..10, g 1e-2..10) and one
# point inside; (100, 1, 1e-2) reaches t = 1.2e-4, next to the table's t_min
_LL_CASES = [(N, L, g) for N in (1.0, 100.0) for L in (1.0, 10.0)
             for g in (1e-2, 10.0)] + [(3.7, 4.3, 0.13)]


@pytest.mark.parametrize("N, L, g", _LL_CASES)
def test_ll_no_grad_matches_bisection_reference(monkeypatch, ll_curve, N, L, g):
    prof, energy, rho_bar, mu = _solve_ll_no_grad(
        monkeypatch, ll_curve, _POINTWISE_DENSITY, N, L, g)
    _, ref_energy, ref_rho_bar, ref_mu = _solve_ll_no_grad(
        monkeypatch, ll_curve, _reference_ll_density, N, L, g)
    assert abs(energy / ref_energy - 1.0) <= 1e-10
    assert abs(rho_bar / ref_rho_bar - 1.0) <= 1e-10
    assert abs(mu / ref_mu - 1.0) <= 1e-12

    # the same mu: the support grid, and targets mu - V down to ~1e-16 mu
    # at the support edge, where t = g/rho lies beyond the table's t_max
    V = np.concatenate((od._v_long(prof.z, L, 2.0),
                        mu * (1.0 - np.geomspace(1e-15, 1e-6, 10))))
    rho = _POINTWISE_DENSITY("ll_no_grad", mu, V, g, ll_curve)
    ref = _reference_ll_density("ll_no_grad", mu, V, g, ll_curve)
    pos = rho > 0
    assert np.max(g / rho[pos]) > ll_curve.t_max
    assert np.max(np.abs(rho[pos] / ref[pos] - 1.0)) <= 1e-12
    # rho = 0 exactly where mu <= V; the bisection stops at its resolution
    assert np.all(ref[~pos] <= 2.0**-79 * max(2.0 * mu / g + 1.0, 4.0 * mu))


def test_ll_density_takes_the_smallest_root_at_t_min(ll_curve):
    # the low tail meets the table in value but not in slope, and F jumps
    # up across t_min: a y in (F(t_min-), F(t_min+)] has two roots
    t_min = ll_curve.t_min
    f_below = ll_curve._low_ratio / t_min
    f_above = _f_of_t(ll_curve, t_min)
    assert f_below < f_above
    y = np.linspace(f_below, f_above * (1.0 - 1e-12), 6)[1:]
    t = ll_curve.f_inverse(y)
    assert np.all(t >= t_min)                     # the table root
    assert np.max(np.abs(_f_of_t(ll_curve, t) / y - 1.0)) <= 1e-12
    above = f_above * (1.0 + 1e-9)                # only the low tail is left
    assert ll_curve.f_inverse(above) == pytest.approx(ll_curve._low_ratio / above,
                                                      rel=1e-15)
    # rho (g = 1) rises with mu - V through the band, and stays at or below
    # g/t_min while mu - V <= g^2 F(t_min+)
    mu = 2.0 * f_above
    target = np.linspace(0.99 * f_below, 1.01 * f_above, 2001)
    rho = od._pointwise_density("ll_no_grad", mu, mu - target, 1.0, ll_curve)
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
    assert np.all(ll_curve.f_inverse(y) == t_max)
    assert ll_curve.f_inverse(f_above * (1.0 - 1e-9)) > t_max


def test_f_inverse_rejects_bad_targets_and_raises_unconverged(monkeypatch,
                                                              ll_curve):
    assert ll_curve.f_inverse(0.0) == math.inf
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            ll_curve.f_inverse(bad)
    monkeypatch.setattr(od, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        ll_curve.f_inverse(np.geomspace(1e-12, 1e3, 50))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(log10_y=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=16))
@example(log10_y=[-12.0, 12.0])
@example(log10_y=[3.9992, 3.9993, 3.9997, 3.9998])      # across t_min's band
@example(log10_y=[-11.0057, -11.0056, -11.0055])         # around t_max
def test_f_inverse_property(ll_curve, log10_y):
    y = np.sort(10.0 ** np.asarray(log10_y))
    t = ll_curve.f_inverse(y)
    assert np.all(np.diff(t) <= 0.0)
    gap = t == ll_curve.t_max
    assert np.all(np.abs(_f_of_t(ll_curve, t[~gap]) / y[~gap] - 1.0) <= 1e-12)
    f_above = (math.pi**2 - 4.0 * ll_curve._high_deficit) / ll_curve.t_max**2
    assert np.all((y[gap] >= f_above * (1.0 - 1e-15))
                  & (y[gap] <= _f_of_t(ll_curve, ll_curve.t_max) * (1.0 + 1e-15)))


# --- regime classification ------------------------------------------------------

def _probe_trap(target_ratio, ll, N=50.0, L=200.0, r=0.5, s=2.0):
    trap0 = od.ElongatedTrap(N, L, r, 1e-6, s)
    mode = od.transverse_mode(trap0)
    _, _, rho_bar = od.minimize_1d("full", N, L, mode.g, s, ll)
    trap = trap0
    for _ in range(8):
        a = target_ratio * rho_bar * r**2 / (8.0 * math.pi * mode.int_b4_unit)
        trap = od.ElongatedTrap(N, L, r, a, s)
        mode = od.transverse_mode(trap)
        _, _, rho_bar = od.minimize_1d("full", N, L, mode.g, s, ll)
        if abs(mode.g / rho_bar - target_ratio) / target_ratio < 0.02:
            break
    return trap


def test_regime_probes(ll_curve):
    tr = _probe_trap(1e-4 * 50.0**-2, ll_curve)
    assert od.regime_classify(tr, ll=ll_curve).region == 1
    tr = _probe_trap(1.0, ll_curve)
    rep = od.regime_classify(tr, ll=ll_curve)
    assert rep.region == 4
    assert rep.valid
    tr = _probe_trap(1e3, ll_curve)
    rep5 = od.regime_classify(tr, ll=ll_curve)
    assert rep5.region == 5
    assert "Girardeau" not in rep5.scaling  # scaling string is formulaic
    assert rep5.scaling.startswith("E_GT")


def test_regime_boundary_returns_pair(ll_curve):
    # ratio right at the 4|5 cut -> ambiguous band -> pair, not a guess
    tr = _probe_trap(1e2, ll_curve)
    rep = od.regime_classify(tr, ll=ll_curve)
    assert isinstance(rep.region, tuple)
    assert rep.region == (4, 5)


def test_condition_validity_flag(ll_curve):
    # fat transverse trap violates e1D << 1/r^2
    trap = od.ElongatedTrap(40.0, 10.0, 5.0, 1.0, 2.0)
    rep = od.regime_classify(trap, ll=ll_curve)
    assert not rep.valid


# --- finite-box brackets ---------------------------------------------------------

def test_box_bounds_collapse_as_a_to_zero():
    lo, up = od.box_bounds_1d(2, 1.0, 0.01, 1e-30, 3.0, 3.5)
    assert lo == pytest.approx(3.0, rel=1e-3)
    assert up == pytest.approx(3.5, rel=1e-3)


def test_box_bounds_width_small_for_tiny_a():
    e1d = 1.0
    lo, up = od.box_bounds_1d(2, 1.0, 1e-2, 1e-22, e1d, e1d, C=1.0)
    assert (up - lo) / e1d < 0.01
    assert lo <= e1d <= up


def test_box_bounds_bracket_precondition():
    with pytest.raises(ValueError):
        od.box_bounds_1d(100.0, 1.0, 0.1, 0.09, 1.0, 1.0)


def test_llcurve_export(tmp_path, ll_curve):
    path = tmp_path / "curve.csv"
    ll_curve.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,e"
    assert len(lines) == 201
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    es = [float(line.split(",")[1]) for line in lines[1:]]
    assert ts == sorted(ts) and ts[0] == pytest.approx(1e-4)
    assert es == sorted(es)


def test_curve_disk_cache_round_trip(tmp_path, monkeypatch, ll_curve):
    import bosegas.onedim as od_mod
    monkeypatch.setenv("BOSEGAS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", None)
    try:
        np.savez(tmp_path / od_mod.curve_cache_name(),
                 t=ll_curve.nodes_t, e=ll_curve.nodes_e)
        cached = od_mod.default_curve()
        assert np.allclose(cached.nodes_e, ll_curve.nodes_e)
    finally:
        monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", ll_curve)


def test_curve_cold_build_writes_one_cache_file(tmp_path, monkeypatch,
                                                ll_curve):
    import bosegas.onedim as od_mod
    cache = tmp_path / "cache"
    monkeypatch.setenv("BOSEGAS_CACHE_DIR", str(cache))
    monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", None)
    monkeypatch.setattr(od_mod, "build_ll_curve", lambda: ll_curve)
    assert od_mod.default_curve() is ll_curve
    assert [p.name for p in cache.iterdir()] == [od_mod.curve_cache_name()]
    monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", None)
    monkeypatch.setattr(od_mod, "build_ll_curve", None)   # must load, not build
    loaded = od_mod.default_curve()
    assert np.array_equal(loaded.nodes_t, ll_curve.nodes_t)
    assert np.array_equal(loaded.nodes_e, ll_curve.nodes_e)
    assert loaded.mesh_error == ll_curve.mesh_error


def test_curve_cache_name_is_keyed():
    import bosegas
    name = od.curve_cache_name()
    assert name != "ll_curve_v1.npz" and name.endswith(".npz")
    for part in (bosegas.__version__, f"s{od._CURVE_SCHEME}", "n200", "m440",
                 "w240", "0.0001", "1000000.0"):
        assert part in name


def _poisoned_nan(t, e):
    e = e.copy()
    e[17] = np.nan
    return t, e


def _poisoned_order(t, e):
    e = e.copy()
    e[[40, 41]] = e[[41, 40]]
    return t, e


@pytest.mark.parametrize("poison", [_poisoned_nan, _poisoned_order],
                         ids=["nan", "non_monotone"])
def test_invalid_cache_file_is_rebuilt_and_replaced(tmp_path, monkeypatch,
                                                    ll_curve, poison):
    import bosegas.onedim as od_mod
    path = tmp_path / od_mod.curve_cache_name()
    t, e = poison(ll_curve.nodes_t, ll_curve.nodes_e)
    np.savez(path, t=t, e=e)
    builds = []

    def build():
        builds.append(1)
        return ll_curve
    monkeypatch.setenv("BOSEGAS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", None)
    monkeypatch.setattr(od_mod, "build_ll_curve", build)
    assert od_mod.default_curve() is ll_curve
    assert builds == [1]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    with np.load(path) as data:
        assert np.array_equal(data["e"], ll_curve.nodes_e)
        assert float(data["mesh_error"]) == ll_curve.mesh_error


def test_valid_cache_file_loads_without_build(tmp_path, monkeypatch, ll_curve):
    import bosegas.onedim as od_mod
    od_mod._save_curve(ll_curve, str(tmp_path / od_mod.curve_cache_name()))
    monkeypatch.setenv("BOSEGAS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", None)
    monkeypatch.setattr(od_mod, "build_ll_curve", None)   # must load, not build
    loaded = od_mod.default_curve()
    assert np.array_equal(loaded.nodes_e, ll_curve.nodes_e)
    assert loaded.mesh_error == ll_curve.mesh_error


def test_functional_value_closed_forms_build_no_table(tmp_path, monkeypatch):
    import bosegas.onedim as od_mod

    def no_build():
        raise AssertionError("e(t) table built for a closed-form functional")
    monkeypatch.setenv("BOSEGAS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(od_mod, "_DEFAULT_CURVE", None)
    monkeypatch.setattr(od_mod, "build_ll_curve", no_build)
    z = np.linspace(-2.0, 2.0, 201)
    prof = od.Profile1D(z, np.maximum(1.0 - z**2, 0.0), 4.0 / 3.0)
    for kind in ("gp1d", "tf1d", "gt"):
        assert math.isfinite(od.functional_value(kind, prof, 1.0, 0.5))
    assert not list(tmp_path.iterdir())
