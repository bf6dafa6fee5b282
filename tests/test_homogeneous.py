import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosegas import homogeneous as hb
from bosegas import scattering as sc
from bosegas import verify
from bosegas.quadrature import simpson


def state_at_Y(Y, mu=1.0):
    return hb.GasState3D(3.0 * Y / (4.0 * math.pi), 1.0, mu)


def test_Y_definition():
    st = hb.GasState3D(1e-3, 0.1)
    assert st.Y == pytest.approx(4.0 * math.pi * 1e-3 * 0.1**3 / 3.0, rel=1e-15)


def test_upper_bound_limits():
    # Y -> 0: every correction factor -> 1
    st = state_at_Y(1e-30)
    assert hb.upper_bound_3d(st) / st.leading == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(ValueError):
        hb.upper_bound_3d(state_at_Y(1.0))  # b = a singular
    with pytest.raises(ValueError):
        hb.upper_bound_3d(state_at_Y(8.0))


def test_upper_bound_thermodynamic_form_dual_path():
    # independent re-implementation of the rational expression
    st = state_at_Y(1e-3)
    y3 = 1e-1
    expected = st.leading * (1 - y3 + y3**2 - 0.5 * y3**3) / (1 - y3) ** 8
    assert hb.upper_bound_3d(st) == pytest.approx(expected, rel=1e-13)


def test_lower_bound_explicit_and_clamp():
    st = state_at_Y(1e-40)
    lb = hb.lower_bound_3d(st)
    assert not lb.clamped
    assert lb.value / st.leading == pytest.approx(1.0 - 8.9 * 1e-40 ** (1 / 17))
    lb2 = hb.lower_bound_3d(state_at_Y(1e-4))
    assert lb2.clamped and lb2.value == 0.0
    # Y = 0 limit approached: ratio -> 1
    tiny = state_at_Y(1e-300)
    assert hb.lower_bound_3d(tiny).value / tiny.leading == \
        pytest.approx(1.0, abs=1e-12)


def test_dyson_classic_constant():
    st = hb.GasState3D(2e-5, 0.3, 1.7)
    assert hb.dyson_classic_lower_bound(st) / st.leading == \
        1.0 / (10.0 * math.sqrt(2.0))


def test_lhy_coefficients_dual_path():
    assert hb.LHY_C1 == pytest.approx(4.814417779607521, abs=1e-14)
    assert hb.LHY_C2 == pytest.approx(19.653915177740107, abs=1e-13)
    st = state_at_Y(1e-8)
    x = st.rho * st.a**3
    expected = st.leading * (1 + hb.LHY_C1 * math.sqrt(x)
                             + hb.LHY_C2 * x * math.log(x))
    assert hb.lhy_reference(st) == pytest.approx(expected, rel=1e-14)


def test_bracketing_sweep():
    for Y in np.geomspace(1e-9, 1e-4, 25):
        st = state_at_Y(Y)
        lo = hb.lower_bound_3d(st).value
        assert lo <= hb.lhy_reference(st) <= hb.upper_bound_3d(st)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(log10_Y=st.floats(-12.0, -3.0))
@example(log10_Y=-12.0)
@example(log10_Y=-3.0)
def test_bracketing_property(log10_Y):
    state = state_at_Y(10.0**log10_Y)
    lo = hb.lower_bound_3d(state).value
    assert lo <= hb.lhy_reference(state) <= hb.upper_bound_3d(state)


def test_error_exponent_fits():
    Ys = np.geomspace(1e-40, 1e-20, 11)
    errs = [1.0 - hb.lower_bound_3d(state_at_Y(Y)).value / state_at_Y(Y).leading
            for Y in Ys]
    slope = np.polyfit(np.log(Ys), np.log(errs), 1)[0]
    assert abs(slope - 1.0 / 17.0) < 0.1 / 17.0
    Ys = np.geomspace(1e-9, 1e-4, 11)
    errs = [hb.upper_bound_3d(state_at_Y(Y)) / state_at_Y(Y).leading - 1.0
            for Y in Ys]
    slope = np.polyfit(np.log(Ys), np.log(errs), 1)[0]
    assert abs(slope - 1.0 / 3.0) < 0.1 / 3.0


# --- finite-box bound -------------------------------------------------------

def test_finite_box_n1_vanishes():
    st = hb.GasState3D(1e-4, 0.05)
    n, ell = 1.0, 10.0
    assert (4.0 * math.pi * st.mu * st.a * n * (n - 1.0) / ell**3
            * hb.k_factor(n, ell, 1.0, 0.2, 0.3, st.a)) == 0.0


def test_K_monotone_decreasing_in_n():
    # at a = 0.05 the Temple factor is negative from n = 2 on and every K
    # is 0; at a = 1e-5, K > 0 up to n = 1133 (195 of the 297 n), so the
    # sweep runs through positive values and into the trivial bound
    ks = [hb.k_factor(n, 50.0, 5.0, 1.0, 0.4, 1e-5)
          for n in np.unique(np.geomspace(2, 1e4, 400).astype(int))]
    assert sum(k > 0.0 for k in ks) > len(ks) / 2 and ks[-1] == 0.0
    assert all(ks[i] >= ks[i + 1] - 1e-15 for i in range(len(ks) - 1))


def test_k_factor_is_first_order_times_epsilon_and_temple_factors():
    # the bound is the first-order nearest-neighbor expectation
    # mu a <W_R>_0, times 1 - eps and the Temple factor
    st = hb.GasState3D(1e-3, 1e-5)
    n, ell, R, R0, eps = 40.0, 8.0, 1.0, 0.2, 0.3
    got = (4.0 * math.pi * st.mu * st.a * n * (n - 1.0) / ell**3
           * hb.k_factor(n, ell, R, R0, eps, st.a))
    rho_cell = n / ell**3
    first_order = (4.0 * math.pi * st.mu * st.a * rho_cell * (1 - 1 / n) * n
                   * (1 - 2 * R / ell) ** 3
                   / (1 + 4 * math.pi * rho_cell * (R**3 - R0**3) / 3))
    temple = 1.0 - (3.0 / math.pi) * st.a * n / (
        (R**3 - R0**3) * (math.pi * eps / ell**2 - 4.0 * st.a * n * (n - 1.0) / ell**3))
    assert 0.0 < temple < 1.0
    assert got == pytest.approx(first_order * (1.0 - eps) * temple, rel=1e-12)


def test_finite_box_trivial_bound_when_temple_fails():
    st = hb.GasState3D(1e-3, 0.5)
    # huge n drives the Temple denominator negative
    n, ell = 1e4, 5.0
    assert (4.0 * math.pi * st.mu * st.a * n * (n - 1.0) / ell**3
            * hb.k_factor(n, ell, 1.0, 0.2, 1e-6, st.a)) == 0.0


def test_thermodynamic_cell_bound_positive_for_tiny_Y():
    # eps ~ Y^{1/17}, a/ell ~ Y^{6/17}, (R^3 - R0^3)/ell^3 ~ Y^{3/17} with
    # R0 = 0 and n = 4 rho ell^3: the per-particle cell bound
    # 4 pi mu rho a (1 - 1/(rho ell^3)) K(n, ell) is positive
    Y = 1e-25
    st = state_at_Y(Y)
    eps, ell = Y ** (1.0 / 17.0), st.a * Y ** (-6.0 / 17.0)
    R = Y ** (1.0 / 17.0) * ell
    K = hb.k_factor(4.0 * st.rho * ell**3, ell, R, 0.0, eps, st.a)
    assert 0.0 < st.leading * (1.0 - 1.0 / (st.rho * ell**3)) * K < st.leading


# --- 2D bounds ---------------------------------------------------------------

def test_bounds_2d_limits_and_errors():
    st = hb.GasState2D(1e-4, 1e-3)
    out = hb.bounds_2d(st)
    lead = 4.0 * math.pi * st.mu * st.rho / st.logY
    assert out["lower"] == pytest.approx(lead)
    assert out["b"] == pytest.approx((2.0 * math.pi * st.rho) ** -0.5)
    # rho a^2 >= 1/(2 pi e) puts b = (2 pi rho)^{-1/2} at or below e^{1/2} a,
    # where ln(b/a) - pi rho b^2 = ln(b/a) - 1/2 <= 0; at rho a^2 = 0.5, b < a
    for rho_a2 in (1.0 / (2.0 * math.pi * math.e), 0.1, 0.5):
        with pytest.raises(ValueError):
            hb.bounds_2d(hb.GasState2D(rho_a2, 1.0))


def test_bounds_2d_converge_together():
    prev = None
    for rho_a2 in (1e-10, 1e-20, 1e-40, 1e-80):
        st = hb.GasState2D(1e-4, math.sqrt(rho_a2 / 1e-4))
        out = hb.bounds_2d(st)
        ratio = out["upper"] / out["lower"]
        assert abs(ratio - 1.0) < 3.0 * st.logY ** -0.2
        if prev is not None:
            assert abs(ratio - 1.0) < prev
        prev = abs(ratio - 1.0)


def test_bounds_2d_state_requires_dilute():
    with pytest.raises(ValueError):
        hb.GasState2D(1.0, 2.0)


# --- soft potentials and the radial-line lemma -------------------------------

def _simpson_norm(U):
    """The normalization integral by Simpson on 20001 points: the route the
    closed form of ``hb.soft_potential_norm_report`` is checked against."""
    r = np.linspace(U.R0, U.R, 20001)
    if U.dimension == 3:
        return simpson(U.height * r**2, r)
    return simpson(U.height * np.log(r / U.a) * r, r)


def test_soft_potential_3d_height_and_norm():
    U = hb.soft_potential(2.0, 1.0, 3, 0.5)
    assert U.height == pytest.approx(3.0 / 7.0)
    assert hb.soft_potential_norm_report(U) == pytest.approx(1.0, abs=1e-14)
    assert _simpson_norm(U) == pytest.approx(1.0, abs=1e-10)
    # a height off the normalization shows in the report
    off = hb.SoftPotential(U.R0, U.R, 3, 1.5 * U.height, U.a)
    assert hb.soft_potential_norm_report(off) == pytest.approx(
        _simpson_norm(off), abs=1e-10)


def test_soft_potential_2d_norm_and_nu():
    U = hb.soft_potential(3.0, 1.5, 2, a=1.0)
    assert hb.soft_potential_norm_report(U) == pytest.approx(1.0, abs=1e-14)
    assert _simpson_norm(U) == pytest.approx(1.0, abs=1e-10)
    off = hb.SoftPotential(U.R0, U.R, 2, 0.5 * U.height, U.a)
    assert hb.soft_potential_norm_report(off) == pytest.approx(
        _simpson_norm(off), abs=1e-10)
    # Gauss-Legendre oracle for int ln(r/a) r dr
    x, w = np.polynomial.legendre.leggauss(60)
    r = 1.5 + 0.75 * (x + 1.0)
    quad = float(np.sum(0.75 * w * np.log(r) * r))
    assert quad == pytest.approx(hb.nu_2d(3.0, 1.5, 1.0), abs=1e-12)


def test_soft_potential_preconditions():
    with pytest.raises(ValueError):
        hb.soft_potential(1.0, 2.0, 3, 0.5)
    with pytest.raises(ValueError):
        hb.soft_potential(3.0, 0.5, 2, a=1.0)  # needs R0 > a


def test_dyson_lemma_trivial_when_support_outside():
    v = sc.soft_sphere(1.0, 9.0)
    U = hb.soft_potential(6.0, 5.0, 3, sc.solve_zero_energy(v).a)
    r = np.linspace(1e-6, 4.0, 4000)
    psi = 1.0 - 0.3 / np.maximum(r, 0.3)
    margin = hb.dyson_lemma_residual(r, psi, v, U, 4.0)
    assert margin >= 0.0


def test_dyson_lemma_near_saturation():
    # psi = zero-energy solution, U a narrow annulus far out: the inequality
    # saturates up to O(a/R); per-line energy identity value ~ mu a (1 - a/R)
    r, psi, v, U, R1 = verify._dyson_lemma_grid()
    margin = hb.dyson_lemma_residual(r, psi, v, U, R1)
    assert margin >= -1e-9 * U.a
    assert margin < 0.01 * U.a


def test_dyson_lemma_entry_matches_closed_form_exterior():
    # beyond the solver grid psi = 1 - a/r, so the exterior part of the
    # margin is a^2 (1/r_end - 1/R1) - a h int_{R0}^{R} (1 - a/r)^2 r^2 dr;
    # edge nodes on the annulus would put the entry 6.8 % below it
    r, psi, v, U, R1 = verify._dyson_lemma_grid()
    a, R0, R = U.a, U.R0, U.R
    # the solver's nodes and the one just inside v's range
    n = len(sc.solve_zero_energy(v).grid) + 1
    interior = hb.dyson_lemma_residual(r[:n], psi[:n], v, U, r[n - 1])
    exterior = (a**2 * (1.0 / r[n - 1] - 1.0 / R1) - a * U.height
                * ((R**3 - R0**3) / 3.0 - a * (R**2 - R0**2) + a**2 * (R - R0)))
    margin = hb.dyson_lemma_residual(r, psi, v, U, R1)
    assert margin == pytest.approx(interior + exterior, rel=1e-2)


def test_dyson_lemma_entry_is_resolved_on_the_solver_grid(monkeypatch):
    # with a node just inside v's step, the entry moves by 2.5e-5 relative
    # when the solver's grid doubles; a node on the step drops half a cell
    # of v psi^2 r^2 and moves it by 18 %
    def entry():
        r, psi, v, U, R1 = verify._dyson_lemma_grid()
        return hb.dyson_lemma_residual(r, psi, v, U, R1) / U.a

    coarse = entry()
    solve = sc.solve_zero_energy
    monkeypatch.setattr(sc, "solve_zero_energy",
                        lambda v: solve(v, 1.0, sc.GridSpec(8192)))
    assert entry() == pytest.approx(coarse, rel=1e-4)


def test_dyson_lemma_random_corpus_3d(rng):
    v = sc.soft_sphere(1.0, 9.0)
    U = hb.soft_potential(3.0, 1.0, 3, sc.solve_zero_energy(v).a)
    r = np.linspace(1e-6, 8.0, 6000)
    for _ in range(50):
        coef = rng.normal(size=4)
        psi = 1.0 + 0.0 * r
        for k, c in enumerate(coef, start=1):
            psi += 0.2 * c * np.sin(k * r / 8.0 * math.pi / 2)
        margin = hb.dyson_lemma_residual(r, psi, v, U, 8.0)
        assert margin >= -1e-9


def test_dyson_lemma_2d_variant(rng):
    v = sc.soft_sphere(1.0, 9.0, dimension=2)
    a2 = sc.solve_zero_energy(v).a
    U = hb.soft_potential(4.0, 1.5, 2, a=a2)
    r = np.linspace(1e-6, 8.0, 6000)
    for _ in range(20):
        coef = rng.normal(size=3)
        psi = 1.0 + 0.0 * r
        for k, c in enumerate(coef, start=1):
            psi += 0.2 * c * np.sin(k * r / 8.0 * math.pi / 2)
        assert hb.dyson_lemma_residual(r, psi, v, U, 8.0) >= -1e-9


def test_dyson_lemma_rejects_bad_U():
    v = sc.soft_sphere(1.0, 9.0)
    U = hb.soft_potential(3.0, 1.0, 3, 0.5)
    bad = hb.SoftPotential(U.R0, U.R, 3, U.height * 3.0, U.a)  # violates norm
    r = np.linspace(1e-6, 8.0, 100)
    with pytest.raises(ValueError):
        hb.dyson_lemma_residual(r, np.ones_like(r), v, bad, 8.0)


def _reference_dyson_lemma_residual(r, psi, v, U, R1):
    """``hb.dyson_lemma_residual`` on whole arrays: a boolean mask for the
    nodes up to R1, ``np.gradient`` and ``np.trapezoid``."""
    mu = 1.0
    mask = r <= R1 * (1 + 1e-12)
    rr, pp = r[mask], psi[mask]
    dp = np.gradient(pp, rr)
    vv = np.asarray(v(rr))
    uu = np.asarray(U(rr))
    if U.dimension == 3:
        integrand = (mu * dp**2 + 0.5 * vv * pp**2 - mu * U.a * uu * pp**2) * rr**2
    else:
        integrand = (mu * dp**2 + 0.5 * vv * pp**2 - mu * uu * pp**2) * rr
    return float(np.trapezoid(integrand, rr))


def _dyson_test_grids():
    """The grids, v, U and R1 of the four Dyson-lemma tests above."""
    v3, v2 = sc.soft_sphere(1.0, 9.0), sc.soft_sphere(1.0, 9.0, dimension=2)
    a3, a2 = sc.solve_zero_energy(v3).a, sc.solve_zero_energy(v2).a
    r = np.linspace(1e-6, 4.0, 4000)
    yield r, 1.0 - 0.3 / np.maximum(r, 0.3), v3, hb.soft_potential(6.0, 5.0, 3, a3), 4.0
    yield verify._dyson_lemma_grid()
    r = np.linspace(1e-6, 8.0, 6000)
    psi = 1.0 + 0.2 * np.sin(r / 8.0 * math.pi / 2)
    yield r, psi, v3, hb.soft_potential(3.0, 1.0, 3, a3), 8.0
    yield r, psi, v2, hb.soft_potential(4.0, 1.5, 2, a=a2), 8.0


def test_dyson_lemma_blocks_keep_the_reference_bits():
    for r, psi, v, U, R1 in _dyson_test_grids():
        assert (hb.dyson_lemma_residual(r, psi, v, U, R1)
                == _reference_dyson_lemma_residual(r, psi, v, U, R1))


@pytest.mark.parametrize("dim", [2, 3])
def test_dyson_lemma_blocks_on_random_increasing_grids(dim):
    # short and long grids, R1 inside and beyond the grid, and an evenly
    # spaced grid, which np.gradient treats apart
    rng = np.random.default_rng(dim)
    v = sc.soft_sphere(1.0, 9.0, dimension=dim)
    U = hb.soft_potential(4.0, 1.5, dim, sc.solve_zero_energy(v).a)
    for n in (2, 3, 2048, 2049, 2050, 4097, 6151):
        for grid in ("random", "even"):
            if grid == "even":
                r = np.arange(1, n + 1) * 2.0**-8
                assert np.all(np.diff(r) == r[1] - r[0])
            else:
                r = np.cumsum(rng.uniform(0.01, 1.0, n))
                r *= 8.0 / r[-1]
            psi = 1.0 + 0.3 * np.sin(rng.normal() * r) + rng.normal(size=n) * 1e-3
            for R1 in (8.0, 20.0, float(r[rng.integers(1, n)])):
                assert (hb.dyson_lemma_residual(r, psi, v, U, R1)
                        == _reference_dyson_lemma_residual(r, psi, v, U, R1))


def test_dyson_lemma_needs_increasing_r():
    v = sc.soft_sphere(1.0, 9.0)
    U = hb.soft_potential(3.0, 1.0, 3, sc.solve_zero_energy(v).a)
    r = np.linspace(1e-6, 8.0, 100)
    for bad in (r[::-1], np.concatenate([r[:50], r[49:99]])):
        with pytest.raises(ValueError, match="increasing"):
            hb.dyson_lemma_residual(bad, np.ones_like(bad), v, U, 8.0)


def test_homogeneous_section_traced_peak():
    # the Dyson-lemma entry's whole-array gradient, integrand and trapezoid
    # are sized by its grid: its 4,816 nodes keep the section's traced peak
    # near 2.2 MB, while a uniform grid of 64,096 nodes takes it past 7 MB
    import tracemalloc

    tracemalloc.start()
    try:
        verify._homogeneous_checks(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# --- Temple ------------------------------------------------------------------

def test_temple_zero_variance_returns_mean():
    assert hb.temple_bound(1.3, 1.69, 2.0) == pytest.approx(1.3)


def test_temple_two_level_oracle():
    # H = diag(0, 1), state (cos t, sin t): bound <= 0 = E0 whenever <H> < E1
    for theta in np.linspace(0.05, 1.2, 17):
        c, s = math.cos(theta), math.sin(theta)
        hm = s * s
        h2 = s * s
        if 1.0 <= hm:
            continue
        assert hb.temple_bound(hm, h2, 1.0) <= 0.0 + 1e-14


def test_temple_gap_violation_raises():
    with pytest.raises(ValueError, match="Temple gap violated"):
        hb.temple_bound(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        hb.temple_bound(1.0, 0.5, 2.0)  # negative variance


# --- cell combinatorics ------------------------------------------------------

def test_cell_distribution_examples():
    val, t = hb.cell_distribution_min(3.0, 12)
    assert val == pytest.approx(6.0) and t == pytest.approx(3.0)
    val, t = hb.cell_distribution_min(1.0, 5)
    assert val == pytest.approx(0.0)


def test_cell_distribution_brute_force_dominates():
    for k in range(1, 6):
        for p in range(1, 4 * k + 5):
            closed, _ = hb.cell_distribution_min(k, p)
            brute = hb.cell_distribution_brute_force(k, p)
            assert brute >= closed - 1e-12


def test_cell_distribution_equality_at_p_4k():
    for k in range(1, 6):
        closed, t = hb.cell_distribution_min(k, 4 * k)
        assert closed == pytest.approx(k * (k - 1.0))
        assert t == pytest.approx(k)
        assert hb.cell_distribution_brute_force(k, 4 * k) == pytest.approx(closed)


# --- lemma on (x, b) ---------------------------------------------------------

def test_lemma_xb_substitution_point():
    b = 0.5
    lb = abs(math.log(b))
    expected = (b * b / lb) * (1.0 / (2.0 * lb)) ** 2
    assert hb.lemma_xb_margin(b, b, 1.0) == pytest.approx(expected, rel=1e-12)


def test_lemma_xb_sweep(rng):
    x = rng.uniform(1e-12, 1 - 1e-12, 100000)
    b = rng.uniform(1e-12, 1 - 1e-12, 100000)
    k = rng.uniform(1.0, 1e6, 100000)
    assert float(np.min(hb.lemma_xb_margin(x, b, k))) >= -1e-12


def test_lemma_xb_near_one_finite():
    m = hb.lemma_xb_margin(0.999999999999, 1.0 - 1e-13, 1.0)
    assert np.isfinite(m) and m > 0


def test_lemma_xb_domain_errors():
    with pytest.raises(ValueError):
        hb.lemma_xb_margin(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        hb.lemma_xb_margin(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        hb.lemma_xb_margin(0.5, 0.5, 0.5)
