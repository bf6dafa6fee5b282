import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosegas import charged as ch
from bosegas import oracles
from bosegas.quadrature import tanh_sinh

# dual-path value of int_0^inf (1 + x^4 - x^2 sqrt(2+x^4)) dx, frozen from
# the Gamma-function arithmetic 2^{3/4} sqrt(pi) Gamma(3/4)/(5 Gamma(5/4))
X_INTEGRAL = 0.8060094626883225


def test_bogolubov_bound_trivial_cases():
    assert ch.bogolubov_bound(1.0, 0.0, 0.0) == 0.0
    assert ch.bogolubov_bound(0.0, 0.7, 0.3) == pytest.approx(-1.0)
    assert ch.bogolubov_bound(1.0, 1.0, 0.0) == \
        pytest.approx(-2.0 + math.sqrt(3.0), rel=1e-14)


def test_bogolubov_bound_monotonicity(rng):
    for _ in range(200):
        A, B = rng.uniform(0.01, 5.0, 2)
        split = rng.uniform(0.0, 1.0)
        base = ch.bogolubov_bound(A, split * B, (1 - split) * B)
        # nondecreasing in A at fixed B-total
        assert ch.bogolubov_bound(A * 1.1, split * B,
                                  (1 - split) * B) >= base - 1e-12
        # nonincreasing in the B-total at fixed A
        assert ch.bogolubov_bound(A, split * B * 1.1,
                                  (1 - split) * B * 1.1) <= base + 1e-12
        # depends only on B_plus + B_minus
        assert ch.bogolubov_bound(A, B, 0.0) == \
            pytest.approx(base, rel=1e-13)


def test_bogolubov_rejects_negative():
    for args in ((-1.0, 0.0, 0.0), (1.0, -0.5, 0.0), (1.0, 0.5, -1e-300)):
        with pytest.raises(ValueError, match="nonnegative"):
            ch.bogolubov_bound(*args)


def test_x_integral_dual_path():
    fc = ch.foldy_constant(1.0)
    assert abs(fc.x_integral - fc.x_integral_quadrature) < 1e-8
    assert fc.x_integral == pytest.approx(X_INTEGRAL, abs=1e-12)


def test_x_integrand_endpoint_and_tail():
    integrand = lambda x: 1.0 + x**4 - x * x * math.sqrt(2.0 + x**4)
    assert integrand(0.0) == 1.0
    # algebraic tail ~ x^-4/2 after the cancellation (x = 40 would sit at
    # the roundoff floor of the subtraction, so stop at 20)
    for x in (5.0, 10.0, 20.0):
        assert integrand(x) == pytest.approx(0.5 * x**-4, rel=5e-3)


def test_gamma_ratio_literal_matches_scipy():
    from scipy.special import gamma
    assert ch._GAMMA_RATIO == float(gamma(0.75) / gamma(1.25))


def test_foldy_constant_mu_scaling():
    i0 = ch.foldy_constant(1.0).i0
    assert ch.foldy_constant(16.0).i0 / i0 == pytest.approx(0.5, rel=1e-14)


def test_foldy_law_sign_and_scaling():
    for rho in (0.1, 1.0, 1e4):
        assert ch.foldy_law(rho) < 0.0
    assert ch.foldy_law(16.0) / ch.foldy_law(1.0) == pytest.approx(2.0,
                                                                  rel=1e-14)


def test_foldy_law_matches_i0():
    i0 = ch.foldy_constant(3.0).i0
    assert ch.foldy_law(2.0, mu=3.0) == pytest.approx(-i0 * 2.0**0.25,
                                                      rel=1e-14)
    assert "rho^(1/3)" in ch.INFINITE_MASS_NOTE


def test_tanh_sinh_reversed_and_empty_intervals():
    # over [b, a] the rule has a negative half-width and gives
    # -tanh_sinh(f, a, b) bit for bit; over [a, a] it gives 0
    integrands = (math.exp, math.cos, lambda x: 1.0 / (1.0 + x * x),
                  lambda x: math.log1p(x**4))
    for f in integrands:
        for a, b in ((0.0, 1.0), (-2.0, 3.0), (0.5, 7.25)):
            assert tanh_sinh(f, b, a) == -tanh_sinh(f, a, b)
            assert tanh_sinh(f, a, a) == 0.0


def test_local_energy_matches_closed_form():
    le = ch.local_energy_integral(100.0, 1.0, 1.0)
    assert le.rel_deviation < 1e-6
    le2 = ch.local_energy_integral(7.0, 2.3, 0.6)
    assert le2.rel_deviation < 1e-6


def test_local_energy_for_cell_state():
    # a neutral cell at background density 100 and side 1 holds nu = 100
    le = ch.local_energy_integral(100.0, 1.0, 1.0)
    assert le.rel_deviation < 1e-6
    assert le.value == pytest.approx(-ch.foldy_constant(1.0).i0 * 100.0 * 100.0**0.25,
                                     rel=1e-6)


def test_local_energy_nu_scaling():
    v1 = ch.local_energy_integral(100.0, 1.0, 1.0).value
    v2 = ch.local_energy_integral(1600.0, 1.0, 1.0).value
    assert v2 / v1 == pytest.approx(32.0, rel=1e-9)


def test_local_energy_integrand_tail_envelope():
    # integrand (with the k^2 radial weight) decays like k^-4
    nu, ell, mu = 100.0, 1.0, 1.0
    def radial(k):
        B = 4.0 * math.pi * nu / k**2
        A = mu * ell**3 * k**2
        s = A + B
        return (s - math.sqrt(s * s - B * B)) * k * k
    ks = np.array([50.0, 100.0, 200.0])
    vals = np.array([radial(k) for k in ks])
    slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
    assert abs(slope + 4.0) < 0.05


def test_dyson_minimizer_properties():
    dm = ch.dyson_functional_minimize(1.0)
    assert dm.energy < 0.0
    assert dm.virial_residual < 1e-3
    assert np.all(dm.Phi >= -1e-12)
    # radial decay: tail mass negligible, profile peaked at the center
    assert dm.Phi[-1] < 1e-7 * np.max(dm.Phi)
    assert np.argmax(dm.Phi) < len(dm.Phi) // 4
    assert np.all(np.diff(dm.Phi) <= 1e-12)  # radially decreasing


def test_dyson_energy_below_gaussian_trial():
    i0 = ch.foldy_constant(1.0).i0
    dm = ch.dyson_functional_minimize(1.0)
    best = math.inf
    for sig in np.linspace(10.0, 100.0, 30):
        r = np.linspace(1e-6, 40 * sig, 200000)
        phi = (math.pi * sig**2) ** -0.75 * np.exp(-(r**2) / (2 * sig**2))
        kin = 1.0 * np.trapezoid(4 * math.pi * r**2 * np.gradient(phi, r) ** 2, r)
        att = i0 * np.trapezoid(4 * math.pi * r**2 * phi**2.5, r)
        best = min(best, kin - att)
    assert best < 0.0
    assert dm.energy <= best + 1e-9


def test_dyson_unconverged_domain_raises(monkeypatch):
    # a domain far too small for the minimizer: the boundary mass stays above
    # 1e-12, and the iterate must not leak
    monkeypatch.setattr(ch, "_DYSON_GRID", 256)
    monkeypatch.setattr(ch, "_DYSON_RMAX_FACTOR", 0.05)
    with pytest.raises(RuntimeError, match="boundary mass"):
        ch.dyson_functional_minimize(1.0)


@pytest.fixture(scope="module")
def dyson_one():
    return ch.dyson_functional_minimize(1.0)


@pytest.mark.parametrize("mu", [1e-8, 1e-4, 0.5, 2.0, 1e4, 1e8])
def test_dyson_exact_dilation(dyson_one, mu):
    # Phi(x) = mu^{-3/2} Psi(x/mu) and E*(mu) = E*(1)/mu
    dm = ch.dyson_functional_minimize(mu)
    assert dm.mu == mu
    assert abs(mu * dm.energy / dyson_one.energy - 1.0) <= 1e-15
    for f in ("kinetic", "attraction"):
        assert mu * getattr(dm, f) == pytest.approx(getattr(dyson_one, f),
                                                    rel=1e-15)
    assert dm.virial_residual == dyson_one.virial_residual <= 1e-3
    assert np.array_equal(dm.grid, mu * dyson_one.grid)
    assert np.array_equal(dm.Phi, mu ** -1.5 * dyson_one.Phi)
    d, d1 = dm.solve, dyson_one.solve
    assert d.discretization_note == d1.discretization_note
    assert mu * d.E_coarse == pytest.approx(d1.E_coarse, rel=1e-15)
    assert mu * d.E_discretization_error == pytest.approx(
        d1.E_discretization_error, rel=1e-15)
    assert (d.iterations, d.rejected_steps, d.newton_steps) == \
        (d1.iterations, d1.rejected_steps, d1.newton_steps)


@pytest.mark.parametrize("mu", [2.0, 0.5])
def test_dyson_dilation_matches_a_direct_solve(dyson_one, mu):
    # second route: the flow at mu itself, on a domain scaled by mu
    rmax = ch._DYSON_RMAX_FACTOR * (1.0 / ch._i0(1.0)) ** (4.0 / 3.0)
    direct = ch._dyson_flow(mu, ch._DYSON_GRID, mu * rmax)
    assert direct.energy == pytest.approx(ch.dyson_functional_minimize(mu).energy,
                                          rel=1e-13)


def test_dyson_one_flow_per_caller(monkeypatch, tmp_path):
    # every minimizer a caller needs is one flow solve, with no memo
    # between; the CLI reads the stored constants and runs none
    from bosegas import cli, verify
    calls = []
    flow = ch._dyson_flow

    def counted(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(ch, "_dyson_flow", counted)
    assert cli.main(["charged", "dyson", "--N", "100",
                     "--out", str(tmp_path / "dyson.json")]) == 0
    assert not calls
    verify._charged_checks(17)
    assert len(calls) == 1
    calls.clear()
    ch.dyson_functional_minimize(0.7)
    assert len(calls) == 1
    ch.dyson_functional_minimize(0.7)
    assert len(calls) == 2


def test_two_component_ratio_exact():
    e1 = ch.two_component_energy(100.0)
    e2 = ch.two_component_energy(200.0)
    assert e2.energy / e1.energy == pytest.approx(2.0**1.4, rel=1e-12)
    assert e1.energy < 0.0 and e2.energy < 0.0
    assert e1.length_scale == pytest.approx(100.0**-0.2)
    assert e1.correlation_length == pytest.approx(100.0**-0.4)
    # at mu = 2 energies halve and lengths double
    e3 = ch.two_component_energy(100.0, 2.0)
    assert e3.energy == pytest.approx(e1.energy / 2.0, rel=1e-15)
    assert e3.length_scale == pytest.approx(2.0 * 100.0**-0.2, rel=1e-15)
    assert e3.correlation_length == pytest.approx(2.0 * 100.0**-0.4, rel=1e-15)
    assert e3.virial_residual == e1.virial_residual <= 1e-13
    for N, mu in ((0.5, 1.0), (100.0, 0.0), (100.0, -1.0)):
        with pytest.raises(ValueError):
            ch.two_component_energy(N, mu)


def _chebyshev(n, R):
    """Chebyshev points R cos(pi j / n), j = 0..n, their differentiation
    matrix and Clenshaw-Curtis weights on [-R, R] (n odd)."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    v = np.ones(n - 1)
    for k in range(1, (n - 1) // 2 + 1):
        v -= 2.0 * np.cos(2 * k * np.pi * j[1:-1] / n) / (4 * k * k - 1)
    w = np.concatenate([[1.0 / n**2], 2.0 * v / n, [1.0 / n**2]])
    return R * x, D / R, R * w


def _dyson_chebyshev(R, n):
    """(E*, kinetic, attraction) of Dyson's functional at mu = 1 by
    collocation of the radial problem on [-R, R] (r = 0 is no node for odd
    n, and the r^2 weight is smooth): bordered Newton on (-Lap phi - (5/4)
    I0 phi^{3/2} - lambda phi, int phi^2 - 1) from a Gaussian."""
    i0 = ch._i0(1.0)
    r, D, w = _chebyshev(n, R)
    lap = (D @ D + (2.0 / r)[:, None] * D)[1:-1, 1:-1]  # phi(+-R) = 0
    r, D = r[1:-1], D[1:-1, 1:-1]
    w = 2.0 * math.pi * r**2 * w[1:-1]       # int f d^3x of an even f
    phi = np.exp(-(r / (3.0 * i0 ** (-4.0 / 3.0))) ** 2)
    phi /= math.sqrt(w @ phi**2)
    lam = w @ (-phi * (lap @ phi) - 1.25 * i0 * phi**2.5)
    m = len(r)
    for _ in range(10):
        jac = np.zeros((m + 1, m + 1))
        jac[:m, :m] = -lap - np.diag(1.875 * i0 * np.abs(phi) ** 0.5 + lam)
        jac[:m, m] = -phi
        jac[m, :m] = 2.0 * w * phi
        residual = np.append(-lap @ phi - 1.25 * i0 * np.abs(phi) ** 1.5
                             - lam * phi, w @ phi**2 - 1.0)
        step = np.linalg.solve(jac, -residual)
        phi, lam = phi + step[:m], lam + step[m]
    # converged to the rounding floor (quadratic steps reach 1e-14 by the 6th)
    assert np.max(np.abs(step[:m])) < 1e-11 * np.max(phi)
    kinetic = w @ (D @ phi) ** 2
    attraction = i0 * (w @ np.abs(phi) ** 2.5)
    return kinetic - attraction, kinetic, attraction


@pytest.mark.parametrize("R, n", [(120.0, 241), (150.0, 321)])
def test_dyson_constants_match_a_chebyshev_solve(R, n):
    # the stored (E*, kinetic, attraction) at mu = 1 by a second, spectral
    # route; the domain, not n, limits it (at R = 100 the kinetic term is
    # 4e-12 off)
    e_star, kinetic, attraction = _dyson_chebyshev(R, n)
    assert ch._DYSON_UNIT == pytest.approx((e_star, kinetic, attraction),
                                           rel=1e-13)
    assert ch.two_component_energy(1.0).e_star == pytest.approx(e_star,
                                                                rel=1e-13)


def test_fock_ground_converges_to_bound():
    bound = ch.bogolubov_bound(1.0, 0.5, 0.0)
    gaps = [oracles.fock_quadratic_ground(1.0, 0.5, 0.0, c) - bound
            for c in (4, 8, 16, 40)]
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[0] >= gaps[-1]
    assert gaps[-1] < 1e-3


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(A=st.floats(0.0, 3.0), B_plus=st.floats(0.0, 3.0),
       B_minus=st.floats(0.0, 3.0))
@example(A=0.05, B_plus=3.0, B_minus=0.0)
@example(A=0.05, B_plus=3.0, B_minus=3.0)
def test_bogolubov_bound_below_fock_property(A, B_plus, B_minus):
    bound = ch.bogolubov_bound(A, B_plus, B_minus)
    assert bound <= oracles.fock_quadratic_ground(A, B_plus, B_minus, 6) + 1e-9


def test_fock_corpus_never_below_bound(rng):
    for _ in range(60):
        A, Bp, Bm = rng.uniform(0.05, 3.0, 3)
        bound = ch.bogolubov_bound(A, Bp, Bm)
        assert oracles.fock_quadratic_ground(A, Bp, Bm, 6) >= bound - 1e-9
