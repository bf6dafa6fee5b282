import math

import numpy as np
import pytest

from bosegas import flows, meanfield as mf


def test_noninteracting_harmonic_3d():
    _, rep = mf.gp_minimize(mf.GPProblem(3, 1.0, 0.0, n_grid=2048))
    assert abs(rep.E_total - 3.0) < 1e-4
    assert abs(rep.mu_chem - 3.0) < 1e-4
    assert rep.interaction == 0.0


def test_noninteracting_harmonic_2d():
    _, rep = mf.gp_minimize(mf.GPProblem(2, 1.0, 0.0, n_grid=2048))
    assert abs(rep.E_total - 2.0) < 1e-4


def test_gaussian_profile_noninteracting():
    prof, _ = mf.gp_minimize(mf.GPProblem(3, 1.0, 0.0, n_grid=2048))
    r = prof.grid
    exact = math.pi**-0.75 * np.exp(-(r**2) / 2.0)
    sel = r < 4.0
    assert np.max(np.abs(prof.phi[sel] - exact[sel])) < 1e-3


@pytest.mark.parametrize("N,a", [(10.0, 0.1), (100.0, 0.01), (100.0, 0.1)])
def test_gp_scaling_identity(N, a):
    e_big = mf.gp_energy(3, N, a, n_grid=2048)
    e_unit = mf.gp_energy(3, 1.0, N * a, n_grid=2048)
    assert abs(e_big - N * e_unit) / abs(e_big) < 1e-8


def test_gp_minimizer_scaling_pointwise():
    p_big = mf.GPProblem(3, 100.0, 0.1, n_grid=2048)
    p_unit = mf.GPProblem(3, 1.0, 10.0, n_grid=2048)
    prof_b, _ = mf.gp_minimize(p_big)
    prof_u, _ = mf.gp_minimize(p_unit)
    assert np.allclose(prof_b.grid, prof_u.grid)
    scale = math.sqrt(100.0)
    assert np.max(np.abs(prof_b.phi - scale * prof_u.phi)) / scale < 1e-6


def test_gp_residual_and_component_sum():
    _, rep = mf.gp_minimize(mf.GPProblem(3, 5.0, 0.2, n_grid=2048))
    scale = max(abs(rep.mu_chem), rep.E_total / 5.0)
    assert rep.residual_gp < 1e-8 * scale
    total = rep.kinetic + rep.trap + rep.interaction
    assert abs(total - rep.E_total) <= 1e-10 * abs(rep.E_total)


def test_chemical_potential_vs_finite_difference():
    p = mf.GPProblem(3, 5.0, 0.2, n_grid=2048)
    _, rep = mf.gp_minimize(p)
    fd = mf.mu_chem_fd(p)
    assert abs(rep.mu_chem - fd) / abs(fd) < 1e-4


def test_mu_chem_at_least_energy_per_particle():
    for coupling in (0.0, 0.1, 1.0):
        p = mf.GPProblem(3, 3.0, coupling, n_grid=1024)
        _, rep = mf.gp_minimize(p)
        assert rep.mu_chem >= rep.E_total / p.N - 1e-10


def test_virial_identity():
    p = mf.GPProblem(3, 4.0, 0.3, n_grid=2048)
    _, rep = mf.gp_minimize(p)
    lhs = rep.mu_chem * p.N
    rhs = rep.E_total + 4.0 * math.pi * p.mu * p.coupling * rep.quartic_integral
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_gp_2d_case_that_stalled_the_polish_endgame():
    # a 2D trap-batch draw (seed 4) that the inverse-iteration endgame left
    # at residual 1.231e-08 after 421 iterations; Newton converges
    p = mf.GPProblem(2, 43.04753928539263, 0.017538753359347698, n_grid=4096)
    _, rep = mf.gp_minimize(p)
    lhs = rep.mu_chem * p.N
    rhs = rep.E_total + 4.0 * math.pi * p.mu * p.coupling * rep.quartic_integral
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_uniqueness_two_initializations(rng):
    p = mf.GPProblem(3, 3.0, 0.5, n_grid=1024)
    fp = mf._build_problem(p)
    psi_a = np.abs(rng.normal(size=len(fp.nodes))) + 0.1
    psi_b = np.exp(-((fp.nodes - 2.0) ** 2))
    res_a = flows.minimize_flow(fp, psi0=psi_a)
    res_b = flows.minimize_flow(fp, psi0=psi_b)
    assert res_a.converged and res_b.converged
    phi_a, phi_b = np.abs(res_a.psi), np.abs(res_b.psi)
    assert np.max(np.abs(phi_a - phi_b)) < 1e-8 * np.max(phi_a)


def test_energy_descent_monotone():
    p = mf.GPProblem(3, 2.0, 0.4, n_grid=1024)
    fp = mf._build_problem(p)
    res = flows.minimize_flow(fp, mf._initial_guess(p, fp))
    assert res.max_energy_increase <= 1e-12 * max(1.0, abs(res.energy))


def test_gradient_check_via_fd_oracle(rng, fd_gradient_check):
    p = mf.GPProblem(3, 2.0, 0.4, n_grid=512)
    fp = mf._build_problem(p)
    psi = np.abs(rng.normal(size=len(fp.nodes))) + 0.2
    for _ in range(5):
        d = rng.normal(size=len(fp.nodes))
        d /= np.linalg.norm(d)
        # truncation regime shows the second-order rate; at h = 1e-4 the
        # deviation is already at the 1e-6 level (roundoff floor)
        out_big = fd_gradient_check(fp, psi, d, h_list=(0.3, 0.1, 0.03))
        assert 1.7 < out_big["order"] < 2.3
        out = fd_gradient_check(fp, psi, d, h_list=(1e-4,))
        assert out["max_rel_dev"] < 1e-6


def test_negative_coupling_rejected():
    with pytest.raises(ValueError):
        mf.GPProblem(3, 1.0, -0.1)


# --- coupling in 2D -----------------------------------------------------------

def test_coupling_2d_rhobar_grid_stable():
    _, rep1 = mf.gp_minimize(mf.GPProblem(2, 1.0, 1.0, n_grid=2048))
    _, rep2 = mf.gp_minimize(mf.GPProblem(2, 1.0, 1.0, n_grid=4096))
    assert abs(rep1.quartic_integral - rep2.quartic_integral) < 1e-6


# --- Thomas-Fermi ----------------------------------------------------------

def test_tf_harmonic_closed_form():
    for N, a in ((100.0, 0.05), (7.0, 1.3)):
        _, _, mu_tf = mf.tf_solve(3, N, a)
        assert abs(mu_tf - (15.0 * a * N) ** 0.4) / mu_tf < 1e-10


def test_tf_small_N_limits():
    _, rep, mu_tf = mf.tf_solve(3, 1e-8, 1.0)
    assert mu_tf == pytest.approx((15.0 * 1e-8) ** 0.4, rel=1e-10)
    assert mu_tf < 1e-2 and rep.E_total < 1e-8


def test_tf_scaling_exponent():
    gs = np.geomspace(1e2, 1e6, 9)
    es = [mf.tf_energy(3, 1.0, g) for g in gs]
    slope = np.polyfit(np.log(gs), np.log(es), 1)[0]
    assert abs(slope - 0.4) < 1e-3
    # quartic trap: s/(s+3) = 4/7
    trap = mf.TrapPotential("homogeneous_power", exponent=4.0)
    es = [mf.tf_solve(3, 1.0, g, trap)[1].E_total for g in gs]
    slope = np.polyfit(np.log(gs), np.log(es), 1)[0]
    assert abs(slope - 4.0 / 7.0) < 1e-3


def test_tf_minimizer_beats_random_profiles(rng):
    prof, rep, mu_tf = mf.tf_solve(3, 10.0, 0.2)
    r = prof.grid
    w = 4.0 * math.pi * r**2
    for _ in range(50):
        bump = np.abs(rng.normal(size=4))
        rho = np.zeros_like(r)
        for k, c in enumerate(bump, start=1):
            rho += c * np.exp(-((r - 0.4 * k) ** 2))
        rho *= 10.0 / np.trapezoid(w * rho, r)
        e_rand = float(np.trapezoid(w * (r**2 * rho + 4.0 * math.pi * 0.2 * rho**2), r))
        assert e_rand >= rep.E_total - 1e-9


def _tf_reference(normalization_root, dimension, N, coupling, trap, mu=1.0,
                  n_grid=20000):
    """The former tf_solve: mu_TF by a root-find on a 96-node Gauss-Legendre
    mass, energies by trapezoid sums (error ~h^2 from the kink at the edge)."""
    s = trap.exponent
    omega = 4.0 * math.pi if dimension == 3 else 2.0 * math.pi
    denom = 8.0 * math.pi * mu * coupling
    gl_x, gl_w = np.polynomial.legendre.leggauss(96)

    def mass(m):
        if m <= 0:
            return 0.0
        redge = m ** (1.0 / s)
        r = 0.5 * redge * (gl_x + 1.0)
        w = 0.5 * redge * gl_w
        return float(np.sum(w * omega * r ** (dimension - 1) * (m - r**s) / denom))

    mu_tf = normalization_root(mass, N)
    r = np.linspace(0.0, 1.05 * mu_tf ** (1.0 / s), n_grid)
    rho = np.maximum(mu_tf - r**s, 0.0) / denom
    w = omega * r ** (dimension - 1)
    trap_e = float(np.trapezoid(w * r**s * rho, r))
    quartic = float(np.trapezoid(w * rho**2, r))
    return mu_tf, trap_e, 4.0 * math.pi * mu * coupling * quartic, quartic


_TF_TRAPS = [mf.TrapPotential("harmonic")] + [
    mf.TrapPotential("homogeneous_power", exponent=s) for s in (1.0, 1.5, 2.0, 3.0, 4.0)]


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("trap", _TF_TRAPS, ids=lambda t: f"{t.kind}-{t.exponent:g}")
def test_tf_closed_form_matches_quadrature(normalization_root, dimension, trap):
    for N, coupling in ((1e-3, 1.0), (0.5, 0.02), (7.0, 1.3), (40.0, 25.0)):
        _, rep, mu_tf = mf.tf_solve(dimension, N, coupling, trap)
        ref_mu, ref_trap, ref_inter, ref_quart = _tf_reference(
            normalization_root, dimension, N, coupling, trap)
        assert mu_tf == pytest.approx(ref_mu, rel=1e-13, abs=0.0)
        assert rep.mu_chem == mu_tf
        for got, ref in ((rep.trap, ref_trap), (rep.interaction, ref_inter),
                         (rep.E_total, ref_trap + ref_inter),
                         (rep.quartic_integral, ref_quart)):
            assert got == pytest.approx(ref, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("trap", _TF_TRAPS, ids=lambda t: f"{t.kind}-{t.exponent:g}")
def test_tf_virial_identities(dimension, trap):
    # s E_trap = d E_int and mu_TF N = E_trap + 2 E_int for V = r^s
    s = trap.exponent
    for g in np.geomspace(1e-3, 1e3, 7):
        for N in (1.0, 30.0):
            _, rep, mu_tf = mf.tf_solve(dimension, N, g / N, trap)
            assert s * rep.trap == pytest.approx(dimension * rep.interaction,
                                                 rel=1e-13, abs=0.0)
            assert mu_tf * N == pytest.approx(rep.trap + 2.0 * rep.interaction,
                                              rel=1e-13, abs=0.0)


def test_gp_start_uses_exact_mu_tf(monkeypatch, normalization_root):
    # the TF-shaped GP start reads mu_TF without building a TF profile
    p = mf.GPProblem(3, 50.0, 1.0, n_grid=256)
    fp = mf._build_problem(p)
    monkeypatch.setattr(mf, "tf_solve", None)
    psi0 = mf._initial_guess(p, fp)
    mu_tf = _tf_reference(normalization_root, 3, 50.0, 1.0, p.trap)[0]
    edge = fp.nodes[psi0 > 1e-4].max()
    assert edge <= mu_tf ** 0.5 < edge + (fp.nodes[1] - fp.nodes[0])


def test_tf_requires_homogeneous_trap():
    with pytest.raises(ValueError):
        mf.tf_solve(3, 1.0, 1.0, mf.TrapPotential("box", side=2.0))


# --- GP -> TF limit -----------------------------------------------------------

def test_gp_tf_scan_3d():
    rows = mf.gp_tf_limit_scan(3, [1e2, 1e3, 1e4])
    ratios = [row["ratio"] for row in rows]
    assert all(r > 1.0 for r in ratios)         # gradient term adds energy
    assert ratios[0] > ratios[1] > ratios[2]    # monotone approach to 1
    assert abs(ratios[-1] - 1.0) < 0.05


def test_gp_tf_scan_2d_rescaled():
    rows = mf.gp_tf_limit_scan(2, [1e3, 1e4])
    assert abs(rows[-1]["ratio"] - 1.0) < 0.05


def test_box_trap_ground_energy():
    # spherical hard wall of radius side/2: ground energy mu pi^2 / R^2
    p = mf.GPProblem(3, 1.0, 0.0, trap=mf.TrapPotential("box", side=4.0),
                     n_grid=2048)
    _, rep = mf.gp_minimize(p)
    assert rep.E_total == pytest.approx(math.pi**2 / 4.0, rel=1e-5)


def test_gp_small_g_reaches_trap_ground_energy():
    e = mf.gp_energy(3, 1.0, 1e-10, n_grid=2048)
    assert abs(e - 3.0) < 1e-4
