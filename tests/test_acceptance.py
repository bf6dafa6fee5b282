"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, nothing is deferred to calibration.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from bosegas import (charged, cli, homogeneous, meanfield, onedim, oracles,
                     quadrature, scattering, verify)

_REPORT = []


def _criterion(name, passed, detail=""):
    line = f"{'PASS' if passed else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
    _REPORT.append(line)
    print(line)
    assert passed, line


def teardown_module(module):
    print("\n=== acceptance summary ===")
    for line in _REPORT:
        print(line)


def test_criterion_01_scattering():
    t0 = time.perf_counter()
    sol = scattering.solve_zero_energy(scattering.hard_core(1.0))
    ok_hc = abs(sol.a - 1.0) < 1e-6
    v0, mu = 9.0, 1.0
    ss = scattering.soft_sphere(1.0, v0)
    sol_s = scattering.solve_zero_energy(ss, mu)
    kappa = math.sqrt(v0 / (2 * mu))
    a_exact = 1.0 - math.tanh(kappa) / kappa
    ok_ss = abs(sol_s.a - a_exact) / a_exact < 1e-6
    resid = max(scattering.energy_identity_residual(sol_s, ss, R)["residual"]
                for R in (2.0, 4.0, 8.0))
    resid_hc = max(scattering.energy_identity_residual(sol, scattering.hard_core(1.0), R)["residual"]
                   for R in (2.0, 4.0, 8.0))
    elapsed = time.perf_counter() - t0
    ok = ok_hc and ok_ss and resid < 1e-5 and resid_hc < 1e-5 and elapsed < 1.0
    _criterion("1 scattering (hard core, soft sphere, identity, <1s)", ok,
               f"resid={max(resid, resid_hc):.2e} t={elapsed:.2f}s")


def test_criterion_02_scattering_2d():
    sol = scattering.solve_zero_energy(scattering.hard_core(1.0, dimension=2))
    # log-fit convergence: refined grid agrees even tighter
    conv = abs(sol.a - sol.a_refined)
    _criterion("2 2D hard-disc scattering length", abs(sol.a - 1.0) < 1e-4,
               f"|a-R0|={abs(sol.a - 1.0):.2e} refine={conv:.1e}")


def test_criterion_03_bounds_bracket():
    ok_bracket = True
    for Y in np.geomspace(1e-9, 1e-4, 26):
        st = homogeneous.GasState3D(3 * Y / (4 * math.pi), 1.0)
        lo = homogeneous.lower_bound_3d(st).value
        ok_bracket &= lo <= homogeneous.lhy_reference(st) <= homogeneous.upper_bound_3d(st)
    st = homogeneous.GasState3D(1e-4, 1.0)
    ok_dyson = homogeneous.dyson_classic_lower_bound(st) / st.leading == \
        1.0 / (10.0 * math.sqrt(2.0))
    Ys = np.geomspace(1e-40, 1e-20, 9)
    errs = [1 - homogeneous.lower_bound_3d(homogeneous.GasState3D(3 * Y / (4 * math.pi), 1.0)).value
            / homogeneous.GasState3D(3 * Y / (4 * math.pi), 1.0).leading for Y in Ys]
    s_lo = np.polyfit(np.log(Ys), np.log(errs), 1)[0]
    Ys = np.geomspace(1e-9, 1e-4, 11)
    errs = [homogeneous.upper_bound_3d(homogeneous.GasState3D(3 * Y / (4 * math.pi), 1.0))
            / homogeneous.GasState3D(3 * Y / (4 * math.pi), 1.0).leading - 1 for Y in Ys]
    s_up = np.polyfit(np.log(Ys), np.log(errs), 1)[0]
    ok_exp = abs(s_lo - 1 / 17) < 0.1 / 17 and abs(s_up - 1 / 3) < 0.1 / 3
    _criterion("3 bounds bracket + Dyson constant + error exponents",
               ok_bracket and ok_dyson and ok_exp,
               f"slopes {s_lo:.4f}|{s_up:.4f}")


def test_criterion_04_temple():
    rng = np.random.default_rng(314159)
    checked = 0
    violations = 0
    while checked < 10000:
        H = rng.normal(size=(5, 5))
        H = 0.5 * (H + H.T)
        evals, vecs = np.linalg.eigh(H)
        c = rng.normal(size=5)
        c[0] += 3.0
        c /= np.linalg.norm(c)
        psi = vecs @ c
        hm = float(psi @ H @ psi)
        if evals[1] <= hm:
            continue
        h2 = float(psi @ H @ H @ psi)
        checked += 1
        if homogeneous.temple_bound(hm, h2, evals[1]) > evals[0] + 1e-10:
            violations += 1
    _criterion("4 Temple vs dense diagonalization (10^4 matrices)",
               violations == 0, f"violations={violations}")


def test_criterion_05_cell_combinatorics():
    ok_cells = all(
        homogeneous.cell_distribution_min(k, 4 * k)[0] == pytest.approx(k * (k - 1.0))
        and homogeneous.cell_distribution_brute_force(k, 4 * k)
        == pytest.approx(k * (k - 1.0))
        for k in range(1, 6))
    rng = np.random.default_rng(271828)
    x = rng.uniform(1e-12, 1 - 1e-12, 100000)
    b = rng.uniform(1e-12, 1 - 1e-12, 100000)
    k = rng.uniform(1.0, 1e5, 100000)
    margin = float(np.min(homogeneous.lemma_xb_margin(x, b, k)))
    _criterion("5 cell closed form = LP brute force; lemma margin >= -1e-12",
               ok_cells and margin >= -1e-12, f"min margin={margin:.2e}")


def test_criterion_06_gp():
    t0 = time.perf_counter()
    _, rep0 = meanfield.gp_minimize(meanfield.GPProblem(3, 1.0, 0.0, n_grid=2048))
    ok_osc = abs(rep0.E_total - 3.0) < 1e-4
    ok_scaling = True
    for N, a in ((10.0, 0.1), (100.0, 0.01), (100.0, 0.1)):
        e = meanfield.gp_energy(3, N, a, n_grid=2048)
        e1 = meanfield.gp_energy(3, 1.0, N * a, n_grid=2048)
        ok_scaling &= abs(e - N * e1) / abs(e) < 1e-8
    p = meanfield.GPProblem(3, 5.0, 0.2, n_grid=2048)
    _, rep = meanfield.gp_minimize(p)
    fd = meanfield.mu_chem_fd(p)
    ok_mu = abs(rep.mu_chem - fd) / abs(fd) < 1e-4
    scale = max(abs(rep.mu_chem), rep.E_total / p.N)
    ok_res = rep.residual_gp < 1e-8 * scale
    elapsed = time.perf_counter() - t0
    _criterion("6 GP oscillator/scaling/mu/residual (<10s per solve)",
               ok_osc and ok_scaling and ok_mu and ok_res and elapsed < 60.0,
               f"E3 err={abs(rep0.E_total - 3):.1e} t={elapsed:.1f}s")


def test_criterion_07_tf():
    _, _, mu_tf = meanfield.tf_solve(3, 100.0, 0.05)
    ok_mu = abs(mu_tf - (15 * 0.05 * 100.0) ** 0.4) / mu_tf < 1e-10
    rows = meanfield.gp_tf_limit_scan(3, [1e4])
    ok_3d = abs(rows[0]["ratio"] - 1.0) < 0.05
    rows2 = meanfield.gp_tf_limit_scan(2, [1e4])
    ok_2d = abs(rows2[0]["ratio"] - 1.0) < 0.05
    _criterion("7 TF closed form + GP/TF limits at g=1e4",
               ok_mu and ok_3d and ok_2d,
               f"3D ratio={rows[0]['ratio']:.4f} 2D={rows2[0]['ratio']:.5f}")


def test_criterion_08_lieb_liniger(ll_curve):
    ok_hi = abs(ll_curve.e(1e3) * 3 / math.pi**2 - 1.0) < 0.02
    ok_lo = abs(ll_curve.e(1e-2) / 5e-3 - 1.0) < 0.05
    rho = np.linspace(0.05, 20.0, 200)
    h = rho**3 * ll_curve.e(1.0 / rho)
    ok_cvx = float(np.min(np.diff(h, 2))) >= -1e-8
    # ring oracle at t = 10 (rho = 1): extrapolate E/N over n = 2, 3 in 1/n^2
    E2 = oracles.exact_diag_delta_gas_1d(2, 2.0, 10.0, 44)
    E3 = oracles.exact_diag_delta_gas_1d(3, 3.0, 10.0, 30)
    einf = (9.0 * E3 / 3.0 - 4.0 * E2 / 2.0) / 5.0
    dev = abs(einf / ll_curve.e(10.0) - 1.0)
    _criterion("8 Lieb-Liniger asymptotics/convexity/ring oracle",
               ok_hi and ok_lo and ok_cvx and dev < 0.005,
               f"ring dev={dev:.4f}")


def test_criterion_09_regimes():
    e1 = onedim.minimize_1d("gp1d", 7.0, 3.0, 0.11, 2.0)[1]
    e2 = onedim.minimize_1d("gp1d", 1.0, 1.0, 7.0 * 0.11 * 3.0, 2.0)[1]
    ok2 = abs(e1 - 7.0 / 9.0 * e2) / abs(e1) < 1e-8
    e111 = onedim.minimize_1d("tf1d", 1.0, 1.0, 1.0, 2.0)[1]
    eNLg = onedim.minimize_1d("tf1d", 5.0, 2.0, 3.0, 2.0)[1]
    slope_ok = abs(eNLg - 5.0 / 4.0 * 30 ** (2 / 3) * e111) / eNLg < 1e-8
    gs = np.geomspace(1e2, 1e6, 7)
    es = [onedim.minimize_1d("tf1d", 1.0, 1.0, g, 2.0)[1] for g in gs]
    ok3 = abs(np.polyfit(np.log(gs), np.log(es), 1)[0] - 2 / 3) < 1e-3 and slope_ok
    N, L, g, s = 9.0, 4.0, 0.8, 2.0
    gamma = (N / L) * N ** (-2 / (s + 2))
    eA = onedim.minimize_1d("ll_no_grad", N, L, g, s)[1]
    eB = onedim.minimize_1d("ll_no_grad", 1.0, 1.0, g / gamma, s)[1]
    ok4 = abs(eA - N * gamma**2 * eB) / abs(eA) < 1e-6
    eg = onedim.minimize_1d("gt", N, L, 0.0, s)[1]
    egB = onedim.minimize_1d("gt", 1.0, 1.0, 0.0, s)[1]
    ok5 = abs(eg - N * gamma**2 * egB) / abs(eg) < 1e-8

    def probe(target):
        trap = onedim.ElongatedTrap(50.0, 200.0, 0.5, 1e-6, 2.0)
        _, _, rb = onedim.minimize_1d("full", 50.0, 200.0, trap.g, 2.0)
        int_b4 = onedim.UNIT_MODES["harmonic"][1]
        for _ in range(8):
            a = target * rb * 0.25 / (8 * math.pi * int_b4)
            trap = onedim.ElongatedTrap(50.0, 200.0, 0.5, a, 2.0)
            _, _, rb = onedim.minimize_1d("full", 50.0, 200.0, trap.g, 2.0)
            if abs(trap.g / rb - target) / target < 0.02:
                break
        return trap

    regions = [onedim.regime_classify(probe(t))["region"]
               for t in (1e-4 * 50.0**-2, 1.0, 1e3)]
    ok_probe = regions == [1, 4, 5]
    _criterion("9 region scalings 2-5 + classifier probes 1/4/5",
               ok2 and ok3 and ok4 and ok5 and ok_probe,
               f"regions={regions}")


def test_criterion_10_charged():
    fc = charged.foldy_constant(1.0)
    ok_x = abs(fc.x_integral - fc.x_integral_quadrature) < 1e-8 and \
        abs(fc.x_integral - 0.8060094626883225) < 1e-6
    le = charged.local_energy_integral(100.0, 1.0, 1.0)
    ok_local = le.rel_deviation < 1e-6
    bound = charged.bogolubov_bound(1.0, 0.5, 0.0)
    gap = oracles.fock_quadratic_ground(1.0, 0.5, 0.0, 40) - bound
    rng = np.random.default_rng(424242)
    never_below = True
    for _ in range(200):
        A, Bp, Bm = rng.uniform(0.05, 3.0, 3)
        bb = charged.bogolubov_bound(A, Bp, Bm)
        never_below &= oracles.fock_quadratic_ground(A, Bp, Bm, 6) >= bb - 1e-9
    dm = charged.dyson_functional_minimize(1.0)
    ok_dyson = dm.virial_residual < 1e-3 and dm.energy < 0.0
    r = charged.two_component_energy(200.0).energy / \
        charged.two_component_energy(100.0).energy
    ok_ratio = abs(r - 2.0**1.4) < 1e-12
    _criterion("10 charged gas: x-integral/local/Bogolubov/Dyson/N^{7/5}",
               ok_x and ok_local and (-1e-10 < gap < 1e-3) and never_below
               and ok_dyson and ok_ratio,
               f"x={fc.x_integral:.9f} gap={gap:.1e} virial={dm.virial_residual:.1e}")


def test_criterion_11_twisted_spectrum():
    # the central-difference ground state at |phi| <= pi is the constant
    # mode, exact up to rounding; the next level converges as dz^2, and the
    # split of the degenerate pair at phi = pi extrapolates to 0
    ok_exact = True
    for L, phi in ((1.0, 0.7), (2.0, -2.9), (1.3, 3.14159)):
        ms = np.arange(-4, 5)
        exact = float(np.min(((2 * math.pi * ms + phi) / L) ** 2))
        ok_exact &= abs(oracles.twisted_spectrum(L, phi, 64, 1)[0] - exact) < 1e-9
    errs = []
    for n in (32, 64, 128):
        ev = oracles.twisted_spectrum(1.0, 1.1, n, 2)
        exact = sorted(((2 * math.pi * m + 1.1) ** 2 for m in range(-4, 5)))[:2]
        ok_exact &= abs(ev[0] - exact[0]) < 1e-9
        errs.append(abs(ev[1] - exact[1]))
    rate = float(np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0])
    splits = [np.diff(oracles.twisted_spectrum(2.0, math.pi, n, 2))[0]
              for n in (32, 64, 128)]
    limit, _, note = quadrature.richardson(splits, 2)
    split = abs(limit) / (0.5 * math.pi) ** 2 if note is None else math.inf
    _criterion("11 twisted ground exact + dz^2 rate + pi degeneracy",
               ok_exact and abs(rate + 2) < 0.2 and split < 1e-5,
               f"rate={rate:.3f} split={split:.1e}")


def test_criterion_12_poincare():
    ok = True
    details = []
    for variant, seed in (("homogeneous", 11), ("vector_potential", 12),
                          ("inhomogeneous", 13)):
        c1 = oracles.poincare_calibrate(variant, n=24, n_cases=60, seed=seed)
        c2 = oracles.poincare_calibrate(variant, n=48, n_cases=60, seed=seed)
        drift = abs(c2["C_hat"] - c1["C_hat"]) / max(c1["C_hat"], 1e-12)
        ok &= drift < 0.05
        ok &= math.isfinite(c1["max_ratio"])
        if variant == "vector_potential":
            ok &= c1["min_ratio"] >= -c1["C_hat"] - 1e-12
        details.append(f"{variant[:4]}:{drift:.3f}")
    _criterion("12 Poincare calibration stable, zero counterexamples", ok,
               " ".join(details))


def test_criterion_13_determinism():
    t0 = time.perf_counter()
    card1, _ = verify.run_all(seed=777)
    card2, _ = verify.run_all(seed=777)
    elapsed = time.perf_counter() - t0
    same = json.dumps(card1, sort_keys=True) == json.dumps(card2, sort_keys=True)
    _criterion("13 verify determinism + suite runtime",
               same and card1["all_passed"] and elapsed < 600.0,
               f"checks={card1['n_checks']} t={elapsed:.0f}s")
