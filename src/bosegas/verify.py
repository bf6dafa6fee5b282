"""Cross-module invariant suite behind the `verify` CLI subcommand.

Runs every dual-route check the package carries (closed forms against
independent numerics, inequality corpora, scaling identities) and emits a
deterministic scorecard: one pass/fail entry per invariant, the calibrated
constants, and the seeds used.  Any failure makes the whole suite fail.
"""

from __future__ import annotations

import math
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import SCHEMA_VERSION
from . import charged, homogeneous, meanfield, onedim, oracles, scattering


def _check(name, value, tolerance, passed=None, **extra):
    if passed is None:
        passed = bool(value <= tolerance)
    entry = {"name": name, "value": float(value), "tolerance": float(tolerance),
             "passed": bool(passed)}
    entry.update(extra)
    return entry


def _scattering_checks():
    out = []
    hc = scattering.hard_core(1.0)
    sol = scattering.solve_zero_energy(hc)
    out.append(_check("scattering.hard_core_a", abs(sol.a - 1.0), 1e-6))
    out.append(_check("scattering.hard_core_s", abs(sol.s - 1.0), 1e-6))

    v0, mu = 9.0, 1.0
    ss = scattering.soft_sphere(1.0, v0)
    sol2 = scattering.solve_zero_energy(ss, mu)
    kappa = math.sqrt(v0 / (2 * mu))
    a_exact = 1.0 - math.tanh(kappa) / kappa
    out.append(_check("scattering.soft_sphere_closed_form",
                      abs(sol2.a - a_exact) / a_exact, 1e-6))
    # the identity's residual is the same at every R >= R0
    out.append(_check("scattering.energy_identity",
                      scattering.energy_identity_residual(sol2, ss, 2.0)["residual"], 1e-5))
    out.append(_check("scattering.grid_round_trip",
                      abs(sol2.a - sol2.a_refined) / a_exact, 1e-6))
    # scaling covariance: rescale the soft sphere to unit scattering length
    # by hand, then check scale_potential against re-solving
    a_base = sol2.a
    unit = scattering.soft_sphere(1.0 / a_base, v0 * a_base**2)
    worst = 0.0
    for lam in (0.1, 1.0, 10.0):
        scaled = scattering.scale_potential(unit, lam)
        got = scattering.solve_zero_energy(scaled).a
        worst = max(worst, abs(got - lam) / lam)
    out.append(_check("scattering.scaling_covariance", worst, 1e-8))
    hd = scattering.solve_zero_energy(scattering.hard_core(1.0, dimension=2))
    out.append(_check("scattering.hard_disc_2d", abs(hd.a - 1.0), 1e-4))
    return out


def _homogeneous_checks(seed):
    out = []
    ok = True
    for Y in np.geomspace(1e-9, 1e-4, 12):
        rho = Y * 3.0 / (4.0 * math.pi)
        st = homogeneous.GasState3D(rho, 1.0)
        lo = homogeneous.lower_bound_3d(st).value
        mid = homogeneous.lhy_reference(st)
        up = homogeneous.upper_bound_3d(st)
        ok &= lo <= mid <= up
    out.append(_check("homogeneous.bracketing", 0.0 if ok else 1.0, 0.5,
                      passed=ok))
    st = homogeneous.GasState3D(1e-4, 1.0)
    out.append(_check("homogeneous.dyson_classic",
                      abs(homogeneous.dyson_classic_lower_bound(st) / st.leading
                          - 1.0 / (10.0 * math.sqrt(2.0))), 1e-15))
    Ys = np.geomspace(1e-40, 1e-20, 9)
    errs = [1.0 - homogeneous.lower_bound_3d(
        homogeneous.GasState3D(Y * 3 / (4 * math.pi), 1.0)).value
        / homogeneous.GasState3D(Y * 3 / (4 * math.pi), 1.0).leading
        for Y in Ys]
    slope = float(np.polyfit(np.log(Ys), np.log(errs), 1)[0])
    out.append(_check("homogeneous.lower_exponent",
                      abs(slope - 1.0 / 17.0) * 17.0, 0.1))
    Ys = np.geomspace(1e-9, 1e-4, 12)
    errs = [homogeneous.upper_bound_3d(homogeneous.GasState3D(Y * 3 / (4 * math.pi), 1.0))
            / homogeneous.GasState3D(Y * 3 / (4 * math.pi), 1.0).leading - 1.0
            for Y in Ys]
    slope = float(np.polyfit(np.log(Ys), np.log(errs), 1)[0])
    out.append(_check("homogeneous.upper_exponent", abs(slope - 1 / 3) * 3.0, 0.1))

    ks = [homogeneous.k_factor(n, 50.0, 5.0, 1.0, 0.4, 0.05)
          for n in np.arange(2, 5000, 7)]
    mono = all(ks[i] >= ks[i + 1] - 1e-15 for i in range(len(ks) - 1))
    out.append(_check("homogeneous.K_monotone", 0.0 if mono else 1.0, 0.5,
                      passed=mono))

    rng = np.random.default_rng(seed)
    viol = 0
    for _ in range(2000):
        H = rng.normal(size=(5, 5))
        H = 0.5 * (H + H.T)
        evals, vecs = np.linalg.eigh(H)
        c = rng.normal(size=5)
        c[0] += 3.0  # keep <H> below E1
        c /= np.linalg.norm(c)
        psi = vecs @ c
        hm = float(psi @ H @ psi)
        h2 = float(psi @ H @ H @ psi)
        if evals[1] <= hm:
            continue
        if homogeneous.temple_bound(hm, h2, evals[1]) > evals[0] + 1e-10:
            viol += 1
    out.append(_check("homogeneous.temple_corpus", viol, 0.5, seed=seed))

    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(1e-9, 1 - 1e-9, 20000)
    b = rng.uniform(1e-9, 1 - 1e-9, 20000)
    k = rng.uniform(1.0, 1e4, 20000)
    out.append(_check("homogeneous.lemma_xb",
                      -float(np.min(homogeneous.lemma_xb_margin(x, b, k))),
                      1e-12, seed=seed + 1))

    worst = 0.0
    for k in range(1, 6):
        for p in range(1, 4 * k + 5):
            closed, _ = homogeneous.cell_distribution_min(k, p)
            brute = homogeneous.cell_distribution_brute_force(k, p)
            if brute < closed - 1e-12:
                worst = max(worst, closed - brute)
    out.append(_check("homogeneous.cell_min_vs_lp", worst, 1e-12))

    # Dyson's lemma on the zero-energy solution with U a thin annulus at
    # R = 200a: the margin is >= 0 and saturates up to O(a/R) = 5e-3
    v = scattering.soft_sphere(1.0, 25.0)
    sol = scattering.solve_zero_energy(v)
    a, R = sol.a, 200.0 * sol.a
    psi_in = np.where(sol.grid > 0, sol.u / np.maximum(sol.grid, 1e-300), 0.0) / sol.du[-1]
    r_out = np.linspace(sol.grid[-1], 1.03 * R, 60000)[1:]   # psi0 = 1 - a/r there
    margin = homogeneous.dyson_lemma_residual(
        np.concatenate([sol.grid, r_out]), np.concatenate([psi_in, 1.0 - a / r_out]),
        v, homogeneous.soft_potential(R, 0.995 * R, 3, a), 1.02 * R) / (sol.mu * a)
    out.append(_check("homogeneous.dyson_lemma_saturation", margin, 1e-2,
                      passed=-1e-9 <= margin <= 1e-2))
    return out


def _meanfield_checks():
    out = []
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(3, 1.0, 0.0, n_grid=2048))
    out.append(_check("meanfield.oscillator_energy", abs(rep.E_total - 3.0), 1e-4))
    e_blk = meanfield.gp_energy(3, 10.0, 0.1, n_grid=2048)
    e_ref = 10.0 * meanfield.gp_energy(3, 1.0, 1.0, n_grid=2048)
    out.append(_check("meanfield.gp_scaling", abs(e_blk - e_ref) / abs(e_ref), 1e-8))
    p = meanfield.GPProblem(3, 4.0, 0.3, n_grid=2048)
    _, rep = meanfield.gp_minimize(p)
    virial = abs(rep.mu_chem * p.N - rep.E_total
                 - 4.0 * math.pi * p.mu * p.coupling * rep.quartic_integral)
    out.append(_check("meanfield.virial_identity",
                      virial / abs(rep.mu_chem * p.N), 1e-6))
    # mu_chem against dE/dN: the gap is the GP solve's own O(h^2) error
    # (3.0e-6, 7.7e-7, 2.0e-7 at n = 1024, 2048, 4096), not the difference
    # step's (halving it moves the gap by 1.5 %); the tolerance clears n = 1024
    fd = meanfield.mu_chem_fd(p)
    out.append(_check("meanfield.mu_chem_fd", abs(rep.mu_chem - fd) / abs(fd), 1e-5))
    ratios = [meanfield.gp_tf_limit_scan(d, [1e4])[0]["ratio"] for d in (3, 2)]
    out.append(_check("meanfield.gp_tf_limit", max(abs(x - 1.0) for x in ratios), 0.05))
    _, _, mu_tf = meanfield.tf_solve(3, 100.0, 0.05)
    out.append(_check("meanfield.tf_harmonic_mu",
                      abs(mu_tf - (15.0 * 0.05 * 100.0) ** 0.4) / mu_tf, 1e-10))
    return out


# kernel widths of the direct Fredholm solves checked against the e(t)
# table (t = 3.2e-3, 0.347, 42.7): geometric midpoints between widths of the
# table's sweep, so that no solve repeats one the table was built from
_LL_DIRECT_WIDTHS = (0.02044, 0.2447, 7.427)


def _onedim_checks():
    out = []
    curve = onedim.default_curve()
    out.append(_check("onedim.ll_high_t", abs(curve.e(1e3) * 3.0 / math.pi**2 - 1.0),
                      0.02))
    out.append(_check("onedim.ll_low_t", abs(curve.e(1e-2) / 5e-3 - 1.0), 0.05))
    out.append(_check("onedim.ll_direct_route",
                      onedim.table_error(curve, _LL_DIRECT_WIDTHS), 1e-5))
    rho = np.linspace(0.05, 20.0, 200)
    h = rho**3 * curve.e(1.0 / rho)
    out.append(_check("onedim.ll_convexity", -float(np.min(np.diff(h, 2))), 1e-8))
    e_unit, ib4 = onedim.transverse_mode_numeric("harmonic")
    out.append(_check("onedim.transverse_harmonic",
                      max(abs(e_unit - 2.0), abs(ib4 - 1 / (2 * math.pi))), 1e-8))
    trap = onedim.ElongatedTrap(10.0, 10.0, 1.0, 0.01, transverse="hard_wall")
    mode = onedim.transverse_mode(trap)
    e_unit, _ = onedim.transverse_mode_numeric("hard_wall")
    out.append(_check("onedim.transverse_hard_wall",
                      abs(e_unit - mode.e_perp_unit), 1e-8))
    # region scaling identities
    e1 = onedim.minimize_1d("gp1d", 7.0, 3.0, 0.11, 2.0)[1]
    e2 = onedim.minimize_1d("gp1d", 1.0, 1.0, 7.0 * 0.11 * 3.0, 2.0)[1]
    out.append(_check("onedim.gp1d_scaling",
                      abs(e1 - 7.0 / 9.0 * e2) / abs(e1), 1e-8))
    e111 = onedim.minimize_1d("tf1d", 1.0, 1.0, 1.0, 2.0)[1]
    eNLg = onedim.minimize_1d("tf1d", 5.0, 2.0, 3.0, 2.0)[1]
    out.append(_check("onedim.tf1d_scaling",
                      abs(eNLg - 5.0 / 4.0 * 30.0 ** (2.0 / 3.0) * e111) / eNLg,
                      1e-8))
    N, L, g, s = 9.0, 4.0, 0.8, 2.0
    gamma = (N / L) * N ** (-2.0 / (s + 2.0))
    eA = onedim.minimize_1d("ll_no_grad", N, L, g, s)[1]
    eB = onedim.minimize_1d("ll_no_grad", 1.0, 1.0, g / gamma, s)[1]
    out.append(_check("onedim.ll_scaling",
                      abs(eA - N * gamma**2 * eB) / abs(eA), 1e-6))
    eg = onedim.minimize_1d("gt", N, L, 0.0, s)[1]
    egB = onedim.minimize_1d("gt", 1.0, 1.0, 0.0, s)[1]
    out.append(_check("onedim.gt_scaling",
                      abs(eg - N * gamma**2 * egB) / abs(eg), 1e-8))
    return out


def _charged_checks(seed):
    out = []
    fc = charged.foldy_constant(1.0)
    out.append(_check("charged.x_integral_dual_path",
                      abs(fc.x_integral - fc.x_integral_quadrature), 1e-8))
    le = charged.local_energy_integral(100.0, 1.0, 1.0)
    out.append(_check("charged.local_energy_closed_form", le.rel_deviation, 1e-6))
    dm = charged.dyson_functional_minimize(1.0)
    out.append(_check("charged.dyson_virial", dm.virial_residual, 1e-3))
    out.append(_check("charged.dyson_negative", dm.energy, 0.0,
                      passed=dm.energy < 0.0))
    tc1 = charged.two_component_energy(50.0, dm)
    tc2 = charged.two_component_energy(100.0, dm)
    out.append(_check("charged.two_component_ratio",
                      abs(tc2.energy / tc1.energy - 2.0**1.4), 1e-12))
    b = charged.bogolubov_bound(charged.BogolubovParams(1.0, 0.5, 0.0))
    gap = oracles.fock_quadratic_ground(1.0, 0.5, 0.0, 40) - b
    out.append(_check("charged.fock_gap_cutoff40", abs(gap), 1e-3,
                      passed=(gap > -1e-10 and abs(gap) < 1e-3)))
    rng = np.random.default_rng(seed)
    viol = 0.0
    for _ in range(60):
        A, Bp, Bm = rng.uniform(0.05, 3.0, 3)
        bb = charged.bogolubov_bound(charged.BogolubovParams(A, Bp, Bm))
        e0 = oracles.fock_quadratic_ground(A, Bp, Bm, 6)
        viol = max(viol, bb - e0)
    out.append(_check("charged.fock_never_below_bound", viol, 1e-9, seed=seed))
    return out


def _oracle_checks(seed):
    out = []
    worst = 0.0
    for L, phi in ((1.0, 0.0), (1.0, 0.5 * math.pi), (2.0, math.pi), (3.0, -1.1)):
        got = oracles.twisted_spectrum(L, phi, n_eigs=1)[0]
        worst = max(worst, abs(got - oracles.twisted_ground_exact(L, phi)))
    out.append(_check("oracles.twisted_exact", worst, 1e-12))
    ev = oracles.twisted_spectrum(2.0, math.pi, n_eigs=2)
    out.append(_check("oracles.twisted_pi_degeneracy", abs(ev[1] - ev[0]), 1e-10))
    errs = []
    for n in (32, 64, 128):
        g = oracles.twisted_spectrum(1.0, 1.1, n_grid=n,
                                     basis="finite_difference", n_eigs=2)[1]
        exact = sorted(((2 * math.pi * m + 1.1) ** 2 for m in range(-3, 4)))[1]
        errs.append(abs(g - exact))
    rate = float(np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0])
    out.append(_check("oracles.twisted_fd_rate", abs(rate + 2.0), 0.2))

    consts = {}
    stable = True
    no_counterexamples = True
    for variant, sd in (("homogeneous", seed), ("vector_potential", seed + 1),
                        ("inhomogeneous", seed + 2)):
        c1 = oracles.poincare_calibrate(variant, n=24, n_cases=60, seed=sd)
        c2 = oracles.poincare_calibrate(variant, n=48, n_cases=60, seed=sd)
        drift = abs(c2["C_hat"] - c1["C_hat"]) / max(c1["C_hat"], 1e-12)
        stable &= drift < 0.05
        consts[variant] = {"C_hat": c1["C_hat"], "C_hat_refined": c2["C_hat"],
                           "drift": drift, "seed": sd,
                           "min_ratio": c1["min_ratio"]}
        if variant == "vector_potential":
            no_counterexamples &= c1["min_ratio"] > -1.1 * max(c1["C_hat"], 1e-12)
        else:
            no_counterexamples &= math.isfinite(c1["max_ratio"])
    out.append(_check("oracles.poincare_stability", 0.0 if stable else 1.0, 0.5,
                      passed=stable, constants=consts))
    out.append(_check("oracles.poincare_counterexamples",
                      0.0 if no_counterexamples else 1.0, 0.5,
                      passed=no_counterexamples))

    rng = np.random.default_rng(seed + 3)
    viol = 0
    for _ in range(300):
        N = 64
        diag = rng.normal(size=N + 1)
        off = rng.normal(size=N)
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        psi = rng.normal(size=N + 1)
        psi /= np.linalg.norm(psi)
        res = oracles.localize_band_matrix(oracles.BandMatrixCase(A, psi, 8))
        if res.lhs > res.rhs(10.0) + 1e-12:
            viol += 1
    out.append(_check("oracles.band_matrix_corpus", viol, 0.5, seed=seed + 3,
                      calibrated_C=10.0))

    worst = -math.inf
    for g in (1.0, 10.0):
        e3 = oracles.exact_diag_delta_gas_1d(3, 1.0, g, 16).energy
        e2 = oracles.exact_diag_delta_gas_1d(2, 1.0, g, 16).energy
        e1 = oracles.exact_diag_delta_gas_1d(1, 1.0, g, 16).energy
        worst = max(worst, (e2 + e1) - e3)
    out.append(_check("oracles.delta_gas_superadditivity", worst, 1e-9))

    es = [oracles.fock_quadratic_ground(1.0, 0.8, 0.6, c) for c in (2, 4, 6)]
    mono = all(es[i] >= es[i + 1] - 1e-12 for i in range(len(es) - 1))
    out.append(_check("oracles.fock_monotone_cutoff", 0.0 if mono else 1.0, 0.5,
                      passed=mono))
    return out


def _max_rss_mb() -> float:
    """The process's peak resident set so far, in MB (ru_maxrss is in
    kilobytes on Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0**2 if sys.platform == "darwin" else 1024.0)


def _run_sections(sections) -> dict:
    """Run ``sections``, (name, function, args) triples, in order; returns
    each one's checks, wall seconds and this process's peak RSS after it."""
    out = {}
    for name, run, args in sections:
        t0 = time.perf_counter()
        checks = run(*args)
        out[name] = (checks, time.perf_counter() - t0, _max_rss_mb())
    return out


# the sections that run a flow, and so load scipy.linalg: they run in a
# worker process while the numpy-only ones run in the caller
WORKER_SECTIONS = ("meanfield", "onedim", "charged")


def run_all(seed: int = 20240, timings: dict | None = None,
            max_rss_mb: dict | None = None) -> dict:
    """Run the whole invariant suite; returns the scorecard dict.

    The sections in ``WORKER_SECTIONS`` run in one worker process, started
    first; the others run meanwhile in this one.  The checks are then put
    together in the sections' order, so the scorecard does not depend on the
    split.

    When ``timings`` is a dict, it receives the wall seconds of each section
    (scattering, homogeneous, meanfield, onedim, charged, oracles), and
    ``max_rss_mb`` the peak resident set in MB, after each, of the process
    that ran it; they are never part of the scorecard, which stays
    byte-reproducible.
    """
    sections = (("scattering", _scattering_checks, ()),
                ("homogeneous", _homogeneous_checks, (seed,)),
                ("meanfield", _meanfield_checks, ()),
                ("onedim", _onedim_checks, ()),
                ("charged", _charged_checks, (seed + 10,)),
                ("oracles", _oracle_checks, (seed + 20,)))
    with ProcessPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(_run_sections, [s for s in sections
                                             if s[0] in WORKER_SECTIONS])
        done = _run_sections([s for s in sections
                              if s[0] not in WORKER_SECTIONS])
        done.update(worker.result())
    checks = []
    for name, _, _ in sections:
        part, seconds, peak = done[name]
        checks += part
        if timings is not None:
            timings[name] = seconds
        if max_rss_mb is not None:
            max_rss_mb[name] = peak
    n_pass = sum(1 for c in checks if c["passed"])
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "checks": checks,
        "n_checks": len(checks),
        "n_passed": n_pass,
        "all_passed": n_pass == len(checks),
    }
