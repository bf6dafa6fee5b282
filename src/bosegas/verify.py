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
from importlib import import_module

import numpy as np
# numpy.random loads here, before the pool forks: a forked worker's resident
# set counts only the inherited pages it touches, so both workers share the
# import instead of each paying for its own (4.5 MB, most of it OpenSSL's
# libcrypto through secrets and hmac).  The section modules load in the
# workers that run them
from numpy.random import default_rng

from . import SCHEMA_VERSION


# (name, perf_counter()) of each check the running section has made: a
# check's time is the gap to the one before it, or to the section's start
_STAMPS: list[tuple[str, float]] = []


def _check(name, value, tolerance, passed=None, **extra):
    _STAMPS.append((name, time.perf_counter()))
    if passed is None:
        passed = bool(value <= tolerance)
    entry = {"name": name, "value": float(value), "tolerance": float(tolerance),
             "passed": bool(passed)}
    entry.update(extra)
    return entry


def _scattering_checks():
    from . import scattering
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


def _dyson_lemma_grid():
    """(r, psi, v, U, R1) of the homogeneous.dyson_lemma_saturation entry.

    psi is the soft sphere's zero-energy solution u/r, scaled to 1 at
    infinity: on the solver's grid (its limit u'(0) at r = 0), then
    1 - a/r, with one more node 1e-9 inside v's range, where the solver
    has a node (v and U are strict steps, so a node on an edge samples the
    outer value and costs half a cell).  Beyond the solver's grid r is
    geometric out to the annulus (R0, R) = (0.995 R, R) at R = 200a, uniform
    across it with its end nodes 1e-9 inside the edges, and on to R1 = 1.02 R.
    """
    from . import homogeneous, scattering
    v = scattering.soft_sphere(1.0, 25.0)
    sol = scattering.solve_zero_energy(v)
    a, R = sol.a, 200.0 * sol.a
    R0, R1 = 0.995 * R, 1.02 * R
    psi_in = np.where(sol.grid > 0, sol.u / np.maximum(sol.grid, 1e-300),
                      sol.du[0]) / sol.du[-1]
    edge = v.core_radius * (1 - 1e-9)
    k = int(np.searchsorted(sol.grid, edge))
    r_in = np.insert(sol.grid, k, edge)
    psi_in = np.insert(psi_in, k, np.interp(edge, sol.grid, psi_in))
    r_out = np.concatenate([np.geomspace(sol.grid[-1], R0, 500)[1:],
                            np.linspace(R0 * (1 + 1e-9), R * (1 - 1e-9), 200),
                            np.linspace(R, R1, 20)])
    return (np.concatenate([r_in, r_out]),
            np.concatenate([psi_in, 1.0 - a / r_out]),
            v, homogeneous.soft_potential(R, R0, 3, a), R1)


def _homogeneous_checks(seed):
    from . import homogeneous
    out = []

    def bounds(Ys):
        """(leading, bounds_3d record) at each Y, a = 1."""
        states = [homogeneous.GasState3D(Y * 3 / (4 * math.pi), 1.0) for Y in Ys]
        return [(st.leading, homogeneous.bounds_3d(st)) for st in states]

    # the lower bound is clamped at 0 here: only upper can break the bracket
    dilute = np.geomspace(1e-9, 1e-4, 12)
    near = bounds(dilute)
    ok = all(b["lower"] <= b["lhy"] <= b["upper"] for _, b in near)
    out.append(_check("homogeneous.bracketing", 0.0 if ok else 1.0, 0.5,
                      passed=ok))
    st = homogeneous.GasState3D(1e-4, 1.0)
    # a transcription: the stored constant against the same literal
    out.append(_check("homogeneous.dyson_classic",
                      abs(homogeneous.bounds_3d(st)["dyson_classic"] / st.leading
                          - 1.0 / (10.0 * math.sqrt(2.0))), 1e-15))
    # LHY_C1 against the Bogoliubov integral it comes from: the gap is
    # 1.3e-15, rounding and the tail series' O(X^-11) (tolerance x75)
    out.append(_check("homogeneous.lhy_dual_path",
                      abs(homogeneous.lhy_integral() / homogeneous.LHY_C1 - 1.0),
                      1e-13))
    Ys = np.geomspace(1e-40, 1e-20, 9)
    errs = [1.0 - b["lower"] / leading for leading, b in bounds(Ys)]
    slope = float(np.polyfit(np.log(Ys), np.log(errs), 1)[0])
    out.append(_check("homogeneous.lower_exponent",
                      abs(slope - 1.0 / 17.0) * 17.0, 0.1))
    errs = [b["upper"] / leading - 1.0 for leading, b in near]
    slope = float(np.polyfit(np.log(dilute), np.log(errs), 1)[0])
    out.append(_check("homogeneous.upper_exponent", abs(slope - 1 / 3) * 3.0, 0.1))

    # K > 0 for n <= 1136 (163 of the 714 n), then the Temple factor's 0
    ks = [homogeneous.k_factor(n, 50.0, 5.0, 1.0, 0.4, 1e-5)
          for n in np.arange(2, 5000, 7)]
    mono = ks[0] > 0.0 and all(ks[i] >= ks[i + 1] - 1e-15
                               for i in range(len(ks) - 1))
    out.append(_check("homogeneous.K_monotone", 0.0 if mono else 1.0, 0.5,
                      passed=mono))

    rng = default_rng(seed)
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

    rng = default_rng(seed + 1)
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
    # R = 200a: the margin (per mu a, mu = 1) is >= 0 and saturates up to
    # O(a/R) = 5e-3
    r, psi, v, U, R1 = _dyson_lemma_grid()
    margin = homogeneous.dyson_lemma_residual(r, psi, v, U, R1) / U.a
    out.append(_check("homogeneous.dyson_lemma_saturation", margin, 1e-2,
                      passed=-1e-9 <= margin <= 1e-2))
    return out


def _meanfield_checks():
    from . import meanfield
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
# table (t = 8.6e-3, 0.953, 11.3): of the geometric midpoints between sweep
# widths, the worst in t < 1e-2, [1e-2, 1) and [1, 100) (4.2e-9 to 6.0e-8)
_LL_DIRECT_WIDTHS = (0.03382, 0.441, 2.372)


def _onedim_checks():
    from . import onedim
    out = []
    curve = onedim.default_curve()
    out.append(_check("onedim.ll_high_t", abs(curve.e(1e3) * 3.0 / math.pi**2 - 1.0),
                      0.02))

    # the strong-coupling series through gamma^-3 at gamma = t/2: its
    # O(gamma^-4) truncation, 2.0e-9 at t = 1e3, falls 1e4-fold per decade
    # of t (tolerance x5)
    def strong(g):
        return math.pi**2 / 3.0 * (1.0 - 4.0 / g + 12.0 / g**2
                                   - 32.0 * (1.0 - math.pi**2 / 15.0) / g**3)

    out.append(_check("onedim.ll_strong_series",
                      max(abs(curve.e(t) / strong(t / 2.0) - 1.0)
                          for t in (1e3, 1e4, 1e5)), 1e-8))
    out.append(_check("onedim.ll_low_t", abs(curve.e(1e-2) / 5e-3 - 1.0), 0.05))
    out.append(_check("onedim.ll_direct_route",
                      onedim.table_error(curve, _LL_DIRECT_WIDTHS), 1e-6))
    out.append(_check("onedim.ll_slope_direct",
                      onedim.slope_error(curve, _LL_DIRECT_WIDTHS), 1e-7))
    rho = np.linspace(0.05, 20.0, 200)
    h = rho**3 * curve.e(1.0 / rho)
    out.append(_check("onedim.ll_convexity", -float(np.min(np.diff(h, 2))), 1e-8))
    e_unit, ib4 = onedim.transverse_mode_numeric("harmonic")
    out.append(_check("onedim.transverse_harmonic",
                      max(abs(e_unit - 2.0), abs(ib4 - 1 / (2 * math.pi))), 1e-8))
    e_hw, ib4_hw = onedim.UNIT_MODES["hard_wall"]
    e_unit, ib4 = onedim.transverse_mode_numeric("hard_wall")
    out.append(_check("onedim.transverse_hard_wall",
                      max(abs(e_unit - e_hw), abs(ib4 - ib4_hw)), 1e-8))
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
    from . import charged, oracles
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
    tc1, tc2 = (charged.two_component_energy(N, 1.0) for N in (50.0, 100.0))
    # the stored E*(1) against the flow's, refined by its h^2 estimate
    refined = dm.energy + dm.solve.E_discretization_error
    out.append(_check("charged.dyson_constant",
                      abs(tc1.e_star - refined) / abs(tc1.e_star), 1e-8))
    out.append(_check("charged.two_component_ratio",
                      abs(tc2.energy / tc1.energy - 2.0**1.4), 1e-12))
    b = charged.bogolubov_bound(1.0, 0.5, 0.0)
    gap = oracles.fock_quadratic_ground(1.0, 0.5, 0.0, 40) - b
    out.append(_check("charged.fock_gap_cutoff40", abs(gap), 1e-3,
                      passed=(gap > -1e-10 and abs(gap) < 1e-3)))
    rng = default_rng(seed)
    viol = 0.0
    for _ in range(60):
        A, Bp, Bm = rng.uniform(0.05, 3.0, 3)
        bb = charged.bogolubov_bound(A, Bp, Bm)
        e0 = oracles.fock_quadratic_ground(A, Bp, Bm, 6)
        viol = max(viol, bb - e0)
    out.append(_check("charged.fock_never_below_bound", viol, 1e-9, seed=seed))
    return out


def _twisted_checks():
    from . import oracles, quadrature
    out = []
    # at |phi| <= pi the FD ground state is the constant mode, (phi/L)^2
    # exactly: the gap is rounding, 4.2e-12 at n = 64 (tolerance x240)
    worst = 0.0
    for L, phi in ((1.0, 0.0), (1.0, 0.5 * math.pi), (2.0, math.pi), (3.0, -1.1)):
        got = oracles.twisted_spectrum(L, phi, 64, 1)[0]
        worst = max(worst, abs(got - oracles.twisted_ground_exact(L, phi)))
    out.append(_check("oracles.twisted_exact", worst, 1e-9))
    # the two lowest levels at phi = pi are degenerate: the FD split,
    # extrapolated in h^2, is 5.2e-7 of the level (pi/2)^2 (tolerance x19)
    splits = [np.diff(oracles.twisted_spectrum(2.0, math.pi, n, 2))[0]
              for n in (32, 64, 128)]
    limit, _, note = quadrature.richardson(splits, 2)
    split = abs(splits[-1] if note else limit) / (0.5 * math.pi) ** 2
    out.append(_check("oracles.twisted_pi_degeneracy", split, 1e-5,
                      passed=note is None and split <= 1e-5))
    errs = []
    for n in (32, 64, 128):
        g = oracles.twisted_spectrum(1.0, 1.1, n, 2)[1]
        exact = sorted(((2 * math.pi * m + 1.1) ** 2 for m in range(-3, 4)))[1]
        errs.append(abs(g - exact))
    rate = float(np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0])
    out.append(_check("oracles.twisted_fd_rate", abs(rate + 2.0), 0.2))
    return out


def _oracle_checks(seed):
    from . import oracles
    out = _twisted_checks()

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

    rng = default_rng(seed + 3)
    viol = 0
    for _ in range(300):
        N = 64
        diag = rng.normal(size=N + 1)
        off = rng.normal(size=N)
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        psi = rng.normal(size=N + 1)
        psi /= np.linalg.norm(psi)
        lhs, lam, quad, tail = oracles.localize_band_matrix(A, psi, 8)
        if lhs > lam + 10.0 * (quad + tail) + 1e-12:
            viol += 1
    out.append(_check("oracles.band_matrix_corpus", viol, 0.5, seed=seed + 3,
                      calibrated_C=10.0))

    worst = -math.inf
    for g in (1.0, 10.0):
        e3 = oracles.exact_diag_delta_gas_1d(3, 1.0, g, 16)
        e2 = oracles.exact_diag_delta_gas_1d(2, 1.0, g, 16)
        e1 = oracles.exact_diag_delta_gas_1d(1, 1.0, g, 16)
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
    """Run ``sections``, (name, function, args, modules) tuples, in order,
    after importing every section's modules, so that no section's clock
    counts an import; returns each one's checks, wall seconds, this
    process's peak RSS after it and the seconds of each of its checks since
    the one before."""
    for *_, modules in sections:
        for module in modules:
            import_module(f".{module}", __package__)
    out = {}
    for name, run, args, _ in sections:
        _STAMPS.clear()
        t0 = time.perf_counter()
        checks = run(*args)
        seconds = time.perf_counter() - t0
        starts = [t0] + [t for _, t in _STAMPS]
        out[name] = (checks, seconds, _max_rss_mb(),
                     {check: t - start
                      for (check, t), start in zip(_STAMPS, starts)})
    return out


# the sections that run a flow: one worker process runs them, and another
# runs the rest (the scattering solves and the corpora).  Each imports only
# its own sections' modules, so the corpus worker loads no flow and the
# flow worker no scattering solver; neither loads scipy (the flows stay
# below flows._SCIPY_AFTER), so the split only balances their times
_FLOW_SECTIONS = ("meanfield", "onedim", "charged")


def run_all(seed: int) -> tuple[dict, dict]:
    """Run the whole invariant suite; returns (scorecard, timings).

    Two forked worker processes run the sections: one those in
    ``_FLOW_SECTIONS``, the other the rest, while this process only waits
    for their checks and puts them together in the sections' order, so the
    scorecard does not depend on which process ran what.  This process
    imports no section module: each worker imports those of its own
    sections before their clocks start, on top of the numpy and
    numpy.random pages it shares with this process.

    ``timings`` holds the wall seconds of each section (scattering,
    homogeneous, meanfield, onedim, charged, oracles) under "sections", the
    peak resident set in MB, after each, of the process that ran it under
    "max_rss_mb", each worker's sections in run order under "processes"
    ("flows" and "corpora"), each section's checks with the seconds since
    the check before (or since the section's start) under "checks", and
    this process's own peak once the workers are joined under
    "caller_max_rss_mb"; they are never part of the scorecard, which stays
    byte-reproducible.
    """
    # (name, checks, their arguments, the bosegas modules to import
    # before the clocks start)
    sections = (("scattering", _scattering_checks, (), ("scattering",)),
                ("homogeneous", _homogeneous_checks, (seed,),
                 ("homogeneous", "scattering")),
                ("meanfield", _meanfield_checks, (), ("meanfield", "flows")),
                ("onedim", _onedim_checks, (), ("onedim",)),
                ("charged", _charged_checks, (seed + 10,),
                 ("charged", "flows", "oracles")),
                ("oracles", _oracle_checks, (seed + 20,),
                 ("oracles", "quadrature")))
    split = {"flows": [s for s in sections if s[0] in _FLOW_SECTIONS],
             "corpora": [s for s in sections if s[0] not in _FLOW_SECTIONS]}
    done = {}
    with ProcessPoolExecutor(max_workers=2) as pool:
        workers = [pool.submit(_run_sections, run) for run in split.values()]
        for worker in workers:
            done.update(worker.result())
    checks = [c for name, *_ in sections for c in done[name][0]]
    timings = {"sections": {name: done[name][1] for name in done},
               "max_rss_mb": {name: done[name][2] for name in done},
               "processes": {process: [name for name, *_ in run]
                             for process, run in split.items()},
               "checks": {name: done[name][3] for name in done},
               "caller_max_rss_mb": _max_rss_mb()}
    n_pass = sum(1 for c in checks if c["passed"])
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "checks": checks,
        "n_checks": len(checks),
        "n_passed": n_pass,
        "all_passed": n_pass == len(checks),
    }, timings
