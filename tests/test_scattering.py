import math

import numpy as np
import pytest

from bosegas import scattering as sc
from bosegas.quadrature import simpson


def tabulated(samples, dimension=3):
    """A tabulated potential from (r, v) pairs, with range the last r."""
    samples = tuple((float(r), float(v)) for r, v in samples)
    return sc.RadialPotential("tabulated", samples[-1][0] if samples else 0.0,
                              samples=samples, dimension=dimension)


def soft_sphere_a_exact(R0, v0, mu):
    # piecewise solution: u = sinh(kappa r) inside, r - a outside
    kappa = math.sqrt(v0 / (2.0 * mu))
    return R0 * (1.0 - math.tanh(kappa * R0) / (kappa * R0))


def _rk4_path(f, g, grid, y0, y1):
    """Scalar RK4 for the system (u, w)' = (f(r,u,w), g(r,u,w)) along grid."""
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


def _reference_interior(v, mu, grid, u0, w0):
    """Scalar RK4 reference for the interior path of scattering._solve, one
    closure call per stage across the interior grid [start, R0]."""
    if v.kind == "soft_sphere":
        vr = lambda r: v.height
    else:
        vr = lambda r: float(v(min(r, v.core_radius)))
    if v.dimension == 3:
        g = lambda r, u, w: vr(r) * u / (2.0 * mu)
    else:
        g = lambda r, u, w: vr(r) * u / (2.0 * mu) - w / r
    return _rk4_path(lambda r, u, w: w, g, grid, u0, w0)


_KINKED = [(0.0, 5.0), (0.4, 3.0), (1.0, 0.0)]


@pytest.mark.parametrize("v", [sc.soft_sphere(1.0, 9.0, dimension=2),
                               sc.hard_core(1.0, dimension=2),
                               tabulated(_KINKED, dimension=2),
                               tabulated(_KINKED, dimension=3)],
                         ids=["soft_disc", "hard_disc", "tabulated_2d",
                              "tabulated_3d"])
def test_propagator_matches_scalar_rk4_reference(v):
    sol = sc.solve_zero_energy(v)
    n, rmax = sc.GridSpec().n, sc._RMAX_FACTOR * v.core_radius
    # the reference walks the paths of the n and 2x grids; a_refined comes
    # from the total product alone
    ref = []
    for m in (n, 2 * n):
        inner, u0, w0 = sc._interior(v, 1.0, m, rmax)
        u, du = _reference_interior(v, 1.0, inner, u0, w0)
        ref.append((inner, u, du,
                    sc._scattering_length(v, float(u[-1]), float(du[-1]))))
    (grid, u, du, a), (*_, a2) = ref
    # in 3D a = R0 - u/u' cancels digits, so the propagated u/u' ~ R0 sets
    # the scale
    scale = sol.core_radius if v.dimension == 3 else abs(a)
    assert abs(sol.a - a) <= 1e-12 * scale
    assert abs(sol.a_refined - a2) <= 1e-12 * scale
    # the interior path; past R0 the profile is the closed form through the
    # state at R0, which a checks
    k = len(grid)
    np.testing.assert_array_equal(sol.grid[:k], grid)
    for got, want in ((sol.u[:k], u), (sol.du[:k], du)):
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite] / sol.du[k - 1],
                                   want[finite] / du[-1], rtol=1e-10)


_PRODUCT_CASES = [sc.soft_sphere(1.0, 9.0), sc.soft_sphere(1.0, 1e8),
                  sc.soft_sphere(1.0, 1e16), sc.soft_sphere(1.3, 25.0, dimension=2),
                  sc.soft_sphere(1.0, 1e6, dimension=2),
                  sc.soft_sphere(1.0, 1e8, dimension=2),
                  tabulated(_KINKED, dimension=2), tabulated(_KINKED, dimension=3)]
_PRODUCT_IDS = ["soft_3d", "stiff_3d_1e8", "stiff_3d_1e16", "soft_disc",
                "stiff_disc_1e6", "stiff_disc_1e8", "tabulated_2d", "tabulated_3d"]


@pytest.mark.parametrize("v", _PRODUCT_CASES, ids=_PRODUCT_IDS)
@pytest.mark.parametrize("n,steps", [(4096, 512), (8192, 1024), (8000, 1000),
                                     (8200, 1025)])
def test_total_product_is_the_scans_last_column(v, n, steps):
    inner, _, _ = sc._interior(v, 1.0, n, sc._RMAX_FACTOR * v.core_radius)
    [(P, s)] = sc._interior_steps(v, 1.0, inner)
    assert P.shape == (4, steps)
    total, log_scale = sc._total_product(P.copy(), s.copy())
    sc._prefix_products(P, s)
    assert total.shape == (4, 1) and log_scale.shape == (1,)
    assert total[:, 0].tobytes() == P[:, -1].tobytes()
    assert log_scale[0].tobytes() == s[-1].tobytes()
    # the log scale at work: 3D exact steps start it at kappa h; RK4 steps
    # start it at 0, so in 2D only the _BIG rescaling can have raised it
    if v.height >= 1e6:
        assert log_scale[0] > math.log(sc._BIG)


@pytest.mark.parametrize("v", _PRODUCT_CASES, ids=_PRODUCT_IDS)
@pytest.mark.parametrize("n,steps", [(4096, 512), (8192, 1024), (8000, 1000),
                                     (8200, 1025)])
def test_steps_built_together_are_each_grids_own(v, n, steps):
    rmax = sc._RMAX_FACTOR * v.core_radius
    grids = [sc._interior(v, 1.0, m, rmax)[0] for m in (n, 2 * n)]
    together = sc._interior_steps(v, 1.0, *grids)
    assert [P.shape for P, _ in together] == [(4, steps), (4, 2 * steps)]
    for (P, s), grid in zip(together, grids):
        [(P_alone, s_alone)] = sc._interior_steps(v, 1.0, grid)
        assert P.tobytes() == P_alone.tobytes()
        assert s.tobytes() == s_alone.tobytes()


@pytest.mark.parametrize("v", _PRODUCT_CASES, ids=_PRODUCT_IDS)
@pytest.mark.parametrize("n", [4096, 4100])
def test_refined_a_is_the_refined_path_a(v, n):
    sol = sc.solve_zero_energy(v, grid_spec=sc.GridSpec(n))
    path_a = sc._solve(v, 1.0, 2 * n, sc._RMAX_FACTOR * v.core_radius)[3]
    assert float(sol.a_refined).hex() == float(path_a).hex()


@pytest.mark.parametrize("v0", [1.0, 9.0, 1e4, 1e8, 1e12, 1e16])
def test_stiff_soft_sphere_matches_closed_form(v0):
    sol = sc.solve_zero_energy(sc.soft_sphere(1.0, v0))
    a_exact = soft_sphere_a_exact(1.0, v0, 1.0)
    assert abs(sol.a - a_exact) / a_exact <= 1e-15
    assert abs(sol.a_refined - a_exact) / a_exact <= 1e-15


@pytest.mark.parametrize("v0", [1e6, 1e8])
def test_stiff_soft_disc_is_finite_and_refines(v0):
    sol = sc.solve_zero_energy(sc.soft_sphere(1.0, v0, dimension=2))
    assert math.isfinite(sol.a) and math.isfinite(sol.a_refined)
    assert abs(sol.a - sol.a_refined) / sol.a < 1e-6
    assert np.all(np.isfinite(sol.u)) and np.all(np.isfinite(sol.du))


@pytest.mark.parametrize("v0", [1e14, 1e16])
def test_stiff_soft_disc_nonfinite_interior_is_an_error(v0):
    # RK4 steps with kappa h >> 1 cancel the refined path to zero under a
    # huge log scale; the state at R0 is then NaN, not an answer
    with pytest.raises(ValueError, match="interior solution is not finite at R0"):
        sc.solve_zero_energy(sc.soft_sphere(1.0, v0, dimension=2))


def test_s_does_not_depend_on_the_exterior_spacing():
    # all three grids share one 512-step interior; the exterior spacings
    # differ unless n is a multiple of 8
    ss = [sc.solve_zero_energy(sc.soft_sphere(1.0, 9.0), grid_spec=sc.GridSpec(n)).s
          for n in (4096, 4097, 4100)]
    assert max(ss) - min(ss) <= 1e-12


def test_2d_a_does_not_depend_on_the_exterior_window(monkeypatch):
    # the three grids share one interior grid; only rmax differs
    sols = []
    for n, f in ((2048, 4.0), (4096, 8.0), (8192, 16.0)):
        monkeypatch.setattr(sc, "_RMAX_FACTOR", f)
        sols.append(sc.solve_zero_energy(sc.soft_sphere(1.0, 25.0, dimension=2),
                                         grid_spec=sc.GridSpec(n)))
    assert len({sol.a for sol in sols}) == 1
    assert len({sol.a_refined for sol in sols}) == 1


def test_hard_core_scattering_length_is_radius():
    # an empty interior with state (0, 1) at R0: exact in closed form
    for R0 in (1.0, 0.37):
        sol = sc.solve_zero_energy(sc.hard_core(R0))
        assert sol.a == R0 and sol.a_refined == R0


def test_zero_potential_has_zero_scattering_length():
    sol = sc.solve_zero_energy(sc.soft_sphere(1.0, 0.0))
    assert sol.a == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("v0,mu", [(4.0, 1.0), (25.0, 1.0), (4.0, 0.5), (100.0, 2.0)])
def test_soft_sphere_matches_closed_form(v0, mu):
    sol = sc.solve_zero_energy(sc.soft_sphere(1.0, v0), mu)
    a_exact = soft_sphere_a_exact(1.0, v0, mu)
    assert abs(sol.a - a_exact) / a_exact < 1e-6


def test_grid_round_trip_refinement():
    for v in (sc.soft_sphere(1.0, 9.0),
              tabulated([(0.0, 5.0), (0.5, 3.0), (1.0, 0.0)])):
        sol = sc.solve_zero_energy(v)
        assert abs(sol.a - sol.a_refined) / abs(sol.a) < 1e-6


def test_scaling_covariance():
    base = sc.solve_zero_energy(sc.soft_sphere(1.0, 9.0))
    unit = sc.soft_sphere(1.0 / base.a, 9.0 * base.a**2)
    for lam in (0.1, 1.0, 10.0):
        scaled = sc.scale_potential(unit, lam)
        assert abs(sc.solve_zero_energy(scaled).a - lam) / lam < 1e-8


def test_scale_potential_identity_and_hard_core():
    hc = sc.hard_core(1.0)
    same = sc.scale_potential(hc, 1.0)
    assert same.core_radius == 1.0
    small = sc.scale_potential(hc, 0.01)
    assert small.core_radius == pytest.approx(0.01)
    assert sc.solve_zero_energy(small).a == pytest.approx(0.01, rel=1e-12)


def test_scale_potential_requires_unit_base():
    with pytest.raises(ValueError):
        sc.scale_potential(sc.soft_sphere(1.0, 9.0), 0.5)


def test_energy_identity_hard_core_value():
    hc = sc.hard_core(1.0)
    sol = sc.solve_zero_energy(hc)
    res = sc.energy_identity_residual(sol, hc, 2.0)
    assert res["rhs"] == pytest.approx(4.0 * math.pi)
    assert res["residual"] < 1e-8
    # R -> infinity limit: value approaches 8 pi mu a
    res8 = sc.energy_identity_residual(sol, hc, 8.0)
    assert res8["lhs"] == pytest.approx(8.0 * math.pi * (1 - 1.0 / 8.0), rel=1e-8)


@pytest.mark.parametrize("R_over_R0", [2.0, 4.0, 8.0])
def test_energy_identity_residual_corpus(R_over_R0):
    for v, mu in ((sc.hard_core(1.0), 1.0), (sc.soft_sphere(1.0, 25.0), 1.0),
                  (sc.soft_sphere(1.0, 25.0), 0.5),
                  (tabulated([(0.0, 12.0), (0.3, 8.0), (0.7, 2.0), (1.0, 0.0)]), 1.0)):
        sol = sc.solve_zero_energy(v, mu)
        R = R_over_R0 * v.core_radius
        res = sc.energy_identity_residual(sol, v, R)
        assert res["residual"] < 1e-5
        assert res["R"] == R
        # psi0 = 1 - a/r is exact outside R0, so the residual has no R in it
        for f in (1.0, 2.0, 4.0, 8.0):
            other = sc.energy_identity_residual(sol, v, f * v.core_radius)
            assert other["residual"] == res["residual"]
        # s and the identity read the same interior integrals, taken once
        # by the solve; the residual is the gap between the kinetic and the
        # potential route to s
        K, P = sc._interior_integrals(sol.grid, sol.u, sol.du, v, sol.mu)
        assert [float(x).hex() for x in (K, P)] == [float(x).hex() for x in sol.integrals]
        a, R0 = sol.a, v.core_radius
        assert sol.s == pytest.approx(K / a + a / R0, rel=1e-14)
        assert res["residual"] == pytest.approx(abs(sol.s - (1.0 - P / a)), abs=1e-14)
        if v.kind == "hard_core":
            assert res["residual"] == 0.0


def test_energy_identity_rejects_another_potential():
    v = sc.soft_sphere(1.0, 25.0)
    sol = sc.solve_zero_energy(v)
    for other in (sc.soft_sphere(1.0, 25.0, dimension=2), sc.soft_sphere(1.5, 25.0)):
        with pytest.raises(ValueError, match="not the one the solution solved"):
            sc.energy_identity_residual(sol, other, 2.0)
    # a 2D solution is rejected as before, whatever the potential
    sol2 = sc.solve_zero_energy(sc.soft_sphere(1.0, 25.0, dimension=2))
    with pytest.raises(ValueError, match="3D only"):
        sc.energy_identity_residual(sol2, v, 2.0)


def test_s_parameter_hard_core_is_one():
    for R0 in (1.0, 0.37):
        sol = sc.solve_zero_energy(sc.hard_core(R0))
        assert sol.s == 1.0


@pytest.mark.parametrize("R0", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_hard_core_s_and_identity_at_extreme_radii(R0):
    # a = R0 and s = 1 at every scale: no a^2, which under- or overflows
    hc = sc.hard_core(R0)
    sol = sc.solve_zero_energy(hc)
    assert sol.a == R0 and sol.s == 1.0
    res = sc.energy_identity_residual(sol, hc, 2.0 * R0)
    assert all(map(math.isfinite, res.values()))
    assert res["residual"] == 0.0
    assert res["lhs"] == pytest.approx(4.0 * math.pi * R0, rel=1e-15)


def test_s_parameter_weak_potential_small_and_monotone():
    previous = 0.0
    for v0 in (0.5, 2.0, 8.0, 32.0):
        sol = sc.solve_zero_energy(sc.soft_sphere(1.0, v0))
        s = sol.s
        assert 0.0 < s < 1.0
        assert s > previous  # harder potential, more kinetic share
        previous = s


def test_s_parameter_bounded_over_random_corpus(rng):
    for _ in range(10):
        n_pts = rng.integers(4, 9)
        rs = np.sort(rng.uniform(0.05, 1.0, n_pts))
        rs[-1] = 1.0
        vs = rng.uniform(0.0, 30.0, n_pts)
        vs[-1] = 0.0
        v = tabulated(list(zip(rs, vs)))
        sol = sc.solve_zero_energy(v)
        if sol.a > 1e-6:
            assert 0.0 < sol.s <= 1.0 + 1e-9


def test_s_parameter_errors_for_zero_a():
    # s is undefined for a = 0 and outside 3D
    assert sc.solve_zero_energy(sc.soft_sphere(1.0, 0.0)).s is None
    assert sc.solve_zero_energy(sc.hard_core(1.0, dimension=2)).s is None


def test_2d_hard_disc():
    for R0 in (1.0, 0.37):
        sol = sc.solve_zero_energy(sc.hard_core(R0, dimension=2))
        assert sol.dimension == 2
        assert sol.a == R0 and sol.a_refined == R0


def test_2d_soft_disc_refinement_and_positivity():
    sol = sc.solve_zero_energy(sc.soft_sphere(1.0, 25.0, dimension=2))
    assert 0.0 < sol.a < 1.0
    assert abs(sol.a - sol.a_refined) < 1e-6


def test_2d_zero_potential_rejected():
    for v in (sc.soft_sphere(1.0, 0.0, dimension=2),
              sc.hard_core(0.0, dimension=2),
              tabulated([(0.0, 0.0), (1.0, 0.0)], dimension=2)):
        with pytest.raises(ValueError, match="no logarithmic asymptote"):
            sc.solve_zero_energy(v)


def test_minimality_of_scattering_solution(rng):
    # the zero-energy solution minimizes the quadratic form at fixed psi(R)
    v = sc.soft_sphere(1.0, 9.0)
    sol = sc.solve_zero_energy(v)
    r = sol.grid
    R = 4.0
    mask = r <= R
    rr = r[mask]
    c = sol.du[-1]
    psi0 = np.where(rr > 0, sol.u[mask] / np.maximum(rr, 1e-300), 1.0) / c

    def quad_form(psi):
        dp = np.gradient(psi, rr)
        return simpson((2.0 * dp**2 + v(rr) * psi**2) * rr**2, rr)

    base = quad_form(psi0)
    for _ in range(20):
        # smooth perturbation vanishing at r = R
        ks = rng.integers(1, 4)
        eta = np.zeros_like(rr)
        for k in range(1, ks + 1):
            eta += rng.normal() * np.sin(math.pi * k * rr / R)
        eta *= 0.05 / max(np.max(np.abs(eta)), 1e-12)
        assert quad_form(psi0 + eta) >= base - 1e-10


def test_invalid_inputs():
    with pytest.raises(ValueError):
        sc.soft_sphere(1.0, -2.0)
    with pytest.raises(ValueError):
        tabulated([(0.5, 1.0), (0.2, 1.0)])
    with pytest.raises(ValueError):
        tabulated([(0.0, 1.0), (0.5, -1.0)])
    with pytest.raises(ValueError, match="n >= 16"):
        sc.GridSpec(n=8)
    sol = sc.solve_zero_energy(sc.hard_core(1.0))
    with pytest.raises(ValueError):
        sc.energy_identity_residual(sol, sc.hard_core(1.0), 0.5)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: sc.soft_sphere(1.0, math.nan), id="soft-nan-height"),
    pytest.param(lambda: sc.soft_sphere(1.0, math.inf), id="soft-inf-height"),
    pytest.param(lambda: sc.soft_sphere(math.nan, 1.0), id="soft-nan-radius"),
    pytest.param(lambda: sc.hard_core(math.nan), id="hard-nan"),
    pytest.param(lambda: sc.hard_core(math.inf), id="hard-inf"),
    pytest.param(lambda: tabulated([(0.0, math.nan), (1.0, 0.0)]), id="tab-nan-v"),
    pytest.param(lambda: tabulated([(0.0, math.inf), (1.0, 0.0)]), id="tab-inf-v"),
    pytest.param(lambda: tabulated([(math.nan, 1.0), (1.0, 0.0)]), id="tab-nan-r"),
    pytest.param(lambda: tabulated([(0.0, 1.0), (math.inf, 0.0)]), id="tab-inf-r"),
    pytest.param(lambda: sc.RadialPotential("tabulated", 1.0, samples=(
        (0.0, 1.0), (math.inf, 0.0))), id="tab-inf-r-finite-R0"),
])
def test_nonfinite_potential_rejected_at_construction(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_potential_file_round_trip(tmp_path):
    v = tabulated([(0.0, 12.0), (0.3, 8.0), (0.7, 2.0), (1.0, 0.0)])
    path = tmp_path / "pot.txt"
    with open(path, "w") as fh:
        fh.write(f"# dimension={v.dimension}\n# R0={v.core_radius!r}\n")
        fh.writelines(f"{r!r} {vv!r}\n" for r, vv in v.samples)
    back = sc.load_potential(path)
    assert back.dimension == 3
    assert back.core_radius == pytest.approx(1.0)
    a1 = sc.solve_zero_energy(v).a
    a2 = sc.solve_zero_energy(back).a
    assert a1 == pytest.approx(a2, rel=1e-12)


def _reference_load_potential(path):
    """The per-line parser that load_potential's one-pass parse replaced:
    one float conversion per token and a tuple of pairs."""
    headers, rows = {}, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    if key in ("dimension", "R0"):
                        headers[key] = (int if key == "dimension" else float)(value)
                elif line:
                    r, vv = map(float, line.replace(",", " ").split())
                    if not (math.isfinite(r) and math.isfinite(vv)):
                        raise ValueError("r and v must be finite")
                    rows.append((r, vv))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if len(headers) < 2:
        raise ValueError("potential file must carry '# dimension=' and '# R0=' headers")
    pot = tabulated(rows, dimension=headers["dimension"])
    if not math.isclose(pot.core_radius, headers["R0"], rel_tol=1e-9, abs_tol=1e-9):
        pot = sc.RadialPotential("tabulated", headers["R0"], samples=pot.samples,
                                 dimension=pot.dimension)
    return pot


def _same_potential(got, want):
    assert (got.kind, got.dimension) == (want.kind, want.dimension)
    assert float(got.core_radius).hex() == float(want.core_radius).hex()
    assert np.asarray(got.samples, dtype=float).tobytes() == \
        np.asarray(want.samples, dtype=float).tobytes()


@pytest.mark.parametrize("samples", [64, 100, 257, 1024])
@pytest.mark.parametrize("dim", [2, 3])
def test_load_potential_matches_the_per_line_parser(tmp_path, samples, dim):
    # written the way the benchmark writes its potential files
    R0, height = 0.5 + 0.37 * samples / 1024, 10.0 ** (samples % 4)
    r = np.linspace(0.0, R0, samples)
    v = height * (1.0 - (r / R0) ** 2) ** 2
    path = tmp_path / "pot.txt"
    with open(path, "w") as fh:
        fh.write(f"# dimension={dim}\n# R0={R0!r}\n")
        fh.writelines(f"{float(ri)!r} {float(vi)!r}\n" for ri, vi in zip(r, v))
    _same_potential(sc.load_potential(path), _reference_load_potential(path))


@pytest.mark.parametrize("text", [
    pytest.param("# dimension=2\n0,5\n0.25,\t4.5\n\n0.5 ,1e-3\n# R0=0.5\n", id="commas-tabs-late-header"),
    pytest.param("# dimension=3\r\n# R0=1.0000000001\r\n0 7\r\n\r\n  1 0  \r\n", id="crlf-close-R0"),
    pytest.param("# comment\n#R0=2\n# dimension=3\n\n,0 3,\n1.5\t2\n\t\n2 0\n", id="stray-commas"),
    pytest.param("# dimension=3\n# R0=2.5\n0 1\n1 0\n# note\n", id="R0-beyond-samples"),
])
def test_load_potential_matches_the_per_line_parser_on_odd_layouts(tmp_path, text):
    path = tmp_path / "pot.txt"
    path.write_bytes(text.encode())
    _same_potential(sc.load_potential(path), _reference_load_potential(path))


@pytest.mark.parametrize("text", [
    pytest.param("# dimension=3\n# R0=1\n0 5 # note\n1 0\n", id="trailing-comment"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n0.5 4\n1 0 2\n", id="three-tokens-after-block"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n0.5\n2 0 1\n", id="one-then-three-tokens"),
    pytest.param("# dimension=3\n# R0=1\n0 x\n# dimension=three\n", id="bad-row-before-bad-header"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n# R0=abc\n1 nan\n", id="bad-header-before-bad-row"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n1 -inf\n", id="infinite-v"),
])
def test_load_potential_names_the_per_line_parsers_line(tmp_path, text):
    path = tmp_path / "pot.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as want:
        _reference_load_potential(path)
    with pytest.raises(ValueError) as got:
        sc.load_potential(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("line ")


def test_solution_csv_export(tmp_path):
    sol = sc.solve_zero_energy(sc.hard_core(1.0))
    path = tmp_path / "sol.csv"
    sol.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == len(sol.grid) + 1
