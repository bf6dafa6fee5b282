"""Regression pins for the shared normalized gradient flow: iteration,
step-rejection and Newton-step counts exactly, energies to 1e-13
relative.  A change to the step-size control of the descent, to the
hand-off level or to the Newton endgame moves the counts.

The pins were re-set when the Newton endgame replaced the inverse-iteration
one (``_polish``): 61 -> 34 iterations for the 3D GP, 71 -> 34 for ``full``
and 43 -> 15 for Dyson, with every pinned energy unchanged to 1e-13.  The
descent now stops at a residual of 1e-2 times the energy scale, where it
used to run on until the energy was stationary, and 2-3 Newton steps take
the place of 11-22 polish rounds.

They were re-set once more when every trap minimizer went through
``flows.minimize_nested``: the counts now sum over the grids of the
cascade, coarsest first, and the GP grids are sized from the exact mu_TF.
The 3D GP went 34 -> 21 (13 on 256 nodes, then 2 on each of 512..4096),
``full`` 34 -> 33, 3, 3, 3 (256..2048 nodes) and Dyson 15 -> 22 (15, 3, 2,
2).  ``full`` and Dyson moved by at most 1 ulp; the 3D GP energy moved by
2.6e-8 relative (362.2434068055428 -> 362.2434160742895) because its
grid's radius changed, within its E_discretization_error of 5.3e-7
relative.

They moved a third time when the descent step came to grow by x1.5 per
accepted step instead of x1.1 (``flows._DT_GROWTH``): the coarsest grid
reaches the Newton hand-off in fewer steps.  The 3D GP went 21 -> 16,
``full`` 33, 3, 3, 3 -> 14, 3, 3, 3 and Dyson 22 -> 19; no step is rejected
and the Newton counts are unchanged.  The pinned energies moved by at most
2 ulp and were not re-set.

They moved a fourth time when the 1D kinds came to solve on the half line
(``flows.cell_problem`` at d = 1).  ``full`` is the same discrete problem
on the nodes z > 0 of its old 2048-node grid, so its cascade runs 256, 512
and 1024 half-line nodes, the old 512-, 1024- and 2048-node full-line
grids; the old 256-node grid, which started the cascade, is dropped, and
the half of the 512-node grid starts from the caller's start.  ``full``
went 14, 3, 3, 3 -> 14, 3, 3; its energy moved by 1 ulp and was not
re-set.

They moved a fifth time when the 3D grid came to solve for phi instead of
u = r phi (``flows.sphere_problem``).  The discrete energy is the u grid's,
and every descent step is the old step in other coordinates, but the
sup-norm residual now measures phi's defect, u's divided by r, and the
default start is read as phi, so the coarsest grid hands off to Newton at
another iterate.  The 3D GP went (16, 0, 6) -> (17, 0, 7) and Dyson 19 ->
21 iterations, with (0, 7) kept; neither energy was re-set (the GP's is
unchanged, Dyson's moved by 2 ulp).  In the prolongation test the 3D grid
has no flux through 0, and the u grid stays as the Dirichlet-at-0 case.

Five references are kept here.  The backward-Euler step is checked bit for
bit against its first form, scipy's ``solve_banded`` on a 3 x n banded
layout.  The whole minimization is checked against the flow as it was with
its inverse-iteration endgame (``_reference_minimize_flow``): on a corpus
where both converge, the energies agree to 1e-12 relative.  The cascade
is checked against the single-grid solve it replaced
(``_single_grid``): the n-grid energies agree to 1e-14 relative.  The
half-line 1D problem is checked against the symmetric full-line problem
it replaced (``line_problem``): on a corpus of ``full`` and ``gp1d``
solves the energies and coarse-grid energies agree to 1e-13 relative.
The 3D grid in phi is checked against the u = r phi grid it replaced
(``radial_u_problem``): at a fixed state the energies agree to 1e-15
relative and the defect is u's divided by r, and on a corpus of GP and
Dyson solves the energies agree to 2e-15 relative and phi = u / r.
"""

import functools

import dataclasses
import math

import numpy as np
import pytest

from bosegas import charged, flows, meanfield, onedim, quadrature


def _free(y):
    """No interaction: q = q' = q'' = 0."""
    return 0.0 * y, 0.0 * y, 0.0


def _quartic(y):
    """q = y^2 / 2, q' = y and q'' = 1."""
    return 0.5 * y**2, y, 1.0


def _gaussian_start(prob):
    """The Gaussian-like start of the weak-coupling GP solves, read on the
    node indices of ``prob``."""
    return np.exp(-np.linspace(0, 4, len(prob.nodes)) ** 2) + 0.05


def line_problem(zmax, n, kappa, V, local, mass):
    """Symmetric 1D problem on (-zmax, zmax) with Dirichlet ghosts: the
    grid of the 1D kinds before they solved on the half line."""
    h = 2.0 * zmax / (n + 1)
    z = -zmax + h * np.arange(1, n + 1)
    w = h * np.ones(n)
    ew = np.full(n + 1, 1.0 / h)
    return flows.FlowProblem(z, w, kappa, ew, np.asarray(V(z), dtype=float),
                             local, mass)


def radial_u_problem(rmax, n, mu, V, local, mass):
    """The 3D u = r phi grid as first built, before ``flows.sphere_problem``
    solved for phi: nodes r_i = i h, h = rmax/(n+1), zero ghosts u(0) and
    u(rmax), norm 4 pi int u^2 dr, kinetic term 4 pi mu int u'^2 dr, local
    terms with weight 4 pi h.  ``local`` is phi's, a function of the
    density; the u grid reads it at y = u^2, as r^2 q(y / r^2)."""
    h = rmax / (n + 1)
    r = h * np.arange(1, n + 1)
    r2 = r**2

    def local_u(y):
        q, dq, d2q = local(y / r2)
        return r2 * q, dq, d2q / r2

    w = 4.0 * math.pi * h * np.ones(n)
    ew = np.full(n + 1, 1.0 / h)
    return flows.FlowProblem(r, w, 4.0 * math.pi * mu, ew,
                             np.asarray(V(r), dtype=float), local_u, mass)


def test_gp_3d_harmonic_flow_pinned():
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(3, 100.0, 0.01,
                                                       n_grid=4096))
    assert rep.solve.iterations == 17
    assert (rep.solve.rejected_steps, rep.solve.newton_steps) == (0, 7)
    assert rep.E_total == pytest.approx(362.2434160742895, rel=1e-13)


def test_full_1d_flow_pinned(monkeypatch):
    results = []
    run = flows.minimize_flow

    def recording(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flows, "minimize_flow", recording)
    _, energy, _ = onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0)
    assert [len(r.psi) for r in results] == [256, 512, 1024]
    assert [r.iterations for r in results] == [14, 3, 3]
    assert [(r.rejected_steps, r.newton_steps) for r in results] \
        == [(0, 3), (0, 2), (0, 2)]
    assert energy == pytest.approx(9.322184640283089, rel=1e-13)


def test_dyson_flow_pinned():
    dm = charged.dyson_functional_minimize(1.0)
    assert dm.solve.iterations == 21
    assert (dm.solve.rejected_steps, dm.solve.newton_steps) == (0, 7)
    assert dm.energy == pytest.approx(-0.025170640086422558, rel=1e-13)


def _reference_step(prob, psi, dt):
    """The step as first written: lam and V + q' evaluated afresh, the
    system assembled into a 3 x n banded array and solved by scipy's
    ``solve_banded``, which refuses non-finite input and a singular system."""
    from scipy.linalg import solve_banded
    y = psi**2
    dq = prob.local(y)[1]
    lam = (float(psi @ prob._apply_A(psi))
           + float(np.sum(prob.w * (prob.V + dq) * y))) / prob.mass
    dV = prob.V + dq - lam
    banded = np.zeros((3, len(psi)))
    banded[1, :] = 1.0 + dt * (prob._diag / prob.w + dV)
    banded[0, 1:] = dt * prob._off / prob.w[:-1]
    banded[2, :-1] = dt * prob._off / prob.w[1:]
    try:
        return prob.normalize(solve_banded((1, 1), banded, psi))
    except (np.linalg.LinAlgError, ValueError):
        return None


class _Captured(Exception):
    pass


def _nested_input(monkeypatch, solve):
    """The (build, n, start, what) that ``solve`` hands to
    ``minimize_nested``."""
    seen = []

    def capture(build, n, start, what):
        seen.append((build, n, start, what))
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(flows, "minimize_nested", capture)
        with pytest.raises(_Captured):
            solve()
    return seen[0]


def _flow_input(monkeypatch, solve):
    """The n-grid FlowProblem of ``solve`` and its normalized single-grid
    start vector."""
    build, n, start, _ = _nested_input(monkeypatch, solve)
    prob = build(n)
    return prob, prob.normalize(np.array(start(prob), dtype=float))


@pytest.mark.parametrize("case", ["gp_2d_cell", "gp_3d_u", "full_1d", "dyson"])
def test_step_equals_the_banded_reference(case, monkeypatch):
    solve = {
        "gp_2d_cell": lambda: meanfield.gp_minimize(
            meanfield.GPProblem(2, 5.0, 0.1, n_grid=512)),
        "gp_3d_u": lambda: meanfield.gp_minimize(
            meanfield.GPProblem(3, 100.0, 0.01, n_grid=1024)),
        "full_1d": lambda: onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0),
        "dyson": lambda: charged._dyson_flow(1.0, 1024, 60.0),
    }[case]
    prob, start = _flow_input(monkeypatch, solve)
    # the start and the minimizer; dt over the descent's range (up to 1e4
    # over the energy scale) and far beyond it, where M is nearly singular
    for psi in (start, flows.minimize_flow(prob, start).psi):
        e, terms = prob.evaluate(psi)
        scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
        for dt in (1e-2, 1.0, 1e4, 1e6, 1e9, 1e12):
            new = flows._implicit_step(prob, psi, terms, dt / scale)
            ref = _reference_step(prob, psi, dt / scale)
            assert ref is not None
            assert new.tobytes() == ref.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_step_refuses_nonfinite_and_singular_systems():
    bad_v = line_problem(4.0, 64, 1.0,
                               lambda z: np.where(z > 3.5, np.inf, z**2),
                               _free, 1.0)
    psi = bad_v.normalize(np.ones(64))
    assert flows._implicit_step(bad_v, psi, bad_v.evaluate(psi)[1], 0.1) is None
    assert _reference_step(bad_v, psi, 0.1) is None

    prob = line_problem(4.0, 64, 1.0, lambda z: z**2, _free, 1.0)
    good = prob.normalize(np.ones(64))
    for value in (np.nan, np.inf):
        psi = good.copy()
        psi[10] = value
        assert flows._implicit_step(prob, psi, prob.evaluate(good)[1], 0.1) is None
        assert _reference_step(prob, psi, 0.1) is None

    # no kinetic term and lam = mean(V) = 1 exactly: M = I + (V - lam) has
    # a zero first entry
    singular = flows.FlowProblem(np.arange(3.0), np.ones(3), 0.0, np.ones(4),
                                 np.array([0.0, 1.0, 2.0]), _free, 3.0)
    psi = np.ones(3)
    terms = singular.evaluate(psi)[1]
    assert terms[2] == 1.0
    assert flows._implicit_step(singular, psi, terms, 1.0) is None
    assert _reference_step(singular, psi, 1.0) is None


def test_solve_refuses_nonfinite_input_and_a_singular_matrix():
    prob = line_problem(4.0, 16, 1.0, lambda z: z**2, _free, 1.0)
    d = 1.0 + prob._diag_w
    rhs = np.ones(16)
    # gtsv overwrites the diagonal it is given, not the right-hand side
    assert flows._solve(prob, d.copy(), rhs, 0.1) is not None
    assert np.array_equal(rhs, np.ones(16))
    for value in (np.nan, np.inf, -np.inf):
        bad = d.copy()
        bad[3] = value
        assert flows._solve(prob, bad, rhs, 0.1) is None
        bad = np.ones((16, 2), order="F")
        bad[5, 1] = value
        assert flows._solve(prob, d, bad) is None
    # no kinetic term: the matrix is diag(d), singular at a zero entry
    flat = flows.FlowProblem(np.arange(3.0), np.ones(3), 0.0, np.ones(4),
                             np.zeros(3), _free, 3.0)
    assert flows._solve(flat, np.array([1.0, 0.0, 2.0]), np.ones(3)) is None


# --- the dgtsv replica against LAPACK's ---------------------------------------

def _lapack_gtsv(dl, d, du, b):
    """scipy's ``dgtsv`` on copies: the solution, None where info > 0."""
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())
    return None if info > 0 else x


def _replica_gtsv(dl, d, du, b):
    """``flows._gtsv`` on the same system, as ``flows._solve`` calls it."""
    cols = [b.tolist()] if b.ndim == 1 else b.T.tolist()
    if not flows._gtsv(dl.tolist(), d.tolist(), du.tolist(), cols):
        return None
    return np.array(cols[0]) if b.ndim == 1 else np.array(cols).T


def _tridiagonal(rng, n, interchanges):
    """(dl, d, du) with the diagonal scaled by 0.1..10.  Without
    interchanges |d| >= 2 s > |dl|, |du| (s the scale), so every pivot stays
    above s and partial pivoting never swaps rows; with them the
    off-diagonals are ~10x the diagonal."""
    s = rng.uniform(0.1, 10.0)
    if interchanges:
        return (10.0 * s * rng.normal(size=n - 1), s * rng.normal(size=n),
                10.0 * s * rng.normal(size=n - 1))
    sign = rng.choice([-1.0, 1.0], size=n)
    return (s * rng.uniform(-1.0, 1.0, n - 1),
            sign * s * rng.uniform(2.0, 3.0, n),
            s * rng.uniform(-1.0, 1.0, n - 1))


@pytest.mark.parametrize("interchanges", [False, True])
def test_gtsv_replica_is_lapacks_dgtsv(interchanges):
    # bit for bit, so both routes of flows._solve give every flow the same
    # iterates; this would fail against a LAPACK built with fused
    # multiply-adds, whose products are not rounded before the subtraction
    rng = np.random.default_rng(43 + interchanges)
    for n in range(2, 301):
        for k in (1, 2):
            dl, d, du = _tridiagonal(rng, n, interchanges)
            b = rng.normal(size=n) if k == 1 \
                else np.asfortranarray(rng.normal(size=(n, 2)))
            ref = _lapack_gtsv(dl, d, du, b)
            got = _replica_gtsv(dl, d, du, b)
            assert ref is not None and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
            assert got.flags.f_contiguous == ref.flags.f_contiguous


def test_gtsv_replica_fails_where_lapack_reports_a_zero_pivot():
    rng = np.random.default_rng(4)
    for n in range(2, 301, 7):
        for interchanges in (False, True):
            for k in (1, 2):
                b = rng.normal(size=n) if k == 1 \
                    else np.asfortranarray(rng.normal(size=(n, 2)))
                # row j's pivot is an exact zero once d[j], dl[j] and
                # du[j-1] are (elimination of row j-1 leaves +-0 there);
                # a zero d[j] alone is swapped away when dl[j] != 0
                for j in sorted({0, n // 2, n - 1}):
                    for zero_row in (False, True):
                        dl, d, du = _tridiagonal(rng, n, interchanges)
                        d[j] = 0.0
                        if zero_row:
                            if j < n - 1:
                                dl[j] = 0.0
                            if j > 0:
                                du[j - 1] = 0.0
                        ref = _lapack_gtsv(dl, d, du, b)
                        got = _replica_gtsv(dl, d, du, b)
                        assert (ref is None) == zero_row
                        if zero_row:
                            assert got is None
                        else:
                            assert got.tobytes() == ref.tobytes()


def _cascade_bytes(monkeypatch, solved):
    """Every grid's FlowResult, the energy and the Solve record of one GP
    cascade, as exact reprs, with the solved-rows counter set to
    ``solved`` first; and the counter after it."""
    results = []
    run = flows.minimize_flow

    def recording(prob, psi0):
        results.append(run(prob, psi0))
        return results[-1]

    with monkeypatch.context() as patch:
        patch.setattr(flows, "minimize_flow", recording)
        patch.setattr(flows, "_rows_solved", solved)
        _, rep = meanfield.gp_minimize(meanfield.GPProblem(3, 100.0, 0.01,
                                                           n_grid=4096))
        after = flows._rows_solved
    flat = [(r.psi.tobytes(), repr(dataclasses.astuple(
        dataclasses.replace(r, psi=None)))) for r in results]
    return (flat, repr(rep.E_total), repr(rep.solve)), after


def test_cascade_is_the_same_either_side_of_the_scipy_switch(monkeypatch):
    limit = flows._SCIPY_AFTER
    replica, after = _cascade_bytes(monkeypatch, 0)
    rows = after
    assert 0 < rows <= limit
    # the switch in the middle of the cascade, and scipy's dgtsv throughout
    across, after = _cascade_bytes(monkeypatch, limit - rows // 2)
    assert after == limit + rows - rows // 2
    lapack, _ = _cascade_bytes(monkeypatch, limit + 1)
    assert replica == across == lapack


@pytest.mark.parametrize("w", [np.array([1.0, 0.0, 1.0]),
                               np.array([1.0, 1e-320, 1.0]),
                               np.array([1.0, np.nan, 1.0])])
def test_nonfinite_off_diagonal_is_refused_when_built(w):
    # W^-1 A has off-diagonals -kin ew_i / w_j: a zero, denormal or NaN
    # weight makes one of them infinite or NaN
    with pytest.raises(ValueError, match="not finite"):
        flows.FlowProblem(np.arange(3.0), w, 1.0, np.ones(4), np.zeros(3),
                          _free, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        flows.FlowProblem(np.arange(3.0), np.ones(3), 1.0,
                          np.array([1.0, np.inf, 1.0, 1.0]), np.zeros(3),
                          _free, 1.0)


_PROBLEMS = {
    "gp_2d": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(2, 5.0, 0.1, n_grid=512)),
    "gp_3d": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(3, 100.0, 0.01, n_grid=1024)),
    "gp1d": lambda: onedim.minimize_1d("gp1d", 5.0, 1.0, 2.0, 3.0),
    "full": lambda: onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0),
    "dyson": lambda: charged._dyson_flow(1.0, 1024, 60.0),
}


def _reference_terms(prob, psi):
    """(A psi, g = V + q'(psi^2), lam, q''(psi^2)) at ``psi``, each from
    its definition, with ``local`` called for q' and q'' alone."""
    y = psi**2
    Apsi = prob._apply_A(psi)
    g = prob.V + prob.local(y)[1]
    lam = (float(psi @ Apsi) + float((prob.w * g * y).sum())) / prob.mass
    return Apsi, g, lam, prob.local(y)[2]


@pytest.mark.parametrize("case", sorted(_PROBLEMS))
def test_evaluate_is_energy_and_terms(case, monkeypatch):
    # one call of ``local`` gives the energy, the Euler-Lagrange terms and
    # q'' as each is defined apart, bit for bit: at the start, at a descent
    # iterate and at the minimizer
    prob, start = _flow_input(monkeypatch, _PROBLEMS[case])
    e0, terms0 = prob.evaluate(start)
    step = flows._implicit_step(prob, start, terms0, 1.0 / abs(terms0[2]))
    for psi in (start, step, flows.minimize_flow(prob, start).psi):
        e, (Apsi, g, lam, d2q) = prob.evaluate(psi)
        ref_Apsi, ref_g, ref_lam, ref_d2q = _reference_terms(prob, psi)
        assert e == sum(prob.energy_parts(psi))
        assert Apsi.tobytes() == ref_Apsi.tobytes()
        assert g.tobytes() == ref_g.tobytes()
        assert lam == ref_lam
        assert np.asarray(d2q).tobytes() == np.asarray(ref_d2q).tobytes()


def test_fall_through_exit_uses_the_loop_scale(monkeypatch):
    # V shifted by -mu puts the chemical potential at ~0 while |E|/N stays
    # O(1); with every step refused the flow leaves through the exit after
    # the loop, which must judge the residual on the loop's scale
    base = line_problem(8.0, 256, 1.0, lambda z: z**2, _quartic, 10.0)
    with monkeypatch.context() as patch:
        patch.setattr(flows, "_RTOL", 1e-11)
        ground = flows.minimize_flow(base, _gaussian_start(base))
    assert ground.converged
    shifted = line_problem(8.0, 256, 1.0,
                                 lambda z: z**2 - ground.mu_chem, _quartic,
                                 10.0)
    monkeypatch.setattr(flows, "_MAX_ITER", 3)
    monkeypatch.setattr(flows, "_implicit_step", lambda *args: None)
    res = flows.minimize_flow(shifted, psi0=ground.psi)
    assert (res.iterations, res.rejected_steps, res.newton_steps) == (3, 3, 0)
    assert np.array_equal(res.psi, shifted.normalize(ground.psi))
    scale = max(abs(res.mu_chem), abs(res.energy) / shifted.mass, 1e-12)
    assert res.residual <= 1e-9 * scale
    # on |mu| alone the same iterate would count as unconverged
    assert res.residual > 1e-9 * max(abs(res.mu_chem), 1e-12)
    assert res.converged


# --- the flow with its inverse-iteration endgame, kept as the reference ------

_REF_MAX_ITER = 40000
_REF_MAX_POLISH_ROUNDS = 400


def _reference_minimize_flow(prob, psi, rtol):
    """The descent as it was before the Newton endgame: run until the
    energy is stationary, then polish by shifted inverse iteration.
    ``psi`` is normalized.  Returns (energy, residual, iterations,
    converged)."""
    e, terms = prob.evaluate(psi)
    scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
    dt = 1.0 / scale
    stagnant = 0
    for it in range(1, _REF_MAX_ITER + 1):
        trial = flows._implicit_step(prob, psi, terms, dt)
        e_new = math.nan if trial is None else prob.evaluate(trial)[0]
        if not np.isfinite(e_new) or e_new > e + 1e-14 * max(1.0, abs(e)):
            dt *= 0.5
            if dt < 1e-18 / scale:
                break
            continue
        de = abs(e_new - e)
        psi, e = trial, e_new
        terms = prob.evaluate(psi)[1]
        dt = min(dt * 1.1, 1e4 / scale)
        stagnant = stagnant + 1 if de <= 1e-12 * max(1.0, abs(e)) else 0
        if stagnant >= 1:
            res = prob.residual(psi, terms)
            scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
            if res <= rtol * scale:
                return e, res, it, True
            if stagnant >= 25 or res <= 1e4 * rtol * scale:
                psi, terms, res, extra = _reference_polish(prob, psi, terms,
                                                           res, rtol, scale)
                return prob.evaluate(psi)[0], res, it + extra, res <= rtol * scale
    res = prob.residual(psi, terms)
    scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
    return e, res, it, res <= rtol * scale


def _reference_polish(prob, psi, terms, res, rtol, scale):
    """Shifted inverse iteration: the backward-Euler step with a large dt,
    kept only when the residual drops."""
    dt = 1e6 / scale
    for rounds in range(1, _REF_MAX_POLISH_ROUNDS + 1):
        if res <= rtol * scale:
            break
        trial = flows._implicit_step(prob, psi, terms, dt)
        if trial is None:
            dt *= 0.1
            continue
        trial_terms = prob.evaluate(trial)[1]
        res_new = prob.residual(trial, trial_terms)
        if np.isfinite(res_new) and res_new < res:
            psi, terms, res = trial, trial_terms, res_new
            dt = min(dt * 2.0, 1e12 / scale)
        else:
            dt *= 0.1
            if dt < 1e-6 / scale:
                break
    return psi, terms, res, rounds


_S3 = meanfield.TrapPotential("homogeneous_power", 3.0)
_BOX = meanfield.TrapPotential("box", side=4.0)

# solves on which both the flow and the reference converge
_CORPUS = {
    "gp_2d_harmonic_weak": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(2, 5.0, 0.1, n_grid=1024)),
    "gp_2d_harmonic_tf_start": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(2, 200.0, 0.5, n_grid=2048)),
    "gp_3d_harmonic": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(3, 100.0, 0.01, n_grid=1024)),
    "gp_3d_harmonic_tf_start": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(3, 30.0, 10.0, n_grid=2048)),
    "gp_2d_s3": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(2, 20.0, 0.05, trap=_S3, n_grid=1024)),
    "gp_3d_s3": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(3, 50.0, 1.0, trap=_S3, n_grid=2048)),
    "gp_2d_box": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(2, 5.0, 0.1, trap=_BOX, n_grid=1024)),
    "gp_3d_box": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(3, 50.0, 0.001, trap=_BOX, n_grid=1024)),
    "full_weak": lambda: onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0),
    "full_strong": lambda: onedim.minimize_1d("full", 10.0, 2.0, 8.0, 2.0),
    "gp1d": lambda: onedim.minimize_1d("gp1d", 30.0, 5.0, 0.5, 2.0),
    "gp1d_s3": lambda: onedim.minimize_1d("gp1d", 5.0, 1.0, 2.0, 3.0),
    "dyson": lambda: charged._dyson_flow(1.0, 1024, 60.0),
    "dyson_mu2": lambda: charged._dyson_flow(2.0, 2048, 40.0),
}


@pytest.mark.parametrize("case", sorted(_CORPUS))
def test_energies_match_the_polish_reference(case, monkeypatch):
    prob, start = _flow_input(monkeypatch, _CORPUS[case])
    new = flows.minimize_flow(prob, start)
    assert new.converged
    e_ref, _, _, converged_ref = _reference_minimize_flow(prob, start,
                                                          flows._RTOL)
    assert converged_ref
    assert new.energy == pytest.approx(e_ref, rel=1e-12)


def _central_difference(local, y, rel=1e-5):
    """Central differences of q' = ``local(y)[1]``."""
    h = rel * y
    return (local(y + h)[1] - local(y - h)[1]) / (2.0 * h)


@pytest.mark.parametrize("case", ["gp_2d_cell", "gp_3d_u", "gp1d", "full", "dyson"])
def test_d2q_matches_central_differences_of_dq(case, monkeypatch):
    monkeypatch.setattr(onedim, "_N_GRID_1D", 512)
    solve = {
        "gp_2d_cell": lambda: meanfield.gp_minimize(
            meanfield.GPProblem(2, 5.0, 0.1, n_grid=512)),
        "gp_3d_u": lambda: meanfield.gp_minimize(
            meanfield.GPProblem(3, 100.0, 0.01, n_grid=512)),
        "gp1d": lambda: onedim.minimize_1d("gp1d", 30.0, 5.0, 0.5, 2.0),
        "full": lambda: onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0),
        "dyson": lambda: charged._dyson_flow(1.0, 512, 60.0),
    }[case]
    prob, start = _flow_input(monkeypatch, solve)
    y = start**2
    keep = y > 1e-8 * y.max()
    y = y[keep]
    np.testing.assert_allclose(prob.local(y)[2],
                               _central_difference(prob.local, y),
                               rtol=1e-7, atol=0.0)


def test_full_d2q_across_the_table_ends(monkeypatch, ll_curve):
    # rho = g / t on both sides of t_min and t_max, at midpoints between
    # table nodes in log t (e'' jumps at the nodes, the Hermite cubic being
    # C1)
    monkeypatch.setattr(onedim, "_N_GRID_1D", 512)
    prob, _ = _flow_input(monkeypatch, lambda: onedim.minimize_1d(
        "full", 30.0, 5.0, 0.5, 2.0))
    g = 0.5
    x = np.log(ll_curve.nodes_t)
    inner = np.exp(0.5 * (x[:-1] + x[1:]))
    t = np.concatenate((ll_curve.t_min * np.array([0.2, 0.5, 0.9]), inner[:3],
                        inner[-3:], ll_curve.t_max * np.array([1.1, 2.0, 5.0])))
    y = g / t
    np.testing.assert_allclose(prob.local(y)[2],
                               _central_difference(prob.local, y, 1e-6),
                               rtol=1e-6, atol=0.0)
    assert prob.local(np.zeros(1))[2] == 0.0


def test_full_reads_the_table_once_per_evaluation(monkeypatch):
    # q'' comes with the evaluation of the iterate: a Newton step reads it
    # from the terms and looks nothing up in the e(t) table
    calls = {"derivatives": 0, "evaluate": 0, "newton": 0}
    lookup, evaluate, newton = (onedim.LLCurve.derivatives,
                                flows.FlowProblem.evaluate, flows._newton_step)

    def counting(name, method):
        def wrapped(*args):
            calls[name] += 1
            return method(*args)
        return wrapped

    def newton_step(*args):
        before = calls["derivatives"]
        out = counting("newton", newton)(*args)
        assert calls["derivatives"] == before
        return out

    monkeypatch.setattr(onedim.LLCurve, "derivatives", counting("derivatives", lookup))
    monkeypatch.setattr(flows.FlowProblem, "evaluate", counting("evaluate", evaluate))
    monkeypatch.setattr(flows, "_newton_step", newton_step)
    onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0)
    assert calls["newton"] > 0
    assert calls["derivatives"] == calls["evaluate"]


def test_newton_stall_hands_back_to_the_descent(monkeypatch):
    # every Newton step refused: the descent takes over again, hands off at
    # 1e-4 and then 1e-6 times the scale, and the third stall is final
    prob = line_problem(8.0, 256, 1.0, lambda z: z**2, _quartic, 10.0)
    seen = []

    def refuse(prob, psi, terms):
        seen.append(prob.residual(psi, terms)
                    / max(abs(terms[2]), abs(prob.evaluate(psi)[0]) / prob.mass))
        return None

    monkeypatch.setattr(flows, "_newton_step", refuse)
    res = flows.minimize_flow(prob, _gaussian_start(prob))
    assert not res.converged
    assert res.newton_steps == 3
    assert len(seen) == 3
    assert seen[0] <= 1e-2 and seen[1] <= 1e-4 and seen[2] <= 1e-6
    assert res.iterations > res.newton_steps


def test_newton_converges_on_a_linear_problem():
    # no interaction: the Newton matrix W^-1 A + V - lam is singular at the
    # ground state, and the bordered step must still converge
    prob = line_problem(8.0, 512, 1.0, lambda z: z**2, _free, 1.0)
    res = flows.minimize_flow(prob, _gaussian_start(prob))
    assert res.converged and res.newton_steps >= 1
    # the oscillator ground state: -psi'' + z^2 psi = psi
    assert res.mu_chem == pytest.approx(1.0, rel=1e-4)
    assert res.energy == pytest.approx(res.mu_chem, rel=1e-12)


# --- the cascade against the single-grid solve it replaced -------------------

def _single_grid(build, n, start, what):
    """The solve before ``minimize_nested``: the n grid alone, from the
    caller's start."""
    prob = build(n)
    return flows.minimize_flow(prob, start(prob))


_GP_TRAPS = {"harmonic": meanfield.TrapPotential(), "s3": _S3}


@pytest.mark.parametrize("n", [1024, 2048, 4096, 8192])
@pytest.mark.parametrize("trap", sorted(_GP_TRAPS))
@pytest.mark.parametrize("dim", [2, 3])
def test_cascade_matches_the_single_grid_gp(dim, trap, n, monkeypatch):
    # N c = 1 starts from the Gaussian-like default, N c = 30 from TF
    for N, c in ((50.0, 0.02), (50.0, 0.6)):
        solve = lambda: meanfield.gp_minimize(
            meanfield.GPProblem(dim, N, c, trap=_GP_TRAPS[trap], n_grid=n))
        ref = _single_grid(*_nested_input(monkeypatch, solve))
        _, rep = solve()
        assert ref.converged
        assert rep.E_total == pytest.approx(ref.energy, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("case", ["full", "gp1d", "dyson"])
def test_cascade_matches_the_single_grid(case, monkeypatch):
    solve = {
        "full": lambda: onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0),
        "gp1d": lambda: onedim.minimize_1d("gp1d", 5.0, 1.0, 2.0, 3.0),
        "dyson": lambda: charged._dyson_flow(1.0, 2048, 60.0),
    }[case]
    ref = _single_grid(*_nested_input(monkeypatch, solve))
    energy = solve().energy if case == "dyson" else solve()[1]
    assert ref.converged
    assert energy == pytest.approx(ref.energy, rel=1e-14, abs=0.0)


def test_cascade_sums_counters_over_its_grids(monkeypatch):
    results = []
    run = flows.minimize_flow

    def recording(prob, psi0):
        results.append(run(prob, psi0))
        return results[-1]

    monkeypatch.setattr(flows, "minimize_flow", recording)
    solve = lambda: meanfield.gp_minimize(meanfield.GPProblem(2, 5.0, 0.1,
                                                              n_grid=2048))
    _, rep = solve()
    assert [len(r.psi) for r in results] == [256, 512, 1024, 2048]
    for key in ("iterations", "rejected_steps", "newton_steps"):
        assert getattr(rep.solve, key) == sum(getattr(r, key) for r in results)
    assert rep.E_total == results[-1].energy
    assert rep.solve.E_coarse == results[-2].energy
    assert rep.solve.E_discretization_error \
        == (results[-1].energy - results[-2].energy) / 3.0
    # every grid's FlowResult is returned, coarsest first, with its own
    # counters, next to the problem it solved
    results.clear()
    grids, record = flows.minimize_nested(*_nested_input(monkeypatch, solve))
    assert record == rep.solve and len(grids) == len(results)
    assert all(res is ref for (_, res), ref in zip(grids, results))
    assert [len(fp.nodes) for fp, _ in grids] == [256, 512, 1024, 2048]
    assert grids[-1][1].iterations < record.iterations


def test_only_the_n_grid_decides_convergence(monkeypatch):
    # a coarse grid that does not converge hands its iterate on, and the
    # estimate that reads it is withheld
    run = flows.minimize_flow

    def coarse_fails(prob, psi0):
        res = run(prob, psi0)
        return res if len(prob.nodes) == 1024 else \
            dataclasses.replace(res, converged=False)

    monkeypatch.setattr(flows, "minimize_flow", coarse_fails)
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(2, 5.0, 0.1,
                                                       n_grid=1024))
    assert rep.solve.E_discretization_error is None
    assert "did not converge" in rep.solve.discretization_note

    monkeypatch.setattr(flows, "minimize_flow", lambda prob, psi0: dataclasses.replace(
        run(prob, psi0), converged=len(prob.nodes) != 1024))
    with pytest.raises(RuntimeError, match="did not converge"):
        meanfield.gp_minimize(meanfield.GPProblem(2, 5.0, 0.1, n_grid=1024))


_UNCONVERGED = {
    "GP minimization": lambda: meanfield.gp_minimize(
        meanfield.GPProblem(2, 5.0, 0.1, n_grid=1024)),
    "1D minimization (gp1d)": lambda: onedim.minimize_1d("gp1d", 5.0, 1.0, 2.0),
    "two-component minimization": lambda: charged.dyson_functional_minimize(1.0),
    f"transverse mode (harmonic, n = {2 * onedim._MODE_FD_GRID})":
        lambda: onedim.transverse_mode_numeric("harmonic"),
}


@pytest.mark.parametrize("what", sorted(_UNCONVERGED))
def test_nonconvergence_names_the_residual_and_iterations(what, monkeypatch):
    results = []
    run = flows.minimize_flow

    def unconverged(prob, psi0):
        results.append(dataclasses.replace(run(prob, psi0), converged=False))
        return results[-1]

    monkeypatch.setattr(flows, "minimize_flow", unconverged)
    with pytest.raises(RuntimeError) as err:
        _UNCONVERGED[what]()
    assert str(err.value) == (
        f"{what} did not converge (residual {results[-1].residual:.3e} "
        f"after {sum(r.iterations for r in results)} iterations)")


def test_cascade_grid_sizes():
    sizes = []

    def build(m):
        sizes.append(m)
        return line_problem(8.0, m, 1.0, lambda z: z**2, _free, 1.0)

    for n, expect in ((300, [300]), (511, [511]), (512, [256, 512]),
                      (1000, [500, 1000]), (1025, [256, 512, 1025]),
                      (2048, [256, 512, 1024, 2048])):
        sizes.clear()
        grids, disc = flows.minimize_nested(build, n, _gaussian_start,
                                            "line problem")
        assert sizes == expect and len(grids[-1][1].psi) == n
        assert [len(fp.nodes) for fp, _ in grids] == expect
        assert (disc.E_coarse is None) == (len(expect) == 1)
        assert (disc.E_discretization_error is None) == (len(expect) < 3)
        assert (disc.discretization_note is None) == (len(expect) >= 3)


_BUILDERS = {
    "sphere_problem": flows.sphere_problem,
    "radial_u_problem": radial_u_problem,
    "radial_cell_problem": functools.partial(flows.cell_problem, 2),
    "half_line_problem": functools.partial(flows.cell_problem, 1),
    "line_problem": line_problem,
}


@pytest.mark.parametrize("make,dirichlet_at_0", [
    ("sphere_problem", False), ("radial_u_problem", True),
    ("radial_cell_problem", False),
    ("half_line_problem", False), ("line_problem", True)])
def test_prolongation_pads_the_dirichlet_ghosts(make, dirichlet_at_0):
    coarse, fine = (_BUILDERS[make](4.0, m, 1.0, lambda r: r**2, _free, 1.0)
                    for m in (64, 128))
    x = coarse.nodes
    left = fine.nodes < x[0]
    right = fine.nodes > x[-1]
    assert left.any() and right.any()
    out = flows._prolong(coarse, np.ones(64), fine)
    assert np.all(out[~(left | right)] == 1.0)
    # toward the zero ghost one spacing out, or held at a no-flux end
    assert np.all(out[right] < 1.0)
    assert np.all(out[left] < 1.0) if dirichlet_at_0 else np.all(out[left] == 1.0)
    # data linear up to the ghost is reproduced beyond the coarse nodes
    ghost = x[-1] + (x[-1] - x[-2])
    np.testing.assert_allclose(flows._prolong(coarse, ghost - x, fine)[right],
                               ghost - fine.nodes[right], rtol=1e-12)


# --- the 3D grid in phi against the u = r phi grid ----------------------------

@pytest.mark.parametrize("n", [16, 257, 4096])
def test_sphere_problem_is_the_u_grid_at_a_fixed_state(n, rng):
    g4 = 4.0 * math.pi * 0.7
    local = lambda y: (g4 * y**2, 2.0 * g4 * y, 2.0 * g4)
    sphere, ref = (make(6.0, n, 1.3, lambda r: r**2, local, 5.0)
                   for make in (flows.sphere_problem, radial_u_problem))
    r = sphere.nodes
    assert r.tobytes() == ref.nodes.tobytes()
    phi = rng.uniform(0.1, 1.0, n)
    u = r * phi
    e, terms = sphere.evaluate(phi)
    e_u, terms_u = ref.evaluate(u)
    assert e == pytest.approx(e_u, rel=1e-15, abs=0.0)
    assert terms[2] == pytest.approx(terms_u[2], rel=1e-13, abs=0.0)
    defect, defect_u = sphere.defect(phi, terms), ref.defect(u, terms_u) / r
    np.testing.assert_allclose(defect, defect_u, rtol=1e-13,
                               atol=1e-13 * np.abs(defect_u).max())


def _u_grid_solve(monkeypatch, solve):
    """``solve`` on the u = r phi grid: its ``minimize_nested`` with
    ``radial_u_problem`` in place of ``flows.sphere_problem`` and the
    caller's start times r.  Returns (problem, result, estimate)."""
    build, n, start, what = _nested_input(monkeypatch, solve)
    with monkeypatch.context() as patch:
        patch.setattr(flows, "sphere_problem", radial_u_problem)
        grids, disc = flows.minimize_nested(
            build, n, lambda fp: start(fp) * fp.nodes, what)
    return (*grids[-1], disc)


_TRAP_KINDS = dict(_GP_TRAPS, box=_BOX)


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("trap, Nc", [("harmonic", 1.0), ("harmonic", 1e3),
                                      ("s3", 30.0), ("box", 0.01),
                                      ("box", 30.0)])
def test_sphere_problem_matches_the_u_grid_gp(trap, Nc, n, monkeypatch):
    solve = lambda: meanfield.gp_minimize(meanfield.GPProblem(
        3, 50.0, Nc / 50.0, trap=_TRAP_KINDS[trap], n_grid=n))
    fp, ref, disc = _u_grid_solve(monkeypatch, solve)
    assert ref.converged
    prof, rep = solve()
    assert rep.E_total == pytest.approx(ref.energy, rel=2e-15, abs=0.0)
    assert rep.solve.E_coarse == pytest.approx(disc.E_coarse,
                                               rel=2e-15, abs=0.0)
    np.testing.assert_allclose(prof.phi, np.abs(ref.psi) / fp.nodes, rtol=0.0,
                               atol=1e-8 * prof.phi.max())


def test_sphere_problem_matches_the_u_grid_dyson(monkeypatch):
    solve = lambda: charged._dyson_flow(1.0, 1024, 60.0)
    fp, ref, disc = _u_grid_solve(monkeypatch, solve)
    assert ref.converged
    dm = solve()
    assert dm.energy == pytest.approx(ref.energy, rel=2e-15, abs=0.0)
    assert dm.solve.E_coarse == pytest.approx(disc.E_coarse,
                                              rel=2e-15, abs=0.0)
    np.testing.assert_allclose(dm.Phi, np.abs(ref.psi) / fp.nodes, rtol=0.0,
                               atol=1e-8 * dm.Phi.max())


# --- one cell builder for d = 1 and 2 ----------------------------------------

def _radial_cell_reference(rmax, n, mu, V, local, mass):
    """The 2D radial cell grid as it was built before ``flows.cell_problem``
    served d = 1 as well."""
    h = rmax / (n + 0.5)
    r = h * (np.arange(n) + 0.5)
    omega = 2.0 * math.pi
    w = omega * r * h
    edges = h * np.arange(n + 1)
    ew = edges / h
    ew[0] = 0.0
    return flows.FlowProblem(r, w, omega * mu, ew, np.asarray(V(r), dtype=float),
                             local, mass)


@pytest.mark.parametrize("rmax, n, mu", [(4.0, 64, 1.0), (37.3, 2048, 0.31),
                                         (1e3, 1000, 7.0)])
def test_cell_problem_in_2d_is_the_radial_cell_grid(rmax, n, mu):
    new = flows.cell_problem(2, rmax, n, mu, lambda r: r**2, _free, 2.0)
    ref = _radial_cell_reference(rmax, n, mu, lambda r: r**2, _free, 2.0)
    assert new.kin == ref.kin
    for key in ("nodes", "w", "ew", "V", "_diag", "_off", "_diag_w"):
        assert getattr(new, key).tobytes() == getattr(ref, key).tobytes(), key


@pytest.mark.parametrize("zmax, n", [(4.0, 64), (31.7, 1024)])
def test_half_line_is_the_even_line_problem(zmax, n):
    # the nodes z > 0 of the 2n-node line, the same h, and on an even psi
    # the same energy and Euler-Lagrange terms
    half = flows.cell_problem(1, zmax, n, 1.0, lambda z: z**2, _quartic, 3.0)
    line = line_problem(zmax, 2 * n, 1.0, lambda z: z**2, _quartic, 3.0)
    np.testing.assert_allclose(half.nodes, line.nodes[n:], rtol=1e-14,
                               atol=1e-14 * zmax)
    np.testing.assert_allclose(-half.nodes[::-1], line.nodes[:n], rtol=1e-14,
                               atol=1e-14 * zmax)
    assert half.w[0] == 2.0 * line.w[0]
    psi = np.exp(-half.nodes**2 / 4.0) * (1.0 + 0.3 * np.cos(half.nodes))
    psi_line = np.concatenate((psi[::-1], psi))
    (e, (Apsi, g, lam, _)), (e_l, (Apsi_l, g_l, lam_l, _)) = \
        half.evaluate(psi), line.evaluate(psi_line)
    assert e == pytest.approx(e_l, rel=1e-14)
    assert half.normalize(psi) == pytest.approx(
        line.normalize(psi_line)[n:], rel=1e-14)
    assert lam == pytest.approx(lam_l, rel=1e-14)
    kinetic = (Apsi_l / line.w)[n:]
    np.testing.assert_allclose(Apsi / half.w, kinetic, rtol=1e-12,
                               atol=1e-13 * np.abs(kinetic).max())
    np.testing.assert_allclose(g, g_l[n:], rtol=1e-13)


def _full_line_solve(monkeypatch, kind, N, L, g, s):
    """``kind`` on the symmetric full line, as the 1D kinds solved before
    the half line: ``minimize_nested`` on ``line_problem`` with twice the
    nodes, from the same start.  Returns (problem, result, estimate)."""
    build, n, start, what = _nested_input(
        monkeypatch, lambda: onedim.minimize_1d(kind, N, L, g, s))
    half = build(n)
    zmax = onedim._zmax_gradient(kind, N, L, g, s)
    grids, disc = flows.minimize_nested(
        lambda m: line_problem(zmax, m, 1.0, lambda z: onedim._v_long(z, L, s),
                               half.local, N), 2 * n, start, what)
    return (*grids[-1], disc)


def _split_note(note):
    """(the note with its three-grid ratio left out, the ratio), or (note,
    None) for a note without one."""
    head, sep, tail = (note or "").partition("three-grid ratio ")
    if not sep:
        return note, None
    ratio, _, rest = tail.partition(" ")
    return head + sep + rest, float(ratio)


@pytest.mark.parametrize("kind", ["full", "gp1d"])
def test_half_line_matches_the_full_line(kind, monkeypatch, half_line_corpus):
    for N, L, g, s in half_line_corpus:
        fp, ref, disc = _full_line_solve(monkeypatch, kind, N, L, g, s)
        assert ref.converged
        prof, energy, rho_bar = onedim.minimize_1d(kind, N, L, g, s)
        new = prof.solve
        assert energy == pytest.approx(ref.energy, rel=1e-13, abs=0.0)
        assert rho_bar == pytest.approx(float(np.sum(fp.w * ref.psi**4)) / N,
                                        rel=1e-13, abs=0.0)
        # the note prints the three-grid ratio in full, and the two routes'
        # ratios, quotients of energy differences, agree to ~1e-10
        note, ratio = _split_note(new.discretization_note)
        assert (note, ratio) == pytest.approx(
            _split_note(disc.discretization_note), rel=1e-8)
        assert new.E_coarse == pytest.approx(disc.E_coarse, rel=1e-13, abs=0.0)
        if disc.E_discretization_error is not None:
            # a difference of two energies: it agrees to 1e-13 of them
            assert new.E_discretization_error == pytest.approx(
                disc.E_discretization_error, rel=0.0, abs=1e-13 * abs(energy))


# --- the error estimate -----------------------------------------------------

@pytest.mark.parametrize("trap", sorted(_GP_TRAPS))
@pytest.mark.parametrize("dim", [2, 3])
def test_energies_converge_at_second_order(dim, trap):
    # (E_n - E_2n) / (E_2n - E_4n) on three grids is 4 at second order
    E = [meanfield.gp_minimize(meanfield.GPProblem(
        dim, 50.0, 0.02, trap=_GP_TRAPS[trap], n_grid=n))[1].E_total
        for n in (1024, 2048, 4096)]
    assert (E[0] - E[1]) / (E[1] - E[2]) == pytest.approx(4.0, rel=0.01)


@pytest.mark.parametrize("trap", sorted(_GP_TRAPS))
@pytest.mark.parametrize("dim", [2, 3])
def test_error_estimate_matches_a_finer_grid(dim, trap):
    # E_inf - E_n = (E_4n - E_n) 16/15 at second order
    reps = [meanfield.gp_minimize(meanfield.GPProblem(
        dim, 50.0, 0.6, trap=_GP_TRAPS[trap], n_grid=n))[1]
        for n in (1024, 4096)]
    est = reps[0].solve.E_discretization_error
    assert reps[0].solve.discretization_note is None
    assert est == pytest.approx((reps[1].E_total - reps[0].E_total) * 16 / 15,
                                rel=0.05)


def test_nonmonotone_energies_withhold_the_estimate():
    # E at n = 512, 1024, 2048 is 987194.73... then 987181.04...: the
    # three-grid ratio is far from 4, so there is no h^2 estimate
    prof, energy, _ = onedim.minimize_1d("full", 1000.0, 1.0, 4000.0, 2.0)
    disc = prof.solve
    assert disc.E_coarse is not None and disc.E_coarse != energy
    assert disc.E_discretization_error is None
    assert "not within 25 % of 4" in disc.discretization_note


@pytest.mark.parametrize("x4, note", [
    (3.0, False), (5.0, False), (4.0, False),
    (math.nextafter(3.0, 0.0), True), (math.nextafter(5.0, math.inf), True)])
def test_order_note_band_edges(x4, note):
    # x2 = 0, x1 = -1: the three-grid ratio is x4 itself, printed in full
    extrapolated, estimate, got = quadrature.richardson([x4, 0.0, -1.0], 2)
    assert (got is not None) == note
    if note:
        assert got == f"three-grid ratio {x4!r} is not within 25 % of 4"
        assert extrapolated is None and estimate is None
    else:
        assert (extrapolated, estimate) == (-1.0 - 1.0 / 3.0, -1.0 / 3.0)


def test_order_note_of_equal_fine_values_is_infinite():
    assert quadrature.richardson([1.0, 2.0, 2.0], 2)[2] \
        == "three-grid ratio inf is not within 25 % of 4"


@pytest.mark.parametrize("order", [1, 2, 4])
def test_richardson_removes_the_leading_power(order):
    # x_h = 1 + h^order on h = 4, 2, 1 (coarsest first, more values before
    # the last three are ignored): the ratio is 2^order exactly, and the
    # extrapolation is the h = 0 value
    values = [7.0] + [1.0 + h**order for h in (4.0, 2.0, 1.0)]
    extrapolated, estimate, note = quadrature.richardson(values, order)
    assert note is None
    assert estimate == -1.0
    assert extrapolated == 1.0
    assert quadrature.richardson(values, order + 1)[2] \
        == f"three-grid ratio {2.0**order!r} is not within 25 % of {2**(order + 1)}"


def test_solve_record_estimate_is_richardsons():
    # the cascade's estimate is (E_n - E_{n/2}) / 3, bit for bit
    rep = meanfield.gp_minimize(meanfield.GPProblem(3, 1.0, 1.0, n_grid=1024))[1]
    assert rep.solve.discretization_note is None
    assert rep.solve.E_discretization_error \
        == (rep.E_total - rep.solve.E_coarse) / 3.0
