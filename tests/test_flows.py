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

Two references are kept here.  The backward-Euler step is checked bit for
bit against its first form, scipy's ``solve_banded`` on a 3 x n banded
layout.  The whole minimization is checked against the flow as it was with
its inverse-iteration endgame (``_reference_minimize_flow``): on a corpus
where both converge, the energies agree to 1e-12 relative.
"""

import math

import numpy as np
import pytest

from bosegas import charged, flows, meanfield, onedim


def test_gp_3d_harmonic_flow_pinned():
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(3, 100.0, 0.01,
                                                       n_grid=4096))
    assert rep.iterations == 34
    assert (rep.rejected_steps, rep.newton_steps) == (0, 2)
    assert rep.E_total == pytest.approx(362.2434068055428, rel=1e-13)


def test_full_1d_flow_pinned(monkeypatch):
    results = []
    run = flows.minimize_flow

    def recording(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flows, "minimize_flow", recording)
    _, energy, _ = onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0)
    assert [r.iterations for r in results] == [34]
    assert [(r.rejected_steps, r.newton_steps) for r in results] == [(0, 3)]
    assert energy == pytest.approx(9.322188962301011, rel=1e-13)


def test_dyson_flow_pinned():
    dm = charged.dyson_functional_minimize(1.0)
    assert dm.iterations == 15
    assert (dm.rejected_steps, dm.newton_steps) == (0, 3)
    assert dm.energy == pytest.approx(-0.025170640086422558, rel=1e-13)


def _reference_step(prob, psi, dt):
    """The step as first written: lam and V + q' evaluated afresh, the
    system assembled into a 3 x n banded array and solved by scipy's
    ``solve_banded``, which refuses non-finite input and a singular system."""
    from scipy.linalg import solve_banded
    y = psi**2
    lam = (float(psi @ prob._apply_A(psi))
           + float(np.sum(prob.w * (prob.V + prob.dq(y, prob.nodes)) * y))) / prob.mass
    dV = prob.V + prob.dq(y, prob.nodes) - lam
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


def _flow_input(monkeypatch, solve):
    """The FlowProblem and normalized start vector ``solve`` hands to the
    flow."""
    seen = []

    def capture(prob, psi0=None):
        seen.append((prob, psi0))
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(flows, "minimize_flow", capture)
        with pytest.raises(_Captured):
            solve()
    prob, psi0 = seen[0]
    if psi0 is None:
        psi0 = np.exp(-np.linspace(0, 4, len(prob.nodes)) ** 2) + 0.05
    return prob, prob.normalize(np.array(psi0, dtype=float))


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
        terms = prob.terms(psi)
        scale = max(abs(terms[2]), abs(prob.energy(psi)) / prob.mass, 1e-12)
        for dt in (1e-2, 1.0, 1e4, 1e6, 1e9, 1e12):
            new = flows._implicit_step(prob, psi, terms, dt / scale)
            ref = _reference_step(prob, psi, dt / scale)
            assert ref is not None
            assert new.tobytes() == ref.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_step_refuses_nonfinite_and_singular_systems():
    zero = lambda y, z: 0.0 * y
    bad_v = flows.line_problem(4.0, 64, 1.0,
                               lambda z: np.where(z > 3.5, np.inf, z**2),
                               zero, zero, zero, 1.0)
    psi = bad_v.normalize(np.ones(64))
    assert flows._implicit_step(bad_v, psi, bad_v.terms(psi), 0.1) is None
    assert _reference_step(bad_v, psi, 0.1) is None

    prob = flows.line_problem(4.0, 64, 1.0, lambda z: z**2, zero, zero, zero,
                              1.0)
    good = prob.normalize(np.ones(64))
    for value in (np.nan, np.inf):
        psi = good.copy()
        psi[10] = value
        assert flows._implicit_step(prob, psi, prob.terms(good), 0.1) is None
        assert _reference_step(prob, psi, 0.1) is None

    # no kinetic term and lam = mean(V) = 1 exactly: M = I + (V - lam) has
    # a zero first entry
    singular = flows.FlowProblem(np.arange(3.0), np.ones(3), 0.0, np.ones(4),
                                 np.array([0.0, 1.0, 2.0]), zero, zero, zero,
                                 3.0)
    psi = np.ones(3)
    assert singular.terms(psi)[2] == 1.0
    assert flows._implicit_step(singular, psi, singular.terms(psi), 1.0) is None
    assert _reference_step(singular, psi, 1.0) is None


def test_fall_through_exit_uses_the_loop_scale(monkeypatch):
    # V shifted by -mu puts the chemical potential at ~0 while |E|/N stays
    # O(1); with every step refused the flow leaves through the exit after
    # the loop, which must judge the residual on the loop's scale
    q = lambda y, z: 0.5 * y**2
    dq = lambda y, z: y
    d2q = lambda y, z: np.ones_like(y)
    base = flows.line_problem(8.0, 256, 1.0, lambda z: z**2, q, dq, d2q, 10.0)
    with monkeypatch.context() as patch:
        patch.setattr(flows, "_RTOL", 1e-11)
        ground = flows.minimize_flow(base)
    assert ground.converged
    shifted = flows.line_problem(8.0, 256, 1.0,
                                 lambda z: z**2 - ground.mu_chem, q, dq, d2q,
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
    e = prob.energy(psi)
    terms = prob.terms(psi)
    scale = max(abs(terms[2]), abs(e) / prob.mass, 1e-12)
    dt = 1.0 / scale
    stagnant = 0
    for it in range(1, _REF_MAX_ITER + 1):
        trial = flows._implicit_step(prob, psi, terms, dt)
        e_new = math.nan if trial is None else prob.energy(trial)
        if not np.isfinite(e_new) or e_new > e + 1e-14 * max(1.0, abs(e)):
            dt *= 0.5
            if dt < 1e-18 / scale:
                break
            continue
        de = abs(e_new - e)
        psi, e = trial, e_new
        terms = prob.terms(psi)
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
                return prob.energy(psi), res, it + extra, res <= rtol * scale
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
        trial_terms = prob.terms(trial)
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


def _central_difference(dq, y, nodes, rel=1e-5):
    h = rel * y
    return (dq(y + h, nodes) - dq(y - h, nodes)) / (2.0 * h)


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
    y, nodes = y[keep], prob.nodes[keep]
    np.testing.assert_allclose(prob.d2q(y, nodes),
                               _central_difference(prob.dq, y, nodes),
                               rtol=1e-7, atol=0.0)


def test_full_d2q_across_the_table_ends(monkeypatch, ll_curve):
    # rho = g / t on both sides of t_min and t_max, at midpoints between
    # table nodes in log t (e'' jumps at the nodes, the PCHIP being C1)
    monkeypatch.setattr(onedim, "_N_GRID_1D", 512)
    prob, _ = _flow_input(monkeypatch, lambda: onedim.minimize_1d(
        "full", 30.0, 5.0, 0.5, 2.0))
    g = 0.5
    x = np.log(ll_curve.nodes_t)
    inner = np.exp(0.5 * (x[:-1] + x[1:]))
    t = np.concatenate((ll_curve.t_min * np.array([0.2, 0.5, 0.9]), inner[:3],
                        inner[-3:], ll_curve.t_max * np.array([1.1, 2.0, 5.0])))
    y = g / t
    nodes = np.zeros_like(y)
    np.testing.assert_allclose(prob.d2q(y, nodes),
                               _central_difference(prob.dq, y, nodes, 1e-6),
                               rtol=1e-6, atol=0.0)
    assert prob.d2q(np.zeros(1), nodes[:1]) == 0.0


def test_newton_stall_hands_back_to_the_descent(monkeypatch):
    # every Newton step refused: the descent takes over again, hands off at
    # 1e-4 and then 1e-6 times the scale, and the third stall is final
    q = lambda y, z: 0.5 * y**2
    dq = lambda y, z: y
    d2q = lambda y, z: np.ones_like(y)
    prob = flows.line_problem(8.0, 256, 1.0, lambda z: z**2, q, dq, d2q, 10.0)
    seen = []

    def refuse(prob, psi, terms):
        seen.append(prob.residual(psi, terms)
                    / max(abs(terms[2]), abs(prob.energy(psi)) / prob.mass))
        return None

    monkeypatch.setattr(flows, "_newton_step", refuse)
    res = flows.minimize_flow(prob)
    assert not res.converged
    assert res.newton_steps == 3
    assert len(seen) == 3
    assert seen[0] <= 1e-2 and seen[1] <= 1e-4 and seen[2] <= 1e-6
    assert res.iterations > res.newton_steps


def test_newton_converges_on_a_linear_problem():
    # no interaction: the Newton matrix W^-1 A + V - lam is singular at the
    # ground state, and the bordered step must still converge
    zero = lambda y, z: 0.0 * y
    prob = flows.line_problem(8.0, 512, 1.0, lambda z: z**2, zero, zero, zero,
                              1.0)
    res = flows.minimize_flow(prob)
    assert res.converged and res.newton_steps >= 1
    # the oscillator ground state: -psi'' + z^2 psi = psi
    assert res.mu_chem == pytest.approx(1.0, rel=1e-4)
    assert res.energy == pytest.approx(res.mu_chem, rel=1e-12)
