"""Regression pins for the shared normalized gradient flow: iteration,
step-rejection and polish-round counts exactly, energies to 1e-13
relative.  A change to the step-size control of the descent or of its
residual endgame moves the counts.  The backward-Euler step is checked bit
for bit against its first form, scipy's ``solve_banded`` on a 3 x n banded
layout, kept here as the reference.
"""

import numpy as np
import pytest

from bosegas import charged, flows, meanfield, onedim


def test_gp_3d_harmonic_flow_pinned():
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(3, 100.0, 0.01,
                                                       n_grid=4096))
    assert rep.iterations == 61
    assert (rep.rejected_steps, rep.polish_rounds) == (0, 11)
    assert rep.E_total == pytest.approx(362.2434068055428, rel=1e-13)


def test_full_1d_flow_pinned(monkeypatch, ll_curve):
    results = []
    run = flows.minimize_flow

    def recording(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flows, "minimize_flow", recording)
    _, energy, _ = onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0, ll_curve)
    assert [r.iterations for r in results] == [71]
    assert [(r.rejected_steps, r.polish_rounds) for r in results] == [(0, 22)]
    assert energy == pytest.approx(9.322188962301011, rel=1e-13)


def test_dyson_flow_pinned():
    dm = charged.dyson_functional_minimize(1.0)
    assert dm.iterations == 43
    assert (dm.rejected_steps, dm.polish_rounds) == (0, 15)
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
    """The FlowProblem and normalized start vector ``solve`` hands to the flow."""
    seen = []

    def capture(prob, psi0=None, rtol=1e-9):
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
def test_step_equals_the_banded_reference(case, monkeypatch, ll_curve):
    solve = {
        "gp_2d_cell": lambda: meanfield.gp_minimize(
            meanfield.GPProblem(2, 5.0, 0.1, n_grid=512)),
        "gp_3d_u": lambda: meanfield.gp_minimize(
            meanfield.GPProblem(3, 100.0, 0.01, n_grid=1024)),
        "full_1d": lambda: onedim.minimize_1d("full", 30.0, 5.0, 0.5, 2.0,
                                              ll_curve),
        "dyson": lambda: charged._dyson_flow(1.0, 1024, 60.0),
    }[case]
    prob, start = _flow_input(monkeypatch, solve)
    # the start and the minimizer; dt from the descent's range up to the
    # endgame's (1e6 .. 1e12 over the energy scale)
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
                               zero, zero, 1.0)
    psi = bad_v.normalize(np.ones(64))
    assert flows._implicit_step(bad_v, psi, bad_v.terms(psi), 0.1) is None
    assert _reference_step(bad_v, psi, 0.1) is None

    prob = flows.line_problem(4.0, 64, 1.0, lambda z: z**2, zero, zero, 1.0)
    good = prob.normalize(np.ones(64))
    for value in (np.nan, np.inf):
        psi = good.copy()
        psi[10] = value
        assert flows._implicit_step(prob, psi, prob.terms(good), 0.1) is None
        assert _reference_step(prob, psi, 0.1) is None

    # no kinetic term and lam = mean(V) = 1 exactly: M = I + (V - lam) has
    # a zero first entry
    singular = flows.FlowProblem(np.arange(3.0), np.ones(3), 0.0, np.ones(4),
                                 np.array([0.0, 1.0, 2.0]), zero, zero, 3.0)
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
    base = flows.line_problem(8.0, 256, 1.0, lambda z: z**2, q, dq, 10.0)
    ground = flows.minimize_flow(base, rtol=1e-11)
    assert ground.converged
    shifted = flows.line_problem(8.0, 256, 1.0,
                                 lambda z: z**2 - ground.mu_chem, q, dq, 10.0)
    monkeypatch.setattr(flows, "_MAX_ITER", 3)
    monkeypatch.setattr(flows, "_implicit_step", lambda *args: None)
    res = flows.minimize_flow(shifted, psi0=ground.psi)
    assert (res.iterations, res.rejected_steps, res.polish_rounds) == (3, 3, 0)
    assert np.array_equal(res.psi, shifted.normalize(ground.psi))
    scale = max(abs(res.mu_chem), abs(res.energy) / shifted.mass, 1e-12)
    assert res.residual <= 1e-9 * scale
    # on |mu| alone the same iterate would count as unconverged
    assert res.residual > 1e-9 * max(abs(res.mu_chem), 1e-12)
    assert res.converged
