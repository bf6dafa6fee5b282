"""Regression pins for the shared normalized gradient flow: iteration
counts exactly, energies to 1e-13 relative.  A change to the step-size
control of the descent or of its residual endgame moves the counts.
"""

import pytest

from bosegas import charged, flows, meanfield, onedim


def test_gp_3d_harmonic_flow_pinned():
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(3, 100.0, 0.01,
                                                       n_grid=4096))
    assert rep.iterations == 61
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
    assert energy == pytest.approx(9.322188962301011, rel=1e-13)


def test_dyson_flow_pinned():
    dm = charged.dyson_functional_minimize(1.0)
    assert dm.iterations == 43
    assert dm.energy == pytest.approx(-0.025170640086422558, rel=1e-13)
