import numpy as np
import pytest

from bosegas import onedim


@pytest.fixture(scope="session")
def ll_curve():
    # built once per process; shared by every test that needs e(t)
    return onedim.default_curve()


@pytest.fixture()
def rng():
    return np.random.default_rng(987654)


def _fd_gradient_check(prob, psi, direction, h_list):
    """Central differences of the discrete energy of a flows.FlowProblem
    against its analytic gradient dE/dpsi = 2 (A psi + W (V + q'(psi^2)) psi),
    exact for the discrete functional; returns deviations per h and the
    fitted convergence order."""
    Apsi, g, _ = prob.terms(psi)
    g_dot_d = float(2.0 * (Apsi + prob.w * g * psi) @ direction)
    devs = np.array([abs((prob.energy(psi + h * direction)
                          - prob.energy(psi - h * direction)) / (2.0 * h) - g_dot_d)
                     / max(abs(g_dot_d), 1e-300) for h in h_list])
    hs = np.asarray(h_list, dtype=float)
    mask = devs > 1e-14
    slope = float(np.polyfit(np.log(hs[mask]), np.log(devs[mask]), 1)[0]) \
        if np.sum(mask) >= 2 else 2.0
    return {"max_rel_dev": float(devs.max()), "order": slope}


@pytest.fixture()
def fd_gradient_check():
    return _fd_gradient_check
