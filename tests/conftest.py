import numpy as np
import pytest

from scipy.optimize import brentq

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
    Apsi, g, _, _ = prob.evaluate(psi)[1]
    g_dot_d = float(2.0 * (Apsi + prob.w * g * psi) @ direction)
    energy = lambda x: prob.evaluate(x)[0]
    devs = np.array([abs((energy(psi + h * direction)
                          - energy(psi - h * direction)) / (2.0 * h) - g_dot_d)
                     / max(abs(g_dot_d), 1e-300) for h in h_list])
    hs = np.asarray(h_list, dtype=float)
    mask = devs > 1e-14
    slope = float(np.polyfit(np.log(hs[mask]), np.log(devs[mask]), 1)[0]) \
        if np.sum(mask) >= 2 else 2.0
    return {"max_rel_dev": float(devs.max()), "order": slope}


@pytest.fixture()
def fd_gradient_check():
    return _fd_gradient_check


def _normalization_root(mass, N):
    """mu with mass(mu) = N for a nondecreasing mass, 0 at mu = 0: the
    bracket doubles from mu = 1, then brentq to 8.9e-16.  The reference
    route for the pointwise 1D kinds' Newton normalization and for the
    closed-form Thomas-Fermi mu."""
    hi = 1.0
    while mass(hi) < N:
        hi *= 2.0
        if hi > 1e40:
            raise RuntimeError("normalization bracket failure")
    return brentq(lambda m: mass(m) - N, 0.0, hi, xtol=1e-300, rtol=8.9e-16)


@pytest.fixture()
def normalization_root():
    return _normalization_root


@pytest.fixture(scope="session")
def half_line_corpus():
    """(N, L, g, s) on which the 1D kinds' half-line solves are checked
    against the full line."""
    return [(N, L, g, s) for N in (1.0, 10.0, 100.0) for L in (1.0, 5.0)
            for g in (0.01, 0.3, 10.0) for s in (2.0, 3.0)]
