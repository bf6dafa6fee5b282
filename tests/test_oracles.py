import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from bosegas import oracles as orc


# --- reference implementations ------------------------------------------------
# The straightforward versions of the rewritten oracle kernels: an FFT field
# with one draw per coefficient, the FFT gradient, the full-space Fock and
# delta-gas Hamiltonians from Kronecker products, the delta gas's bosonic
# sector (with the Neumann ends the ring solve has no use for), and the loop
# over windows.  The kernels in bosegas.oracles are checked against them.

def _reference_random_field(n, rng, kmax=3, complex_valued=False):
    fhat = np.zeros((n, n, n), dtype=complex)
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            for kz in range(-kmax, kmax + 1):
                c = rng.normal() + 1j * rng.normal()
                fhat[kx % n, ky % n, kz % n] = c
    f = np.fft.ifftn(fhat) * n**3
    return f if complex_valued else f.real


def _drawn(rng, n, complex_valued=False):
    """``orc.random_field``'s kmax = 2 coefficients and, from the same draws,
    the field's samples on the n^3 grid by ``_reference_random_field``."""
    state = rng.bit_generator.state
    coeffs = orc.random_field(rng, 2, complex_valued)
    rng.bit_generator.state = state
    return coeffs, _reference_random_field(n, rng, 2, complex_valued)


def _cosine_weight_samples(n):
    """h = 1 + cos(2 pi x)/2 on the n^3 grid of the unit cube."""
    h = 1.0 + 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    return np.ones((n, n, n)) * h[:, None, None]


def _tensordot_synthesize(coeffs, n):
    """The real part's samples on the n^d grid by ``np.tensordot`` alone,
    the product ``orc._synthesize`` writes into its buffer."""
    phase = orc._phase(coeffs.shape[0], n)
    field = coeffs
    for _ in range(coeffs.ndim - 1):
        field = np.tensordot(field, phase, axes=(0, 0))
    field = np.concatenate((field.real, field.imag))
    return np.tensordot(field, np.concatenate((phase.real, -phase.imag)),
                        axes=(0, 0))


def _reference_random_subset(n, rng, frac_complement):
    g = _reference_random_field(n, rng, kmax=2)
    thr = np.quantile(g, frac_complement)
    return g >= thr


def _reference_grad_periodic(f, h):
    n = f.shape[0]
    L = n * h
    k = 2.0j * math.pi * np.fft.fftfreq(n, d=1.0 / n) / L
    fhat = np.fft.fftn(f)
    out = []
    for ax in range(f.ndim):
        shape = [1] * f.ndim
        shape[ax] = n
        out.append(np.fft.ifftn(fhat * k.reshape(shape)))
    if np.isrealobj(f):
        out = [g.real for g in out]
    return out


def _reference_mode_ops(cutoff, n_modes):
    dim1 = cutoff + 1
    a = sp.diags(np.sqrt(np.arange(1, dim1)), 1, format="csr")
    eye = sp.identity(dim1, format="csr")
    ops = []
    for j in range(n_modes):
        mats = [eye] * n_modes
        mats[j] = a
        out = mats[0]
        for mkl in mats[1:]:
            out = sp.kron(out, mkl, format="csr")
        ops.append(out)
    return ops


def _reference_ground_energy(H):
    if H.shape[0] <= 1800:
        return float(np.linalg.eigvalsh(H.toarray())[0])
    v0 = np.full(H.shape[0], 1.0 / math.sqrt(H.shape[0]))
    val = eigsh(H.tocsr(), k=1, which="SA", return_eigenvectors=False,
                maxiter=50000, tol=1e-12, v0=v0)
    return float(val[0])


def _reference_fock_ground(A, B_plus, B_minus, cutoff):
    if B_minus == 0.0:
        bp, bm = _reference_mode_ops(cutoff, 2)
        n_op = bp.T @ bp + bm.T @ bm
        H = A * n_op + B_plus * (n_op + bp.T @ bm.T + bp @ bm)
        return _reference_ground_energy(H)
    ops = _reference_mode_ops(cutoff, 4)
    b = {("+", "+"): ops[0], ("-", "+"): ops[1],
         ("+", "-"): ops[2], ("-", "-"): ops[3]}
    Bval = {"+": B_plus, "-": B_minus}
    sgn = {"+": 1.0, "-": -1.0}
    H = A * sum(op.T @ op for op in ops)
    for e in ("+", "-"):
        for ep in ("+", "-"):
            c = math.sqrt(Bval[e] * Bval[ep]) * sgn[e] * sgn[ep]
            H = H + c * (b[("+", e)].T @ b[("+", ep)]
                         + b[("-", e)].T @ b[("-", ep)]
                         + b[("+", e)].T @ b[("-", ep)].T
                         + b[("+", e)] @ b[("-", ep)])
    return _reference_ground_energy(H)


def _reference_localize(case):
    """(window_start, lhs, phi, d) from the loop over diagonals and
    windows."""
    A, psi, M = case.matrix, case.psi, case.M
    n = A.shape[0]
    d = np.empty(n)
    d[0] = float(np.real(np.conj(psi) @ (np.diag(np.diag(A)) @ psi)))
    for k in range(1, n):
        val = np.conj(psi[:-k]) @ (np.diag(A, k) * psi[k:])
        d[k] = float(2.0 * np.real(val))
    best_val, best_start, best_vec = math.inf, 0, None
    for start in range(0, n - M + 1):
        vals, vecs = eigh(A[start:start + M, start:start + M])
        if vals[0] < best_val:
            best_val, best_start, best_vec = float(vals[0]), start, vecs[:, 0]
    phi = np.zeros(n)
    phi[best_start:best_start + M] = best_vec
    return best_start, best_val, phi, d


def _reference_kinetic_1p(m, h, boundary):
    main = np.full(m, 2.0)
    if boundary == "neumann":
        main[0] = main[-1] = 1.0
    T = sp.diags([main, -np.ones(m - 1), -np.ones(m - 1)], [0, 1, -1],
                 format="lil")
    if boundary == "periodic":
        T[0, -1] = -1.0
        T[-1, 0] = -1.0
    return (T / h**2).tocsr()


_BOSONIC_DENSE_MAX = 200    # largest bosonic sector solved dense, not by ARPACK


def _reference_bosonic_delta_gas_energy(m, n, ell, g, boundary):
    """Ground energy of n bosons on m sites (a ring or Neumann ends) from
    the sorted site tuples, the bosonic sector of the full space: H as a csr
    matrix, solved dense up to 200 states and by ARPACK above.  A hop from x
    to y has amplitude -sqrt(n_x (n_y + 1))/h^2; the last particle at each
    site hops right, and the transpose hops left."""
    periodic = boundary == "periodic"
    h = ell / m if periodic else ell / (m - 1)
    # lexicographic, so the keys increase and searchsorted finds targets
    states = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(m), n)),
        dtype=np.intp).reshape(-1, n)
    keys = np.ravel_multi_index(states.T, (m,) * n)
    ends = ((states == 0) | (states == m - 1)) & (not periodic)
    pairs = (np.sum(states[:, None] == states[..., None], axis=(1, 2)) - n) / 2
    diag = np.where(ends, 1.0, 2.0).sum(axis=1) / h**2 + (g / h) * pairs
    right = (states + 1) % m if periodic else states + 1
    last = np.ones(states.shape, dtype=bool)
    last[:, :-1] = states[:, :-1] < states[:, 1:]
    src, i = np.nonzero(last & (right < m))
    n_from = np.sum(states[src] == states[src, i, None], axis=1)
    n_to = np.sum(states[src] == right[src, i, None], axis=1)
    moved = np.sort(np.where(np.arange(n) == i[:, None], right[src, i, None],
                             states[src]), axis=1)
    tgt = np.searchsorted(keys, np.ravel_multi_index(moved.T, (m,) * n))
    amp = -np.sqrt(n_from * (n_to + 1.0)) / h**2
    size = len(states)
    every = np.arange(size)
    H = sp.csr_matrix((np.r_[diag, amp, amp], (np.r_[every, src, tgt],
                       np.r_[every, tgt, src])), shape=(size, size))
    if size <= _BOSONIC_DENSE_MAX or n == 1:
        # n = 1: the uniform v0 below is the ground state; ARPACK fails on it
        return float(np.linalg.eigvalsh(H.toarray())[0])
    # tol=0 is machine precision: at tol=1e-12 ARPACK returns an excited
    # level when the ground energy is 0 (g = 0, 300 or 1176 states)
    val = eigsh(H, k=1, which="SA", return_eigenvectors=False, maxiter=20000,
                tol=0, v0=np.full(size, 1.0 / math.sqrt(size)))
    return float(val[0])


def _reference_delta_gas_energy(m, n, ell, g, boundary):
    """Lowest eigenvalue of the n-particle grid Hamiltonian on all m^n
    site tuples, distinguishable particles included."""
    h = ell / m if boundary == "periodic" else ell / (m - 1)
    T1 = _reference_kinetic_1p(m, h, boundary)
    eye = sp.identity(m, format="csr")
    if n == 1:
        H = T1
    elif n == 2:
        H = sp.kron(T1, eye) + sp.kron(eye, T1)
        idx = np.arange(m * m)
        same = (idx // m) == (idx % m)
        H = H + sp.diags(np.where(same, g / h, 0.0))
    else:
        H = (sp.kron(sp.kron(T1, eye), eye)
             + sp.kron(sp.kron(eye, T1), eye)
             + sp.kron(sp.kron(eye, eye), T1))
        idx = np.arange(m**3)
        i1 = idx // (m * m)
        i2 = (idx // m) % m
        i3 = idx % m
        coincidences = ((i1 == i2).astype(float) + (i1 == i3) + (i2 == i3))
        H = H + sp.diags(coincidences * g / h)
    return _reference_ground_energy(H)


# --- twisted Laplacian --------------------------------------------------------

def test_twisted_ground_zero_phase():
    assert orc.twisted_spectrum(1.0, 0.0)[0] == 0.0


def test_twisted_ground_half_pi():
    got = orc.twisted_spectrum(1.0, 0.5 * math.pi)[0]
    assert got == pytest.approx((0.5 * math.pi) ** 2, rel=1e-14)


def test_twisted_pi_twofold_degenerate():
    ev = orc.twisted_spectrum(2.0, math.pi, n_eigs=3)
    assert abs(ev[1] - ev[0]) < 1e-10
    assert ev[0] == pytest.approx((math.pi / 2.0) ** 2, rel=1e-14)
    assert ev[2] > ev[1] + 1e-6


def test_twisted_matches_min_over_m():
    for L, phi in ((1.0, 1.1), (2.5, -2.2), (0.7, 3.0)):
        ms = np.arange(-5, 6)
        exact = np.min(((2 * math.pi * ms + phi) / L) ** 2)
        assert orc.twisted_spectrum(L, phi)[0] == pytest.approx(exact, rel=1e-14)


def test_twisted_fd_second_order_convergence():
    errs = []
    ns = (32, 64, 128)
    for n in ns:
        ev = orc.twisted_spectrum(1.0, 1.1, n_grid=n, basis="finite_difference",
                                  n_eigs=2)
        exact = sorted(((2 * math.pi * m + 1.1) ** 2 for m in range(-4, 5)))[:2]
        # ground (constant mode) is exact in FD; rate measured on level 1
        assert abs(ev[0] - exact[0]) < 1e-10
        errs.append(abs(ev[1] - exact[1]))
    rate = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(rate + 2.0) < 0.2


# --- Poincare suites -----------------------------------------------------------

def test_poincare_constant_function_gives_zero():
    mask = np.zeros((12, 12, 12), dtype=bool)
    mask[:6] = True
    assert orc.poincare_check("homogeneous", np.ones((1, 1, 1)), 1.0,
                              mask).ratio == 0.0


def test_poincare_full_cube_classical_bound(rng):
    # |Omega^c| = 0 reduces to classical Poincare on the torus:
    # |f - <f>|^2 <= (L/2pi)^2 |grad f|^2
    full = np.ones((16, 16, 16), dtype=bool)
    for _ in range(10):
        res = orc.poincare_check("homogeneous", orc.random_field(rng, 2), 1.0,
                                 full)
        assert res.ratio <= 1.0 / (4 * math.pi**2) + 1e-12


def test_poincare_scale_invariance(rng):
    coeffs = orc.random_field(rng, 2)
    mask = orc.random_subset(16, rng, 0.3)
    r1 = orc.poincare_check("homogeneous", coeffs, 1.0, mask).ratio
    r2 = orc.poincare_check("homogeneous", coeffs, 2.0, mask).ratio
    assert abs(r1 - r2) < 1e-10 * max(r1, 1e-12)


def test_poincare_vector_full_cube_nonnegative(rng):
    # Omega = K: the twisted ground gap makes the excess positive for
    # mean-zero fields (|phi| < pi nondegenerate ground state)
    full = np.ones((12, 12, 12), dtype=bool)
    for _ in range(10):
        res = orc.poincare_check("vector_potential",
                                 orc.random_field(rng, 2, True), 1.0, full,
                                 phi=0.6 * math.pi)
        assert res.ratio >= -1e-10


def test_poincare_inhomogeneous_weight_validation(rng):
    coeffs = orc.random_field(rng, 2)
    mask = orc.random_subset(12, rng, 0.2)
    with pytest.raises(ValueError, match="integrate to 1"):
        orc.poincare_check("inhomogeneous", coeffs, 1.0, mask,
                           np.full((1, 1, 1), 5.0))


def test_poincare_calibration_stable_and_clean():
    for variant, seed in (("homogeneous", 11), ("vector_potential", 12),
                          ("inhomogeneous", 13)):
        c1 = orc.poincare_calibrate(variant, n=24, n_cases=40, seed=seed)
        c2 = orc.poincare_calibrate(variant, n=48, n_cases=40, seed=seed)
        assert abs(c2["C_hat"] - c1["C_hat"]) <= 0.05 * max(c1["C_hat"], 1e-12)
        assert math.isfinite(c1["max_ratio"])
        if variant == "vector_potential":
            # zero counterexamples: no case needs a constant beyond C_hat
            assert c1["min_ratio"] >= -c1["C_hat"] - 1e-12


def test_poincare_unknown_variant():
    with pytest.raises(ValueError):
        orc.poincare_check("bogus", np.ones((1, 1, 1)), 1.0,
                           np.ones((8, 8, 8), dtype=bool))


def _reference_norms(values, L, mask, phi=0.0):
    """Sums over the mask and over the grid of |grad u + i phi/L e_z u|^2
    from the FFT gradient of the samples."""
    grads = _reference_grad_periodic(values, L / values.shape[0])
    grads[-1] = grads[-1] + 1j * (phi / L) * values
    g2 = sum(np.abs(g) ** 2 for g in grads)
    return float(np.sum(g2[mask])), float(np.sum(g2))


def _sampled_check(variant, values, L, mask, weight=None, phi=0.0):
    """(ratio, lhs, rhs_structural, omega_complement_fraction, pieces) of
    ``poincare_check``, summed on the grid from the samples with the FFT
    gradient of ``_reference_norms``: the route the coefficient sums are
    checked against."""
    n, d = mask.shape[0], mask.ndim
    dV = (L / n) ** d
    frac = (mask.size - np.count_nonzero(mask)) / mask.size
    if variant == "inhomogeneous":
        u = values - np.sum(values * weight) / np.sum(weight**2) * weight
    else:
        u = values - np.mean(values)
    norm2 = float(np.sum(np.abs(u) ** 2)) * dV
    g2_omega, g2_full = (s * dV for s in _reference_norms(u, L, mask, phi))
    if variant == "homogeneous":
        rhs = L**2 * g2_omega + (frac * L**d) ** (2.0 / 3.0) * g2_full
        return (norm2 / rhs, norm2, rhs, frac,
                {"grad_omega": g2_omega, "grad_full": g2_full})
    if variant == "inhomogeneous":
        rhs = g2_omega + frac ** (2.0 / d) * g2_full
        return norm2 / rhs, norm2, rhs, frac, {}
    excess = g2_omega - (phi / L) ** 2 * norm2
    scale = frac**0.5 * g2_full if frac else norm2 / L**2
    return (excess / scale, excess, g2_full, frac,
            {"norm2": norm2, "grad_omega": g2_omega})


@pytest.mark.parametrize("n,kmax,complex_valued",
                         [(12, 2, False), (16, 3, True), (24, 2, False),
                          (48, 2, True), (48, 3, False)])
def test_random_field_matches_fft_reference(n, kmax, complex_valued):
    rng, rng_ref = np.random.default_rng(n + kmax), np.random.default_rng(n + kmax)
    coeffs = orc.random_field(rng, kmax, complex_valued)
    ref = _reference_random_field(n, rng_ref, kmax, complex_valued)
    assert rng.normal() == rng_ref.normal()      # the same draws were used
    # the coefficients are the reference's band in fftshift order, and the
    # reference has no other mode
    ref_hat = np.fft.fftshift(np.fft.fftn(ref)) / n**3
    band = (slice(n // 2 - kmax, n // 2 + kmax + 1),) * 3
    scale = np.max(np.abs(coeffs))
    assert np.max(np.abs(ref_hat[band] - coeffs)) <= 1e-12 * scale
    ref_hat[band] = 0.0
    assert np.max(np.abs(ref_hat)) <= 1e-12 * scale
    if not complex_valued:
        # a real field's samples as a mask's are synthesized
        values = orc._synthesize(coeffs, np.empty((n, n, n)))
        assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))
    mask = orc.random_subset(n, rng, 0.3)
    phi = 0.5 * math.pi if complex_valued else 0.0
    got = orc._gradient_norms(coeffs, 1.0, mask, phi)
    want = _reference_norms(ref, 1.0, mask, phi)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_gradient_norms_of_sampled_array_match_fft_reference(complex_valued):
    # the band is the whole grid: an arbitrary array's K = n coefficients
    # from an FFT, on an odd grid, whose modes are all paired (on an even
    # one the Nyquist mode has no partner and its gradient is not real)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(11, 11, 11))
    if complex_valued:
        vals = vals + 1j * rng.normal(size=(11, 11, 11))
    mask = rng.uniform(size=(11, 11, 11)) < 0.7
    phi = 1.1 if complex_valued else 0.0
    coeffs = np.fft.fftshift(np.fft.fftn(vals)) / vals.size
    got = orc._gradient_norms(coeffs, 2.5, mask, phi)
    assert got == pytest.approx(_reference_norms(vals, 2.5, mask, phi),
                                rel=1e-12)


def test_inhomogeneous_check_band_matches_samples(rng):
    # the cosine weight's band (3 modes) is padded into the field's (5)
    n = 16
    coeffs, values = _drawn(rng, n)
    mask = orc.random_subset(n, rng, 0.25)
    band = orc.poincare_check("inhomogeneous", coeffs, 1.0, mask,
                              orc._COSINE_WEIGHT)
    sampled = _sampled_check("inhomogeneous", values, 1.0, mask,
                             _cosine_weight_samples(n))
    assert band.ratio == pytest.approx(sampled[0], rel=1e-12)


def test_random_subset_masks_match_reference():
    for seed in range(8):
        for n in (12, 24, 48):
            frac = np.random.default_rng(seed).uniform(0.0, 0.5)
            mask = orc.random_subset(n, np.random.default_rng(seed), frac)
            ref = _reference_random_subset(n, np.random.default_rng(seed), frac)
            assert np.array_equal(mask, ref)


def _quantile_mask(g, frac_complement):
    return g >= np.quantile(g, frac_complement)


@pytest.mark.parametrize("variant,seed", [("homogeneous", 27),
                                          ("vector_potential", 28),
                                          ("inhomogeneous", 29)])
def test_partition_masks_equal_quantile_masks_on_verify_corpora(variant,
                                                                seed):
    # the corpora of verify --seed 7, drawn as poincare_calibrate draws them,
    # synthesized and partitioned in one scratch array per corpus
    for n in (24, 48):
        rng = np.random.default_rng(seed)
        scratch = np.empty((2, n**3))
        for _ in range(60):
            frac = rng.uniform(0.0, 0.5)
            state = rng.bit_generator.state
            mask = orc.random_subset(n, rng, frac, scratch)
            rng.bit_generator.state = state
            g = orc._synthesize(orc.random_field(rng, 2), np.empty((n, n, n)))
            assert np.array_equal(mask, _quantile_mask(g, frac))
            orc.random_field(rng, 2, variant == "vector_potential")


def test_partition_mask_at_the_ends():
    # the ends, a midpoint, and fractions whose quantile index frac (n^3 - 1)
    # is an integer
    for frac in (0.0, 0.5, 1.0, 1.0 / 215.0, 107.0 / 215.0):
        rng = np.random.default_rng(0)
        got = orc.random_subset(6, rng, frac)
        g = orc._synthesize(orc.random_field(np.random.default_rng(0), 2),
                            np.empty((6, 6, 6)))
        ref = _quantile_mask(g, frac)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous",
                                     "vector_potential"])
def test_coefficient_sums_match_sampled_route(variant, n):
    # every grid sum by Parseval against the same sums on synthesized samples
    rng = np.random.default_rng(n)
    weight = _cosine_weight_samples(n)
    phi = 0.5 * math.pi if variant == "vector_potential" else 0.0
    for _ in range(8):
        mask = orc.random_subset(n, rng, rng.uniform(0.0, 0.5))
        coeffs, values = _drawn(rng, n, variant == "vector_potential")
        band = orc.poincare_check(variant, coeffs, 1.0, mask,
                                  orc._COSINE_WEIGHT, phi)
        ratio, lhs, rhs, frac, pieces = _sampled_check(
            variant, values, 1.0, mask, weight, phi)
        assert list(band.pieces) == list(pieces)
        for got, want in [(band.ratio, ratio), (band.lhs, lhs),
                          (band.rhs_structural, rhs),
                          (band.omega_complement_fraction, frac),
                          *zip(band.pieces.values(), pieces.values())]:
            assert got == pytest.approx(want, rel=1e-12)


def test_calibration_synthesizes_the_masks_only(monkeypatch):
    shapes = []
    synthesize = orc._synthesize

    def counted(coeffs, out):
        shapes.append((coeffs.shape, out.shape))
        return synthesize(coeffs, out)

    monkeypatch.setattr(orc, "_synthesize", counted)
    for variant in ("homogeneous", "vector_potential", "inhomogeneous"):
        shapes.clear()
        orc.poincare_calibrate(variant, n=24, n_cases=5, seed=1)
        # one real kmax = 2 field per mask, no test field and no weight
        assert shapes == [((5, 5, 5), (24, 24, 24))] * 5


def _tensordot_gradient_norms(coeffs, L, omega_mask, phi=0.0):
    """``orc._gradient_norms`` with the mask's transform by ``np.tensordot``
    on a float copy of the mask, as it was before the one-copy route."""
    n, d = omega_mask.shape[0], omega_mask.ndim
    K = coeffs.shape[0]
    k = (2.0 * math.pi / L) * (np.arange(K) - K // 2)
    grads = []
    for ax in range(d):
        shape = [1] * d
        shape[ax] = K
        mult = 1j * (k + phi / L) if ax == d - 1 else 1j * k
        grads.append(coeffs * mult.reshape(shape))
    phase = orc._phase(2 * K - 1, n)
    m = omega_mask.astype(float)
    m = (np.tensordot(m, phase.real, axes=(0, 1))
         + 1j * np.tensordot(m, phase.imag, axes=(0, 1)))
    for _ in range(d - 1):
        m = np.tensordot(m, phase, axes=(0, 1))
    diff = np.arange(K)[None, :] - np.arange(K)[:, None] + K - 1
    index = []
    for ax in range(d):
        shape = [1] * (2 * d)
        shape[ax] = shape[d + ax] = K
        index.append(diff.reshape(shape))
    gram = m[tuple(index)].reshape(K**d, K**d)
    a = np.stack(grads).reshape(d, -1)
    omega = float(np.real(np.sum(np.conj(a) * (a @ gram.T))))
    return omega, n**d * float(np.sum(np.abs(a) ** 2))


@pytest.mark.parametrize("n,d", [(24, 3), (48, 3), (11, 2), (7, 1)])
def test_scratch_routes_keep_tensordot_bits(n, d):
    # the samples synthesized into a buffer, and the mask's transform from
    # one float copy in a buffer, equal np.tensordot's bit for bit
    rng = np.random.default_rng(n + d)
    scratch = np.empty((2, n**d))
    for complex_valued in (False, True):
        z = rng.normal(size=(5**d, 2))
        coeffs = (z[:, 0] + 1j * z[:, 1]).reshape((5,) * d)
        if not complex_valued:
            coeffs = 0.5 * (coeffs + np.conj(coeffs[(slice(None, None, -1),) * d]))
            out = orc._synthesize(coeffs, scratch[1].reshape((n,) * d))
            assert out.base is not None
            assert np.array_equal(out, _tensordot_synthesize(coeffs, n))
        mask = rng.uniform(size=(n,) * d) < rng.uniform(0.5, 1.0)
        phi = 1.1 if complex_valued else 0.0
        want = _tensordot_gradient_norms(coeffs, 1.7, mask, phi)
        assert orc._gradient_norms(coeffs, 1.7, mask, phi) == want
        assert orc._gradient_norms(coeffs, 1.7, mask, phi, scratch[0]) == want


def test_fields_reject_unresolved_band():
    # Parseval's sums and the synthesized samples need K <= n, n the mask's
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="K <= n"):
        orc.random_subset(4, rng, 0.3)
    coeffs, small = orc.random_field(rng, 2), np.ones((4, 4, 4), dtype=bool)
    for variant in ("homogeneous", "inhomogeneous", "vector_potential"):
        with pytest.raises(ValueError, match="K <= n"):
            orc.poincare_check(variant, coeffs, 1.0, small, orc._COSINE_WEIGHT)
    # the weight's band counts too
    with pytest.raises(ValueError, match="K <= n"):
        orc.poincare_check("inhomogeneous", np.ones((1, 1, 1)), 1.0,
                           np.ones((2, 2, 2), dtype=bool), orc._COSINE_WEIGHT)


# C_hat and min_ratio of the FFT implementation on the verify --seed 7
# corpora (60 cases each)
_PINNED_CORPORA = {
    ("homogeneous", 27, 24): ("0x1.144f2f8cfcb28p-8", "0x1.b1ee3ed372cf1p-9"),
    ("homogeneous", 27, 48): ("0x1.13eec9f7347a3p-8", "0x1.b235c2ede1a19p-9"),
    ("vector_potential", 28, 24): ("0x0.0p+0", "0x1.85055394f59ffp-1"),
    ("vector_potential", 28, 48): ("0x0.0p+0", "0x1.84bcd5f689d6fp-1"),
    ("inhomogeneous", 29, 24): ("0x1.29b61c90fb9edp-8", "0x1.a5e3a3bc5e682p-9"),
    ("inhomogeneous", 29, 48): ("0x1.29c889033d428p-8", "0x1.a5f05fce822adp-9"),
}


@pytest.mark.parametrize("variant,seed,n", sorted(_PINNED_CORPORA))
def test_poincare_constants_pinned(variant, seed, n):
    c = orc.poincare_calibrate(variant, n=n, n_cases=60, seed=seed)
    c_hat, min_ratio = (float.fromhex(x)
                        for x in _PINNED_CORPORA[variant, seed, n])
    assert abs(c["C_hat"] - c_hat) <= 1e-12 * c_hat
    assert abs(c["min_ratio"] - min_ratio) <= 1e-12 * abs(min_ratio)


# --- band-matrix localization ---------------------------------------------------

def test_band_matrix_full_window_trivial(rng):
    N = 32
    A = rng.normal(size=(N + 1, N + 1))
    A = 0.5 * (A + A.T)
    psi = rng.normal(size=N + 1)
    psi /= np.linalg.norm(psi)
    res = orc.localize_band_matrix(orc.BandMatrixCase(A, psi, N + 1))
    assert res.lhs <= res.lam + 1e-12
    assert res.rhs_term_tail == 0.0


def test_band_matrix_diagonal_case(rng):
    N = 32
    diag = rng.normal(size=N + 1)
    A = np.diag(diag)
    psi = rng.normal(size=N + 1)
    psi /= np.linalg.norm(psi)
    res = orc.localize_band_matrix(orc.BandMatrixCase(A, psi, 5))
    assert np.allclose(res.d[1:], 0.0)
    assert res.lhs == pytest.approx(np.min(diag))
    k = int(np.argmin(diag))
    assert res.window_start <= k < res.window_start + 5


def test_band_matrix_lambda_decomposition(rng):
    N = 24
    A = rng.normal(size=(N + 1, N + 1))
    A = 0.5 * (A + A.T)
    psi = rng.normal(size=N + 1)
    psi /= np.linalg.norm(psi)
    res = orc.localize_band_matrix(orc.BandMatrixCase(A, psi, 6))
    assert res.lam == pytest.approx(float(psi @ A @ psi), rel=1e-12)


def test_band_matrix_corpus_with_calibrated_constant(rng):
    # 10^3 random tridiagonal cases, N = 64, M = 8, C = 10
    N, M = 64, 8
    for _ in range(1000):
        diag = rng.normal(size=N + 1)
        off = rng.normal(size=N)
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        psi = rng.normal(size=N + 1)
        psi /= np.linalg.norm(psi)
        res = orc.localize_band_matrix(orc.BandMatrixCase(A, psi, M))
        assert res.lhs <= res.rhs(10.0) + 1e-12


def test_band_matrix_validation():
    with pytest.raises(ValueError):
        orc.BandMatrixCase(np.eye(4), np.array([1.0, 1.0, 0.0, 0.0]), 2)
    with pytest.raises(ValueError):
        orc.BandMatrixCase(np.eye(4), np.array([1.0, 0.0, 0.0, 0.0]), 9)


def _band_corpus(rng, count):
    # verify's tridiagonal cases (N = 64, M = 8) and dense symmetric ones
    for i in range(count):
        if i % 2 == 0:
            N, M = 64, 8
            off = rng.normal(size=N)
            A = np.diag(rng.normal(size=N + 1)) + np.diag(off, 1) \
                + np.diag(off, -1)
        else:
            N, M = 24, int(rng.integers(1, 26))
            A = rng.normal(size=(N + 1, N + 1))
            A = 0.5 * (A + A.T)
        psi = rng.normal(size=N + 1)
        yield orc.BandMatrixCase(A, psi / np.linalg.norm(psi), M)


def test_band_windows_match_reference_loop():
    for case in _band_corpus(np.random.default_rng(2024), 300):
        res = orc.localize_band_matrix(case)
        start, lhs, phi, d = _reference_localize(case)
        assert res.window_start == start
        assert abs(res.lhs - lhs) <= 2e-14 * max(1.0, abs(lhs))
        assert abs(abs(res.phi @ phi) - 1.0) <= 1e-8   # same vector up to sign
        assert np.max(np.abs(res.d - d)) <= 1e-12
        assert abs(res.lam - np.sum(d)) <= 1e-12


def test_band_window_ties_take_the_first():
    # every window holding the smallest diagonal entry has the same minimum
    A = np.diag([3.0, 2.0, -1.0, 4.0, 5.0, 6.0])
    psi = np.full(6, 1.0 / math.sqrt(6.0))
    res = orc.localize_band_matrix(orc.BandMatrixCase(A, psi, 3))
    assert res.window_start == 0 and res.lhs == -1.0


# --- delta gas ---------------------------------------------------------------

@pytest.mark.parametrize("g", [0.0, 1.0, 50.0])
@pytest.mark.parametrize("boundary", ["periodic", "neumann"])
@pytest.mark.parametrize("n, m", [(1, 16), (1, 17), (2, 24), (2, 25),
                                  (3, 8), (3, 9)])
def test_delta_gas_bosonic_sector_matches_full_space(n, m, boundary, g):
    # n = 2 has 300 and 325 bosonic states, above the dense cut: ARPACK.  The
    # ring is also solved in its zero-momentum sector, on odd and even m;
    # (0, 12) at m = 24 and (0, 3, 6) at m = 9 are orbits a rotation fixes
    assert (math.comb(m + n - 1, n) > _BOSONIC_DENSE_MAX) == (n == 2)
    ref = _reference_delta_gas_energy(m, n, 1.0, g, boundary)
    got = [_reference_bosonic_delta_gas_energy(m, n, 1.0, g, boundary)]
    if boundary == "periodic":
        got.append(orc._delta_gas_energy_at(m, n, 1.0, g))
    for e in got:
        assert abs(e - ref) <= 1e-10 * max(abs(ref), 1.0)


@pytest.mark.parametrize("n, m", [(2, 44), (3, 30), (3, 32)])
def test_delta_gas_zero_momentum_sector_matches_bosonic_sector(n, m):
    # the sizes verify and the acceptance test solve, against ARPACK on
    # every bosonic state (5984 at n = 3, m = 32)
    for g in (1.0, 10.0):
        ref = _reference_bosonic_delta_gas_energy(m, n, 1.0, g, "periodic")
        got = orc._delta_gas_energy_at(m, n, 1.0, g)
        assert abs(got - ref) <= 1e-10 * abs(ref)


def test_delta_gas_free_limits():
    # noninteracting ground energy is 0 for both boundary conditions; the
    # Richardson step amplifies eigensolver roundoff slightly
    assert abs(orc.exact_diag_delta_gas_1d(2, 1.0, 0.0).energy) < 1e-8
    for m in (24, 36, 48):
        assert abs(_reference_bosonic_delta_gas_energy(
            m, 2, 1.0, 0.0, "neumann")) < 1e-8


def test_delta_gas_fermionization_trend():
    ff = 2.0 * math.pi**2   # two impenetrable bosons: momenta +-pi/ell, ell = 1
    e50 = orc.exact_diag_delta_gas_1d(2, 1.0, 50.0, 28).energy
    e500 = orc.exact_diag_delta_gas_1d(2, 1.0, 500.0, 28).energy
    assert e50 < e500 < ff
    assert abs(e500 - ff) / ff < 0.1


def test_delta_gas_superadditivity():
    for g in (1.0, 10.0):
        e3 = orc.exact_diag_delta_gas_1d(3, 1.0, g, 16).energy
        e2 = orc.exact_diag_delta_gas_1d(2, 1.0, g, 16).energy
        e1 = orc.exact_diag_delta_gas_1d(1, 1.0, g, 16).energy
        assert e3 >= e2 + e1 - 1e-9


def test_delta_gas_error_estimate_reported():
    res = orc.exact_diag_delta_gas_1d(2, 1.0, 5.0, 20)
    assert res.error_estimate < 0.01 * abs(res.energy)
    assert len(res.energies_raw) == 3


def test_delta_gas_rejects_large_n():
    with pytest.raises(ValueError):
        orc.exact_diag_delta_gas_1d(4, 1.0, 1.0)


# --- truncated Fock ------------------------------------------------------------

def test_fock_number_operator_case():
    assert orc.fock_quadratic_ground(1.0, 0.0, 0.0, 5) == pytest.approx(0.0,
                                                                        abs=1e-12)


def test_fock_monotone_in_cutoff():
    es = [orc.fock_quadratic_ground(1.0, 0.8, 0.6, c) for c in (2, 3, 4, 6, 8)]
    assert all(es[i] >= es[i + 1] - 1e-12 for i in range(len(es) - 1))


def test_fock_dimension_guard():
    with pytest.raises(ValueError):
        orc.fock_quadratic_ground(1.0, 0.5, 0.5, 25)
    with pytest.raises(ValueError):
        orc.fock_quadratic_ground(1.0, 0.5, 0.0, 1)


@pytest.mark.parametrize("cutoff", [2, 10, 40])
def test_fock_two_mode_sectors_match_full_space(cutoff):
    rng = np.random.default_rng(cutoff)
    for A, Bp in [(1.0, 0.5)] + [tuple(rng.uniform(0.05, 3.0, 2))
                                 for _ in range(3)]:
        ref = _reference_fock_ground(A, Bp, 0.0, cutoff)
        got = orc.fock_quadratic_ground(A, Bp, 0.0, cutoff)
        assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("cutoff", [2, 4, 6, 8])
def test_fock_four_mode_sectors_match_full_space(cutoff):
    rng = np.random.default_rng(100 + cutoff)
    for A, Bp, Bm in [(1.0, 0.8, 0.6)] + [tuple(rng.uniform(0.05, 3.0, 3))
                                         for _ in range(2)]:
        ref = _reference_fock_ground(A, Bp, Bm, cutoff)
        got = orc.fock_quadratic_ground(A, Bp, Bm, cutoff)
        assert abs(got - ref) <= 1e-12 * abs(ref)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(A=st.floats(0.0, 3.0), B_plus=st.floats(0.0, 3.0),
       B_minus=st.floats(0.0, 3.0), cutoff=st.integers(2, 5))
@example(A=3.0, B_plus=0.05, B_minus=0.0, cutoff=5)
@example(A=0.05, B_plus=3.0, B_minus=3.0, cutoff=4)
def test_fock_sector_minimum_equals_full_space(A, B_plus, B_minus, cutoff):
    ref = _reference_fock_ground(A, B_plus, B_minus, cutoff)
    got = orc.fock_quadratic_ground(A, B_plus, B_minus, cutoff)
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-300) + 1e-15


# --- gradient oracle -------------------------------------------------------------

def test_fd_gradient_quadratic_is_exact(rng, fd_gradient_check):
    from bosegas import flows
    n = 64
    z = np.linspace(-1, 1, n)
    prob = flows.FlowProblem(z, np.full(n, 2.0 / n), 1.0,
                             np.full(n + 1, n / 2.0), z**2,
                             lambda y: (np.zeros_like(y), np.zeros_like(y), 0.0),
                             1.0)
    psi = rng.normal(size=n)
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    out = fd_gradient_check(prob, psi, d, h_list=(1e-2,))
    # quadratic functional: central differences are exact to roundoff
    assert out["max_rel_dev"] < 1e-10
