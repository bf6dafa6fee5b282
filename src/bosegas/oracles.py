"""Independent brute-force and spectral verifiers.

Everything here exists to check the rest of the package by a second route:
exact plane-wave spectra for the twisted Laplacian, randomized corpora for
the generalized Poincare inequalities, dense diagonalization of small delta
gases (in their zero-momentum sector) and truncated Fock spaces (by charge
sector), and window searches for the band-matrix localization bound.  All
random corpora are seeded; seeds are recorded by callers.  The Poincare
corpora draw band-limited fields as their Fourier coefficients and take
every sum over the grid from those, so no test field is sampled: only the
field behind each random subset is, into the caller's buffer.  The module
needs numpy alone.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# --------------------------------------------------------------------------
# twisted periodic Laplacian
# --------------------------------------------------------------------------

def twisted_spectrum(L: float, phi: float, n_grid: int = 256, n_eigs: int = 6,
                     basis: str = "plane_wave") -> np.ndarray:
    """Low eigenvalues of -(d/dz + i phi/L)^2 with periodic boundary.

    plane_wave: exact values ((2 pi m + phi)/L)^2.
    finite_difference: central-difference matrix; converges at rate dz^2.
    """
    if abs(phi) > math.pi + 1e-12:
        raise ValueError("phi is taken in [-pi, pi]")
    if basis == "plane_wave":
        ms = np.arange(-(n_eigs + 2), n_eigs + 3)
        vals = ((2.0 * math.pi * ms + phi) / L) ** 2
        return np.sort(vals)[:n_eigs]
    if basis != "finite_difference":
        raise ValueError("basis must be plane_wave or finite_difference")
    n = n_grid
    h = L / n
    main = np.full(n, 2.0 / h**2 + (phi / L) ** 2)
    hop = np.full(n - 1, -1.0 / h**2)
    M = np.diag(main).astype(complex)
    # -(D2 + 2 i (phi/L) D1): first derivative by central differences
    d1 = 1.0 / (2.0 * h)
    M += np.diag(hop, 1) + np.diag(hop, -1)
    M += np.diag(np.full(n - 1, -2j * (phi / L) * d1), 1)
    M += np.diag(np.full(n - 1, +2j * (phi / L) * d1), -1)
    M[0, -1] = -1.0 / h**2 + 2j * (phi / L) * d1
    M[-1, 0] = -1.0 / h**2 - 2j * (phi / L) * d1
    vals = np.linalg.eigvalsh(M)
    return np.sort(vals.real)[:n_eigs]


def twisted_ground_exact(L: float, phi: float) -> float:
    ms = np.arange(-3, 4)
    return float(np.min(((2.0 * math.pi * ms + phi) / L) ** 2))


# --------------------------------------------------------------------------
# generalized Poincare inequalities
# --------------------------------------------------------------------------

def _phase(K: int, n: int) -> np.ndarray:
    """exp(2 pi i k j / n) for the modes k = np.arange(K) - K // 2 (rows)
    and the grid points j (columns)."""
    kj = np.outer(np.arange(K) - K // 2, np.arange(n)) % n
    return np.exp((2j * math.pi / n) * kj)


def _synthesize(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Samples on the n-point periodic grid of the real part of
    sum_k c_k exp(2 pi i k.j/n), written into ``out`` (n^d C-contiguous
    floats): one contraction per axis with a K x n phase matrix, K n^d work
    for the last one instead of an n^d FFT, with ``np.tensordot``'s bits."""
    n = out.shape[0]
    if coeffs.shape[0] > n:
        raise ValueError("the grid must resolve every mode: K <= n")
    phase = _phase(coeffs.shape[0], n)
    field = coeffs
    for _ in range(coeffs.ndim - 1):
        # contracting the leading axis moves the new grid axis to the end
        field = np.tensordot(field, phase, axes=(0, 0))
    # Re(p e) = Re p Re e - Im p Im e, as one real contraction
    field = np.concatenate((field.real, field.imag))
    phase = np.concatenate((phase.real, -phase.imag))
    # tensordot's own product: the grid axes first, the contracted one last
    grid = field.transpose((*range(1, field.ndim), 0)).reshape(-1, len(phase))
    np.dot(grid, phase, out=out.reshape(-1, n))
    return out


def random_field(rng: np.random.Generator, kmax: int,
                 complex_valued: bool = False) -> np.ndarray:
    """Band-limited random field: the (K, K, K) Fourier coefficients,
    K = 2 kmax + 1, of the modes |k_i| <= kmax, Gaussian (smooth by
    construction), with modes ``np.arange(K) - K // 2`` along each axis (the
    ``fftshift`` order).  They are drawn in (kx, ky, kz) order, real part
    first; a real field keeps the coefficients of the real part."""
    K = 2 * kmax + 1
    z = rng.normal(size=(K**3, 2))
    coeffs = (z[:, 0] + 1j * z[:, 1]).reshape(K, K, K)
    if not complex_valued:
        # coefficients of the real part: c_k -> (c_k + conj(c_-k)) / 2
        coeffs = 0.5 * (coeffs + np.conj(coeffs[::-1, ::-1, ::-1]))
    return coeffs


def random_subset(n: int, rng: np.random.Generator, frac_complement: float,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Smooth random super-level-set mask with |Omega^c|/|K| near the
    requested fraction.  ``scratch``, 2 x n^3 floats, holds the field's
    samples in its first row and their partitioned copy in its second; a
    calibration passes one array to all its calls, where fresh n^3 arrays
    would be mapped and faulted in every time."""
    if scratch is None:
        scratch = np.empty((2, n**3))
    samples, ranked = scratch
    g = _synthesize(random_field(rng, 2), samples.reshape(n, n, n))
    # np.quantile's threshold lies between the lo-th and hi-th smallest
    # samples (lo, hi the floor and ceiling of frac (n^3 - 1)), and no sample
    # lies strictly between them, so its mask is g >= the hi-th smallest
    hi = math.ceil(frac_complement * (g.size - 1))
    ranked[...] = samples
    ranked.partition(hi)
    return g >= ranked[hi]


def _gradient_norms(coeffs: np.ndarray, L: float, omega_mask: np.ndarray,
                    phi: float = 0.0, scratch: np.ndarray | None = None):
    """Sums over Omega and over the whole grid of |grad u + i phi/L e_z u|^2
    (e_z the last axis) for the field u with band coefficients ``coeffs``.
    The grid's size and dimension are the mask's.  The gradient is the exact
    one of u's trigonometric polynomial, so the calibrated constants depend
    on the resolution only through the mask.

    With coefficients a_k of a component, sum_Omega |g|^2 is the quadratic
    form sum_{k,k'} conj(a_k) a_k' m(k' - k) with m the transform of the
    mask on the 2K - 1 mode differences, and the full sum is Parseval's
    n^d sum_k |a_k|^2: no gradient is sampled.  The mask's float copy goes
    to ``scratch`` (n^d floats) when it is given.
    """
    n, d = omega_mask.shape[0], omega_mask.ndim
    K = coeffs.shape[0]
    k = (2.0 * math.pi / L) * (np.arange(K) - K // 2)
    grads = []
    for ax in range(d):
        shape = [1] * d
        shape[ax] = K
        mult = 1j * (k + phi / L) if ax == d - 1 else 1j * k
        grads.append(coeffs * mult.reshape(shape))
    # m(q) = sum_x mask(x) exp(2 pi i q.x/n), q in [-(K-1), K-1]^d; the
    # first contraction is of a real array, so it is two real products
    phase = _phase(2 * K - 1, n)
    # tensordot's operands, (grid axes, x) and (x, q), with the mask's axis
    # x moved last in one float copy where tensordot would take two
    if scratch is None:
        scratch = np.empty(omega_mask.size)
    grid = scratch.reshape(-1, n)
    np.copyto(grid.reshape(omega_mask.shape[1:] + (n,)),
              np.moveaxis(omega_mask, 0, -1))
    shape = omega_mask.shape[1:] + (2 * K - 1,)
    m = (np.dot(grid, phase.real.T).reshape(shape)
         + 1j * np.dot(grid, phase.imag.T).reshape(shape))
    for _ in range(d - 1):
        m = np.tensordot(m, phase, axes=(0, 1))
    # gram[k, k'] = m(k' - k) over the flattened bands
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


def _padded(coeffs: np.ndarray, K: int) -> np.ndarray:
    """Band coefficients embedded in the wider band of K modes per axis."""
    out = np.zeros((K,) * coeffs.ndim, dtype=complex)
    lo = K // 2 - coeffs.shape[0] // 2
    out[(slice(lo, lo + coeffs.shape[0]),) * coeffs.ndim] = coeffs
    return out


def _parseval(coeffs: np.ndarray, n: int) -> float:
    """Sum of |u|^2 over the periodic n^d grid for the field u with band
    coefficients ``coeffs``: n^d sum_k |c_k|^2 (Parseval; K <= n)."""
    return n ** coeffs.ndim * float(np.sum(np.abs(coeffs) ** 2))


def _centred(coeffs: np.ndarray, n: int):
    """The band coefficients of u - <u> for the field u of ``coeffs`` on the
    n^d grid (the mean is the zero mode), and the sum of its |.|^2 over the
    grid (Parseval's)."""
    coeffs = coeffs.copy()
    coeffs[(coeffs.shape[0] // 2,) * coeffs.ndim] = 0.0
    return coeffs, _parseval(coeffs, n)


@dataclass(frozen=True)
class PoincareResult:
    ratio: float
    lhs: float
    rhs_structural: float
    omega_complement_fraction: float
    pieces: dict


def poincare_check(variant: str, coeffs: np.ndarray, L: float,
                   omega_mask: np.ndarray, weight: np.ndarray | None = None,
                   phi: float = 0.0,
                   scratch: np.ndarray | None = None) -> PoincareResult:
    """Measure one instance of a generalized Poincare inequality for the
    field f with band coefficients ``coeffs`` (as ``random_field`` returns
    them) on the cube K of side L, sampled on the grid of ``omega_mask``,
    which marks Omega.

    homogeneous:  |f - <f>|^2_K <= C [ L^2 |grad f|^2_Omega
                                       + |Omega^c|^{2/3} |grad f|^2_K ]
    inhomogeneous: |f|^2_K <= C [ |grad f|^2_Omega
                                  + (|Omega^c|/|K|)^{2/d} |grad f|^2_K ]
                  for int f h = 0 with the weight h of band coefficients
                  ``weight``
    vector_potential: with grad_phi = grad + i(0,0,phi/L) and <f> = 0,
                  ratio = (|grad_phi f|^2_Omega - phi^2/L^2 |f|^2_K)
                          / ((|Omega^c|/L^3)^{1/2} |grad_phi f|^2_K);
                  bounded below by -C across a corpus (and nonnegative when
                  Omega^c is empty, since the twisted ground state is
                  nondegenerate for |phi| < pi).

    Returns the measured ratio LHS / structural RHS (no constants folded in).
    Every sum over the grid is taken from the coefficients by Parseval,
    sum_x |u|^2 = n^d sum_k |c_k|^2, which holds only when the grid
    resolves every mode, K <= n (ValueError otherwise): the mean is the zero
    mode, and the centred norm, the projection and the weight's inner
    products are sums over modes.  No sample is synthesized.  ``scratch``,
    n^d floats, holds the mask's float copy if it is given.
    """
    n, d = omega_mask.shape[0], omega_mask.ndim
    if coeffs.shape[0] > n:
        raise ValueError("the grid must resolve every mode: K <= n")
    dV = (L / n) ** d
    vol = L ** d
    comp_vol = float(omega_mask.size - np.count_nonzero(omega_mask)) * dV

    if variant == "homogeneous":
        coeffs, lhs = _centred(coeffs, n)
        lhs *= dV
        g2_omega, g2_full = (s * dV for s in _gradient_norms(
            coeffs, L, omega_mask, scratch=scratch))
        rhs = L**2 * g2_omega + comp_vol ** (2.0 / 3.0) * g2_full
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
        return PoincareResult(ratio, lhs, rhs, comp_vol / vol,
                              {"grad_omega": g2_omega, "grad_full": g2_full})

    if variant == "inhomogeneous":
        if weight is None:
            raise ValueError("inhomogeneous variant needs the weight h")
        # enforce int f h = 0 by projection, then measure
        K = max(coeffs.shape[0], weight.shape[0])
        if K > n:
            raise ValueError("the grid must resolve every mode: K <= n")
        a, b = _padded(coeffs, K), _padded(weight, K)
        # sum_x u conj(w) = n^d sum_k a_k conj(b_k), w real
        wsum = n**d * float(b[(K // 2,) * d].real) * dV
        if abs(wsum - 1.0) > 1e-8:
            raise ValueError("weight must integrate to 1")
        c = float(np.vdot(b, a).real) / float(np.vdot(b, b).real)
        coeffs = a - c * b
        lhs = _parseval(coeffs, n) * dV
        g2_omega, g2_full = _gradient_norms(coeffs, L, omega_mask,
                                            scratch=scratch)
        rhs = g2_omega * dV + (comp_vol / vol) ** (2.0 / d) * g2_full * dV
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
        return PoincareResult(ratio, lhs, rhs, comp_vol / vol, {})

    if variant == "vector_potential":
        if abs(phi) >= math.pi:
            raise ValueError("vector-potential variant needs |phi| < pi")
        coeffs, norm2 = _centred(coeffs, n)
        norm2 *= dV
        if norm2 == 0.0:
            return PoincareResult(0.0, 0.0, 0.0, comp_vol / vol, {})
        g2_omega, g2_full = (s * dV for s in _gradient_norms(
            coeffs, L, omega_mask, phi, scratch))
        excess = g2_omega - (phi / L) ** 2 * norm2
        if comp_vol == 0.0:
            ratio = excess / (norm2 / L**2)
        else:
            ratio = excess / ((comp_vol / vol) ** 0.5 * g2_full)
        return PoincareResult(ratio, excess, g2_full, comp_vol / vol,
                              {"norm2": norm2, "grad_omega": g2_omega})

    raise ValueError(f"unknown Poincare variant {variant!r}")


# the band coefficients of the weight h = 1 + cos(2 pi x)/2 on the unit
# cube, which integrates to 1: three modes along x
_COSINE_WEIGHT = np.zeros((3, 3, 3))
_COSINE_WEIGHT[:, 1, 1] = (0.25, 1.0, 0.25)


def poincare_calibrate(variant: str, n: int = 24, n_cases: int = 100,
                       seed: int = 1234) -> dict:
    """Run a seeded corpus; returns the calibrated constant and extremes.

    homogeneous/inhomogeneous: C_hat = max ratio (inequality constant).
    vector_potential: C_hat = max(0, -min ratio) (the error-term constant),
    at the flux phi = pi/2.  The inhomogeneous weight is
    h = 1 + cos(2 pi x)/2.

    The field bandwidth kmax = 2 stays well below the grid Nyquist so the
    calibrated constant is resolution-stable.
    """
    rng = np.random.default_rng(seed)
    # the samples and their partitioned copy of every mask, then the mask's
    # float copy in the first row: one mapping per calibration instead of
    # n^3 arrays per case, and unmapped when the calibration ends, where a
    # freed heap block of its size would stay resident
    scratch = np.frombuffer(mmap.mmap(-1, 2 * n**3 * 8)).reshape(2, n**3)
    samples = scratch[0]
    ratios = []
    for _ in range(n_cases):
        frac = rng.uniform(0.0, 0.5)
        mask = random_subset(n, rng, frac, scratch)
        coeffs = random_field(rng, 2, variant == "vector_potential")
        ratios.append(poincare_check(variant, coeffs, 1.0, mask,
                                     _COSINE_WEIGHT, 0.5 * math.pi,
                                     samples).ratio)
    ratios = np.asarray(ratios)
    if variant == "vector_potential":
        c_hat = max(0.0, float(-np.min(ratios)))
    else:
        c_hat = float(np.max(ratios))
    return {"variant": variant, "C_hat": c_hat, "n": n, "cases": n_cases,
            "seed": seed, "min_ratio": float(np.min(ratios)),
            "max_ratio": float(np.max(ratios))}


# --------------------------------------------------------------------------
# band-matrix localization (large-matrix lemma)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BandMatrixCase:
    matrix: np.ndarray
    psi: np.ndarray
    M: int

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("matrix must be square")
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-10:
            raise ValueError("psi must be normalized")
        if not (1 <= self.M <= n):
            raise ValueError("window must satisfy 1 <= M <= N+1")


@dataclass(frozen=True)
class LocalizationResult:
    window_start: int
    phi: np.ndarray
    lhs: float
    lam: float
    d: np.ndarray
    rhs_term_quadratic: float   # (1/M^2) sum_{k<M} k^2 |d_k|
    rhs_term_tail: float        # sum_{k>=M} |d_k|

    def rhs(self, C: float) -> float:
        return self.lam + C * (self.rhs_term_quadratic + self.rhs_term_tail)


def localize_band_matrix(case: BandMatrixCase) -> LocalizationResult:
    """Search all windows of length M for the minimal Rayleigh quotient and
    report the pieces of the localization inequality

        (phi, A phi) <= lambda + (C/M^2) sum_{k<M} k^2 |d_k| + C sum_{k>=M} |d_k|,

    d_k = (psi, A^k psi) over the k-th supra+infra diagonal."""
    A = case.matrix
    psi = case.psi
    n = A.shape[0]
    # d_k sums Re conj(psi_i) A_ij psi_j over the upper diagonal j - i = k
    i, j = np.triu_indices(n)
    terms = np.real(np.conj(psi[i]) * A[i, j] * psi[j])
    d = np.bincount(j - i, weights=terms, minlength=n)
    d[1:] *= 2.0
    lam = float(np.sum(d))
    M = case.M
    starts = np.arange(n - M + 1)
    windows = sliding_window_view(A, (M, M))[starts, starts]
    vals, vecs = np.linalg.eigh(windows)
    best_start = int(np.argmin(vals[:, 0]))       # the first minimal window
    best_val = float(vals[best_start, 0])
    phi = np.zeros(n)
    phi[best_start:best_start + M] = vecs[best_start, :, 0]
    ks = np.arange(1, M)
    quad = float(np.sum(ks**2 * np.abs(d[1:M]))) / M**2
    tail = float(np.sum(np.abs(d[M:])))
    return LocalizationResult(best_start, phi, best_val, lam, d, quad, tail)


# --------------------------------------------------------------------------
# exact diagonalization of the 1D delta gas
# --------------------------------------------------------------------------

def _rotated_keys(states: np.ndarray, m: int) -> np.ndarray:
    """Keys (lexicographic ranks) of the sorted site tuples ``states`` on
    the m-site ring, rotated so that their i-th particle sits at site 0:
    column i of the result."""
    n = states.shape[1]
    rotated = np.sort((states[:, None, :] - states[:, :, None]) % m, axis=2)
    return np.ravel_multi_index(tuple(np.moveaxis(rotated, 2, 0)), (m,) * n)


def _delta_gas_energy_at(m: int, n: int, ell: float, g: float) -> float:
    """Ground energy of n bosons on a ring of m >= 3 sites: sum_i T_i (T the
    periodic second difference, h = ell/m) + g/h per coincident pair.

    On all m^n site tuples H has nonpositive off-diagonal entries on a
    connected grid: by Perron-Frobenius its ground state is unique and
    positive, hence symmetric, and translation invariant, since the
    rotation T of the ring commutes with H and T psi is again a positive
    ground state.  So H is solved on the zero-momentum states of the sorted
    tuples, |O> = |O|^{-1/2} sum_{s in O} |s> for each orbit O of the
    rotations, where H_red[O, O'] = sqrt(|O|/|O'|) sum_{s' in O'} H[s0, s']
    for the representative s0 of O (Sandvik, AIP Conf. Proc. 1297, 135
    (2010)).  Among the sorted tuples a hop from x to y has amplitude
    -sqrt(n_x (n_y + 1))/h^2.

    Every orbit holds tuples with a particle at site 0, and its
    representative is the smallest of them: the one that no rotation
    bringing another of its particles to 0 makes smaller.  So only the
    C(m + n - 2, n - 1) tuples that start at 0 are enumerated, and the
    hops are built from the representatives alone.
    """
    h = ell / m
    tails = list(itertools.combinations_with_replacement(range(m), n - 1))
    starts = np.zeros((len(tails), n), dtype=np.intp)
    starts[:, 1:] = tails
    keys = _rotated_keys(starts, m)
    canon = keys.min(axis=1)
    rep = keys[:, 0] == canon
    states, keys, canon = starts[rep], keys[rep], canon[rep]
    # |O| = m / #(rotations that fix s0), each of which brings a distinct
    # occupied site to 0
    first = np.ones(states.shape, dtype=bool)
    first[:, 1:] = states[:, 1:] != states[:, :-1]
    size = m / np.sum((keys == canon[:, None]) & first, axis=1)
    pairs = (np.sum(states[:, None] == states[..., None], axis=(1, 2)) - n) / 2
    H = np.diag(2.0 * n / h**2 + (g / h) * pairs)
    # the first particle at each site hops right and left
    src, i = np.nonzero(first)
    src, i = np.r_[src, src], np.r_[i, i]
    x = states[src, i]
    y = (x + np.repeat((1, -1), len(x) // 2)) % m
    n_from = np.sum(states[src] == x[:, None], axis=1)
    n_to = np.sum(states[src] == y[:, None], axis=1)
    moved = np.where(np.arange(n) == i[:, None], y[:, None], states[src])
    tgt = np.searchsorted(canon, _rotated_keys(np.sort(moved, axis=1),
                                               m).min(axis=1))
    amp = -np.sqrt(n_from * (n_to + 1.0)) / h**2
    np.add.at(H, (src, tgt), np.sqrt(size[src] / size[tgt]) * amp)
    return float(np.linalg.eigvalsh(H)[0])


@dataclass(frozen=True)
class DeltaGasResult:
    energy: float            # Richardson-extrapolated ground energy
    energies_raw: tuple      # values at the sampled resolutions
    resolutions: tuple
    error_estimate: float    # disagreement of successive extrapolants


def exact_diag_delta_gas_1d(n: int, ell: float, g: float,
                            m_base: int = 24) -> DeltaGasResult:
    """Ground energy of n <= 3 bosons with g sum delta(z_i - z_j) on a ring
    of length ell.

    The contact interaction is an on-site potential g/dz (standard grid
    realization); the leading grid error is O(dz), removed by Richardson
    extrapolation over three resolutions.
    """
    if n < 1 or n > 3:
        raise ValueError("n must be 1, 2 or 3")
    ms = (m_base, int(1.5 * m_base), 2 * m_base)
    es = [_delta_gas_energy_at(m, n, ell, g) for m in ms]
    # E(h) = E0 + c h: eliminate pairwise, report the spread
    h = np.array([ell / m for m in ms])
    e01 = (es[1] * h[0] - es[0] * h[1]) / (h[0] - h[1])
    e12 = (es[2] * h[1] - es[1] * h[2]) / (h[1] - h[2])
    return DeltaGasResult(e12, tuple(es), ms, abs(e12 - e01))


# --------------------------------------------------------------------------
# truncated-Fock Bogolubov check
# --------------------------------------------------------------------------

def fock_quadratic_ground(A: float, B_plus: float, B_minus: float,
                          cutoff: int) -> float:
    """Ground energy of the paired quadratic form on a truncated bosonic
    Fock space with true annihilation operators.

    Two modes suffice when B_minus = 0 (one-component convention); the
    general case uses four modes (tau, e) with the ee' sign structure.
    Dimension is capped at 2e4.

    H conserves Q = N_+ - N_- (quanta in tau = + modes minus quanta in
    tau = - modes), so it is block diagonal in Q.  Each Q sector is built
    directly from the occupation numbers and the result is the lowest
    eigenvalue over all sectors.  Swapping tau = + with tau = - maps the
    sector Q onto -Q with the same matrix entries, so only Q >= 0 is built.
    Q = 0 is solved first; a later sector is solved only when the Cholesky
    factorization of H_Q - E I fails, E being the lowest value so far (when
    it succeeds, H_Q has no eigenvalue below E).  Solves are full dense
    eigensolves: bisection for the lowest eigenvalue alone is accurate only
    to eps ||H||, which moves the cutoff-40 value by hundreds of ulps.
    """
    if cutoff < 2:
        raise ValueError("cutoff must allow at least 2 quanta per mode")
    if B_minus == 0.0:
        charges, coup = ("+",), {("+", "+"): B_plus}
    else:
        charges = ("+", "-")
        Bval = {"+": B_plus, "-": B_minus}
        sgn = {"+": 1.0, "-": -1.0}
        coup = {(e, ep): math.sqrt(Bval[e] * Bval[ep]) * sgn[e] * sgn[ep]
                for e in charges for ep in charges}
    n_modes = 2 * len(charges)
    if (cutoff + 1) ** n_modes > 2e4:
        raise ValueError("truncated space too large")
    # modes (tau, e): (+,+), (-,+) [, (+,-), (-,-)]; basis state s has
    # occ[i, s] quanta in mode i and index s = sum_i occ[i, s] stride[i]
    mode = {(tau, e): 2 * k + (tau == "-")
            for k, e in enumerate(charges) for tau in "+-"}
    occ = np.indices((cutoff + 1,) * n_modes).reshape(n_modes, -1)
    stride = (cutoff + 1) ** np.arange(n_modes - 1, -1, -1)
    root = np.sqrt(np.arange(cutoff + 2))
    # H = A N + sum_{tau,e,e'} c_ee' b+_(tau,e) b_(tau,e')
    #       + sum_{e,e'} c_ee' (b+_(+,e) b+_(-,e') + h.c.)
    diag = A * occ.sum(axis=0)
    for e in charges:
        diag = diag + coup[e, e] * (occ[mode["+", e]] + occ[mode["-", e]])
    # off-diagonal entries below: b+_i b+_j (sj = +1) or b+_i b_j (sj = -1)
    # from state s to s + stride[i] + sj stride[j]; each transposed entry
    # is the Hermitian conjugate term
    src, tgt, amp = [], [], []
    for (e, ep), c in coup.items():
        terms = [(mode["+", e], mode["-", ep], 1)]
        if (e, ep) == ("+", "-"):      # the (-, +) hopping is its transpose
            terms += [(mode[tau, e], mode[tau, ep], -1) for tau in "+-"]
        for i, j, sj in terms:
            nj = occ[j] + (sj > 0)       # sqrt(nj) is the factor of b(+)_j
            s = np.flatnonzero((occ[i] < cutoff) & (nj > 0) & (nj <= cutoff))
            src.append(s)
            tgt.append(s + stride[i] + sj * stride[j])
            amp.append(c * (root[occ[i, s] + 1] * root[nj[s]]))
    src, tgt, amp = (np.concatenate(x) for x in (src, tgt, amp))
    q = occ[0::2].sum(axis=0) - occ[1::2].sum(axis=0)
    q_src = q[src]
    best = math.inf
    for sector in range(q.max() + 1):            # Q = 0 first
        states = np.flatnonzero(q == sector)
        sel = np.flatnonzero(q_src == sector)
        rows, cols = (np.searchsorted(states, x[sel]) for x in (tgt, src))
        H = np.diag(diag[states])
        H[rows, cols] = amp[sel]
        H[cols, rows] = amp[sel]
        if sector > 0:
            try:
                np.linalg.cholesky(H - best * np.eye(states.size))
                continue
            except np.linalg.LinAlgError:
                pass
        best = min(best, float(np.linalg.eigvalsh(H)[0]))
    return best
