"""Correlation matrices of quasi-free states and their dynamics.

A quasi-free state is fully encoded by the 2n x 2n matrix of two-point
functions in the interleaved (c_j, c_j^*) ordering; block (j, k) is

    [[ <c_j c_k^*>,   <c_j c_k>   ],
     [ <c_j^* c_k^*>, <c_j^* c_k> ]].

Eigenstates and thermal states of the chain are spectral functions of
the effective Hamiltonian M; particle profiles are diagonal.  Under the
chain dynamics the matrix evolves by conjugation with exp(-2itM); the
result is Hermitian but in general complex (off-diagonal currents), and
is kept as such.  Multi-point functions in the particle-conserving
sector are determinants of a one-particle kernel, with a structured
bound controlling them in terms of the kernel's entry decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .disorder import ChainSpec
from .hamiltonian import BogoliubovDecomposition, SpectralDecomposition


@dataclass
class CorrelationMatrix:
    """Two-point function matrix of a quasi-free state.

    gamma is real symmetric for the states constructed at time zero and
    complex Hermitian after time evolution.  `degenerate` propagates the
    mode-collision flag of the defining decomposition.
    """

    gamma: np.ndarray
    n: int
    degenerate: bool = False

    def __post_init__(self):
        if self.gamma.shape != (2 * self.n, 2 * self.n):
            raise ValueError(
                f"gamma must be {2 * self.n}x{2 * self.n}, got {self.gamma.shape}"
            )

    def occupations(self) -> np.ndarray:
        """<c_j^* c_j> for j = 1..n."""
        return np.real(np.diag(self.gamma)[1::2]).copy()

    def one_particle_density(self) -> np.ndarray:
        """Matrix rho with rho[j, k] = <c_k^* c_j> (the kernel entering
        determinantal multi-point functions)."""
        return self.gamma[1::2, 1::2].T.copy()

    def validate(self, atol: float = 1e-9) -> None:
        """Check Hermiticity and the spectral bounds 0 <= gamma <= 1."""
        herm = np.max(np.abs(self.gamma - self.gamma.conj().T))
        if herm > atol:
            raise ValueError(f"gamma not Hermitian: residual {herm:.3e}")
        w = np.linalg.eigvalsh(self.gamma)
        if w[0] < -atol or w[-1] > 1 + atol:
            raise ValueError(f"gamma spectrum outside [0,1]: [{w[0]:.3e}, {w[-1]:.3e}]")

    def purity_defect(self) -> float:
        """max |gamma^2 - gamma|; ~0 for pure quasi-free states."""
        return float(np.max(np.abs(self.gamma @ self.gamma - self.gamma)))


def mode_selector(alpha) -> np.ndarray:
    """Diagonal 0/1 selector in the (+lambda_j, -lambda_j) block basis:
    (1 - alpha_j, alpha_j) per block."""
    alpha = np.asarray(alpha)
    sel = np.empty(2 * len(alpha))
    sel[0::2] = 1 - alpha
    sel[1::2] = alpha
    return sel


def eigenstate_gamma(bog: BogoliubovDecomposition, alpha) -> CorrelationMatrix:
    """Correlation matrix of the eigenstate with occupation pattern alpha:
    the spectral projection W^t P W selecting +lambda_j for empty modes
    and -lambda_j for occupied ones."""
    alpha = np.asarray(alpha)
    if len(alpha) != bog.n or not np.all((alpha == 0) | (alpha == 1)):
        raise ValueError("alpha must be a 0/1 vector of length n")
    P = mode_selector(alpha)
    gamma = (bog.W.T * P) @ bog.W
    return CorrelationMatrix(gamma=gamma, n=bog.n, degenerate=bog.degenerate)


def thermal_gamma(sd_M: SpectralDecomposition, beta: float) -> CorrelationMatrix:
    """Correlation matrix (1 + exp(-2 beta M))^{-1} of the Gibbs state,
    computed spectrally from the decomposition sd_M of M (stable via the
    logistic function)."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    gamma = sd_M.function_of(lambda lam: expit(2.0 * beta * lam))
    return CorrelationMatrix(gamma=gamma, n=sd_M.dim // 2)


def profile_gamma(eta_profile) -> CorrelationMatrix:
    """Product state with site occupations eta_j: diagonal blocks
    diag(1 - eta_j, eta_j).  (The occupation slot is the <c^* c> one;
    fixed against the brute-force oracle at n = 2.)"""
    eta = np.asarray(eta_profile, dtype=float)
    if np.any((eta < 0) | (eta > 1)):
        raise ValueError("profile entries must lie in [0, 1]")
    return CorrelationMatrix(gamma=np.diag(mode_selector(eta)), n=len(eta))


def evolve_gamma(cm: CorrelationMatrix, sd_M: SpectralDecomposition, t: float) -> CorrelationMatrix:
    """Heisenberg-picture update exp(-2itM) gamma exp(+2itM): the whole
    matrix as the one-time restricted_series over every row of V.

    The result is Hermitian but genuinely complex at t != 0 for states
    that do not commute with M (the imaginary parts carry the currents);
    it is verified Hermitian to 1e-9 and returned complex, collapsing to
    the real dtype only when the imaginary part is negligible.
    """
    V = sd_M.eigenvectors
    gt = restricted_series(V, sd_M.eigenvalues, V.T @ cm.gamma @ V, [t])[0]
    if np.max(np.abs(gt.imag)) < 1e-12:
        gt = gt.real
    return CorrelationMatrix(gamma=gt, n=cm.n, degenerate=cm.degenerate)


# ---------------------------------------------------------------------------
# eigenbasis time series: whole time grids after one change of basis

# Float64 entries per batched intermediate of a whole-grid kernel (1 MiB);
# longer grids are evaluated in chunks of times so memory stays bounded.
_GRID_CHUNK_ENTRIES = 1 << 17


def _grid_chunks(times: np.ndarray, per_time: int):
    """Consecutive slices of the grid whose batched intermediates hold at
    most _GRID_CHUNK_ENTRIES float64 entries, per_time of them per time."""
    step = max(1, _GRID_CHUNK_ENTRIES // per_time)
    return (times[s : s + step] for s in range(0, len(times), step))


def trace_series(lam: np.ndarray, K: np.ndarray, times, scale: float) -> np.ndarray:
    """sum_ab exp(i scale t (lam_a - lam_b)) K_ab for every t of the grid.

    This is the bilinear trace tr(exp(i scale t X) O exp(-i scale t X) G)
    of X = V diag(lam) V^t once K = (V^t O V) o (V^t G V)^t is formed: the
    grid costs (T x d) @ (d x d) products, taken over chunks of times so
    memory stays bounded, with no propagator built.  Complex in general;
    real for Hermitian O and G.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty(len(times), dtype=complex)
    start = 0
    for ts in _grid_chunks(times, 2 * len(lam)):  # one complex phase row per time
        P = np.exp(1j * scale * np.outer(ts, lam))
        out[start : start + len(ts)] = np.einsum("ta,ta->t", P @ K, P.conj())
        start += len(ts)
    return out


def restricted_series(V_A: np.ndarray, lam: np.ndarray, G: np.ndarray, times) -> np.ndarray:
    """Stack of the evolved blocks gamma_t[A, A] = V_A e^{-2it lam} G e^{2it lam} V_A^t,
    with V_A the rows of the eigenvectors of M on the block and
    G = V^t gamma V the initial state in the eigenbasis of M.

    The A-block of evolve_gamma at every t, at O(|A| d^2) per step;
    verified Hermitian to 1e-9 and returned Hermitized and complex.
    """
    times = np.asarray(times, dtype=float)
    rows, dim = V_A.shape
    out = np.empty((len(times), rows, rows), dtype=complex)
    herm = np.max(np.abs(G - G.conj().T), initial=0.0)
    start = 0
    for ts in _grid_chunks(times, 2 * rows * dim):  # complex rows x dim per time
        Q = V_A[None, :, :] * np.exp(-2j * np.outer(ts, lam))[:, None, :]
        blk = (Q @ G) @ Q.conj().transpose(0, 2, 1)
        blk_h = blk.conj().transpose(0, 2, 1)
        herm = max(herm, np.max(np.abs(blk - blk_h), initial=0.0))
        out[start : start + len(ts)] = 0.5 * (blk + blk_h)
        start += len(ts)
    if herm > 1e-9:
        raise ValueError(f"evolved gamma lost Hermiticity: residual {herm:.3e}")
    return out


# ---------------------------------------------------------------------------
# ordered configurations and determinantal correlations


def ordered_configuration(seq, n: int | None = None) -> tuple:
    """Validate a strictly increasing tuple of 1-based site (or mode) indices."""
    cfg = tuple(int(v) for v in seq)
    if any(b <= a for a, b in zip(cfg, cfg[1:])):
        raise ValueError(f"configuration must be strictly increasing: {cfg}")
    if cfg and (cfg[0] < 1 or (n is not None and cfg[-1] > n)):
        raise ValueError(f"configuration entries outside [1, {n}]: {cfg}")
    return cfg


def configuration_distance(x, y) -> int:
    """D(x, y) = max_l |x_l - y_l| for equal-cardinality configurations."""
    if len(x) != len(y):
        raise ValueError("configuration distance needs equal cardinalities")
    return int(max(abs(a - b) for a, b in zip(x, y))) if x else 0


def dynamic_kernel(rho_1p: np.ndarray, sd_A: SpectralDecomposition, t: float) -> np.ndarray:
    """One-particle kernel rho * exp(2itA) whose (x, y) entry is the
    dynamic pair correlation <tau_t(c_y^*) c_x> in the particle
    sector (tau_t(X) = e^{itH} X e^{-itH})."""
    return rho_1p @ sd_A.function_of(lambda lam: np.exp(2j * t * lam))


def multipoint_correlation(kernel: np.ndarray, x, y) -> complex:
    """Determinant of the kernel sampled on ordered configurations:
    the m-point function <tau_t(c^*_{y_m}) .. tau_t(c^*_{y_1}) c_{x_1} .. c_{x_m}>.

    The kernel is the one-particle density of the state (possibly times
    the propagator, see dynamic_kernel); complex in general.
    """
    x = ordered_configuration(x, kernel.shape[0])
    y = ordered_configuration(y, kernel.shape[1])
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("configurations must have equal cardinality m >= 1")
    rows = np.array(x) - 1
    cols = np.array(y) - 1
    return complex(np.linalg.det(kernel[np.ix_(rows, cols)]))


# ---------------------------------------------------------------------------
# structured-determinant bound


def growth_series(cut: float, mu0: float) -> float:
    """I(mu0) = sum_{l>=0} (1+l) exp(-mu0 K(l)) in closed form for the
    growth profile K(l) = 0 below the cut and l at or above it (cut 0 is
    the linear K(l) = l): with q = exp(-mu0) and L = ceil(cut) the first
    term past the plateau, the plateau head L(L+1)/2 plus the tail
    q^L (L+1-Lq)/(1-q)^2."""
    if mu0 <= 0:
        raise ValueError(f"mu0 must be positive, got {mu0}")
    L = max(0, math.ceil(cut))
    q = math.exp(-mu0)
    return 0.5 * L * (L + 1) + math.exp(-mu0 * L) * (L + 1 - L * q) / math.expm1(-mu0) ** 2


def sw_bound(cut: float, mu0: float, mu: float, C: float, D):
    """Upper bound on |det| of an m x m sample of a kernel whose entries
    decay like C exp(-mu K(|x-y|)) with ||kernel|| <= 1, K the growth
    profile thresholded at the cut:

        8 max(C I(mu0), sqrt(C I(mu0))) * exp(-(mu-mu0)/2 * K(D/2)),

    valid for any pair of ordered configurations at distance D, any m;
    D may be an array of distances.
    """
    if not mu > mu0 > 0:
        raise ValueError(f"need mu > mu0 > 0, got mu={mu}, mu0={mu0}")
    CI = C * growth_series(cut, mu0)
    cprime = 8.0 * max(CI, math.sqrt(CI))
    half = np.asarray(D, dtype=float) / 2.0
    return cprime * np.exp(-0.5 * (mu - mu0) * np.where(half < cut, 0.0, half))


def quench_initial_gamma(chain: ChainSpec, ell: int, alpha_left, alpha_right):
    """Correlation matrix of (left eigenstate) x (right eigenstate) for
    the chain split after site ell, together with the two mode spectra.

    The halves are the open-boundary restrictions of the chain; the bond
    mu_ell, gamma_ell is dropped.
    """
    from .disorder import make_chain
    from .hamiltonian import bogoliubov

    n = chain.n
    if not 1 <= ell < n:
        raise ValueError(f"ell must be in [1, {n - 1}], got {ell}")
    left = make_chain(chain.mu[: ell - 1], chain.gamma[: ell - 1], chain.nu[:ell])
    right = make_chain(chain.mu[ell:], chain.gamma[ell:], chain.nu[ell:])
    bog_l = bogoliubov(left)
    bog_r = bogoliubov(right)
    g_l = eigenstate_gamma(bog_l, alpha_left)
    g_r = eigenstate_gamma(bog_r, alpha_right)
    gamma = np.zeros((2 * n, 2 * n))
    gamma[: 2 * ell, : 2 * ell] = g_l.gamma
    gamma[2 * ell :, 2 * ell :] = g_r.gamma
    degenerate = g_l.degenerate or g_r.degenerate
    return CorrelationMatrix(gamma=gamma, n=n, degenerate=degenerate), bog_l, bog_r
