"""Particle and energy observables of evolved particle profiles.

Every series here is c^t Kc c + s^t Ks s over the cos/sin rows c, s of
2t lam, which quasifree.trace_series takes over a whole time grid as real
matrix products: O(n^2) per step and no propagator built.  The isotropic
series trace tr(e^{2itA} O e^{-2itA} diag(eta)) with
Kc = Ks = (V^t O V) o (V^t diag(eta) V)^t over A's eigenvectors V.  The
anisotropic energy runs over the n modes of A + B = Phi diag(lam) Psi^t:

    <H_S>_t - <H_S>_0 = -[c^t (G o P) c + s^t (G o P^t) s] - (same at t = 0),

G = Psi_S^t (A - B)_SS Phi_S, P = Psi^t diag(1 - 2 eta) Phi.  The bounds
C e^{-eta d} / (1 - e^{-eta})^2 are DecayFit.bound at d = dist(S1, S2).
A region is a sorted list of distinct sites in [1, n], and a profile
holds one occupation in [0, 1] per site.
"""

from __future__ import annotations

import numpy as np

from .disorder import ChainSpec, EnsembleSpec
from .eigencorrelator import DecayFit
from .hamiltonian import SpectralDecomposition, bogoliubov, build_A, build_B
from .quasifree import _occupations, trace_series


def region_distance(s1, s2) -> int:
    """min |x - y| over sites x in S1, y in S2."""
    return int(min(abs(x - y) for x in s1 for y in s2))


def _region_rows(s1, n: int, interval: bool = False) -> np.ndarray:
    """0-based rows of a region of the n-site chain, an interval if asked."""
    rows = np.asarray(s1, dtype=int) - 1
    if rows.ndim != 1 or not len(rows) or rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"region must be nonempty sites in [1, {n}], got {(rows + 1).tolist()}")
    if interval and rows[-1] - rows[0] + 1 != len(rows):
        raise ValueError("energy restriction requires an interval region")
    return rows


def _profile(chain: ChainSpec, eta) -> np.ndarray:
    """The profile eta as occupations, one per site of the chain."""
    eta = _occupations(eta)
    if eta.shape != (chain.n,):
        raise ValueError(f"profile must have one entry per site, n = {chain.n}; got shape {eta.shape}")
    return eta


def _profile_trace(sd: SpectralDecomposition, rows, O: np.ndarray, occupations, times) -> np.ndarray:
    """Re tr(e^{2itX} O_R e^{-2itX} diag(occupations)) for the operator O
    on the rows R of X = V diag(lam) V^t: trace_series with Kc = Ks =
    (V_R^t O V_R) o ((V^t diag(occupations)) V)^t."""
    V = sd.eigenvectors
    Vr = V[rows, :]
    K = (Vr.T @ (O @ Vr)) * ((V.T * occupations) @ V).T
    return trace_series(sd.eigenvalues, K, K, times)


def particle_number_series(chain: ChainSpec, s1, eta, times, sd: SpectralDecomposition) -> np.ndarray:
    """<N_{S1}> along the evolution of the profile state,
    sum_{j in S1} sum_k |exp(-2itA)_{jk}|^2 eta_k, as the profile trace of
    the identity on S1, from sd = diagonalize_A(chain), the one
    decomposition per chain that serves several observables."""
    if not chain.isotropic:
        raise ValueError("particle transport applies to the isotropic chain")
    rows = _region_rows(s1, chain.n)
    return _profile_trace(sd, rows, np.eye(len(rows)), _profile(chain, eta), times)


def particle_transport_bound(fit: DecayFit, d: int) -> float:
    """2 C e^{-eta d} / (1 - e^{-eta})^2 from fitted eigencorrelator decay."""
    return fit.bound(2.0, d)


def energy_series_isotropic(chain: ChainSpec, s1, eta, times, sd: SpectralDecomposition) -> np.ndarray:
    """Series of <H_{S1}>_t - sum_{S1} nu_j (the t = 0 value when the profile
    vanishes on S1), the trace 2 tr(exp(2itA) A_S1 exp(-2itA) diag(eta)),
    twice the profile trace of A_S1; sd as in particle_number_series."""
    if not chain.isotropic:
        raise ValueError("isotropic energy formula requires gamma = 0")
    idx = _region_rows(s1, chain.n, interval=True)
    A = build_A(chain)
    return 2.0 * _profile_trace(sd, idx, A[np.ix_(idx, idx)], _profile(chain, eta), times)


def energy_transport_bound(fit: DecayFit, d: int, matrix_norm_bound: float) -> float:
    """4 C D e^{-eta d} / (1 - e^{-eta})^2 with D a uniform bound on ||A||."""
    return fit.bound(4.0 * matrix_norm_bound, d)


def matrix_norm_bound(ensemble: EnsembleSpec) -> float:
    """Uniform bound D = 2 mu_max + nu_max on the one-particle matrix norm."""
    return 2.0 * ensemble.mu_dist.abs_max + ensemble.nu_dist.abs_max


def energy_fluctuation_series(chain: ChainSpec, s1, eta, times) -> np.ndarray:
    """<H_{S1}>_t - <H_{S1}>_0 for a general profile on the (possibly
    anisotropic) interval S1, by the n-mode identity of the module:
    -[c^t (G o P) c + s^t (G o P^t) s] with G = Psi_S^t (A - B)_SS Phi_S,
    A - B = (A + B)^t, and P = Psi^t diag(1 - 2 eta) Phi, less its value
    at the grid's first time."""
    idx = _region_rows(s1, chain.n, interval=True)
    eta = _profile(chain, eta)
    bog = bogoliubov(chain)
    G = bog.Psi[idx].T @ (build_A(chain) - build_B(chain))[np.ix_(idx, idx)] @ bog.Phi[idx]
    P = (bog.Psi.T * (1.0 - 2.0 * eta)) @ bog.Phi
    out = -trace_series(bog.lam, G * P, G * P.T, times)
    return out - out[0]


def mean_energy(chain: ChainSpec, eta) -> float:
    """<H> in the profile state: sum nu_j (1 - 2 eta_j)."""
    return float(np.sum(chain.nu_array() * (1.0 - 2.0 * _profile(chain, eta))))
