"""Particle and energy observables of evolved particle profiles.

Every observable here is a bilinear trace tr(e^{2itX} O e^{-2itX} G) of
the one-particle matrix X (A for the particle-conserving chain, the
2n x 2n effective Hamiltonian M for the anisotropic energy), with G the
diagonal profile.  After one change of basis to the eigenvectors V of X
it reads c^t K c + s^t K s with K = (V^t O V) o (V^t G V)^t and c, s the
cos/sin rows of the one time-series engine, quasifree.phase_rows, so
quasifree.trace_series takes a whole time grid as real matrix products
over chunks of times: O(n^2) per step and no propagator built.  For M,
V is read at the region's sites only, and V^t G V comes from Psi and
Phi by one n x n product.  The bounds C e^{-eta d} / (1 - e^{-eta})^2
are DecayFit.bound of the fitted eigencorrelator constants at
d = dist(S1, S2); the experiment driver judges the disorder-averaged
suprema against them.  A region S is a sorted list of distinct 1-based
sites.
"""

from __future__ import annotations

import numpy as np

from .disorder import ChainSpec, EnsembleSpec
from .eigencorrelator import DecayFit
from .hamiltonian import SpectralDecomposition, _w_columns, bogoliubov, build_A, build_M
from .quasifree import _occupations, trace_series


def region_distance(s1, s2) -> int:
    """min |x - y| over sites x in S1, y in S2."""
    return int(min(abs(x - y) for x in s1 for y in s2))


def _profile_trace(sd: SpectralDecomposition, rows, O: np.ndarray, occupations, times) -> np.ndarray:
    """Re tr(e^{2itX} O_R e^{-2itX} diag(occupations)) for the operator O
    on the rows R of X = V diag(lam) V^t: trace_series of
    K = (V_R^t O V_R) o ((V^t diag(occupations)) V)^t."""
    V = sd.eigenvectors
    Vr = V[rows, :]
    K = (Vr.T @ (O @ Vr)) * ((V.T * np.asarray(occupations, dtype=float)) @ V).T
    return trace_series(sd.eigenvalues, K, times)


def particle_number_series(chain: ChainSpec, s1, eta, times, sd: SpectralDecomposition) -> np.ndarray:
    """<N_{S1}> along the evolution of the profile state,
    sum_{j in S1} sum_k |exp(-2itA)_{jk}|^2 eta_k, as the profile trace of
    the identity on S1, from sd = diagonalize_A(chain), the one
    decomposition per chain that serves several observables."""
    if not chain.isotropic:
        raise ValueError("particle transport applies to the isotropic chain")
    rows = np.array(s1) - 1
    return _profile_trace(sd, rows, np.eye(len(rows)), eta, times)


def particle_transport_bound(fit: DecayFit, d: int) -> float:
    """2 C e^{-eta d} / (1 - e^{-eta})^2 from fitted eigencorrelator decay."""
    return fit.bound(2.0, d)


def _interval_projector_indices(s1) -> np.ndarray:
    """0-based indices of a region that must be an interval of sites."""
    if s1[-1] - s1[0] + 1 != len(s1):
        raise ValueError("energy restriction requires an interval region")
    return np.array(s1) - 1


def energy_series_isotropic(chain: ChainSpec, s1, eta, times, sd: SpectralDecomposition) -> np.ndarray:
    """Series of <H_{S1}>_t - sum_{S1} nu_j (the t = 0 value when the profile
    vanishes on S1), the trace 2 tr(exp(2itA) A_S1 exp(-2itA) diag(eta)),
    twice the profile trace of A_S1; sd as in particle_number_series."""
    if not chain.isotropic:
        raise ValueError("isotropic energy formula requires gamma = 0")
    idx = _interval_projector_indices(s1)
    A = build_A(chain)
    return 2.0 * _profile_trace(sd, idx, A[np.ix_(idx, idx)], eta, times)


def energy_transport_bound(fit: DecayFit, d: int, matrix_norm_bound: float) -> float:
    """4 C D e^{-eta d} / (1 - e^{-eta})^2 with D a uniform bound on ||A||."""
    return fit.bound(4.0 * matrix_norm_bound, d)


def matrix_norm_bound(ensemble: EnsembleSpec) -> float:
    """Uniform bound D = 2 mu_max + nu_max on the one-particle matrix norm."""
    return 2.0 * ensemble.mu_dist.abs_max + ensemble.nu_dist.abs_max


def energy_fluctuation_series(chain: ChainSpec, s1, eta, times) -> np.ndarray:
    """<H_{S1}>_t - <H_{S1}>_0 for a general profile on the (possibly
    anisotropic) chain: minus the profile trace of M_{S1} against the
    diagonal of Gamma, less its t = 0 value, over M's eigenvectors ordered
    (+lambda, -lambda).  With P = Psi^t diag(1 - 2 eta) Phi, the profile
    factor is [[2I + P + P^t, P^t - P], [P - P^t, 2I - P - P^t]] / 4."""
    idx = _interval_projector_indices(s1)
    bog = bogoliubov(chain)
    rows = slice(2 * idx[0], 2 * idx[-1] + 2)
    W = _w_columns(bog, idx)
    V = np.concatenate([W[0::2], W[1::2]])
    P = (bog.Psi.T * (1.0 - 2.0 * _occupations(eta))) @ bog.Phi
    S, A = P + P.T, P.T - P
    I2 = 2.0 * np.eye(bog.n)
    profile = 0.25 * np.block([[I2 + S, A], [-A, I2 - S]])
    K = (V @ build_M(chain)[rows, rows] @ V.T) * profile
    out = -trace_series(np.concatenate([bog.lam, -bog.lam]), K, times)
    return out - out[0]


def mean_energy(chain: ChainSpec, eta) -> float:
    """<H> in the profile state: sum nu_j (1 - 2 eta_j)."""
    eta = np.asarray(eta, dtype=float)
    return float(np.sum(chain.nu_array() * (1.0 - 2.0 * eta)))
