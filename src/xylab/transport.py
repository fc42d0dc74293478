"""Particle and energy observables of evolved particle profiles.

Every observable here is a bilinear trace tr(e^{itX} O e^{-itX} G) of
the one-particle matrix X (A for the particle-conserving chain, the
2n x 2n effective Hamiltonian M for the anisotropic energy).  After one
change of basis to the eigenvectors V of X it reads
sum_ab e^{it(lam_a - lam_b)} K_ab with K = (V^t O V) o (V^t G V)^t, so
quasifree.trace_series evaluates a whole time grid as matrix products
over chunks of times: O(n^2) per time step and no propagator built.
Every series here is one such profile trace, with G the diagonal
profile.  The bounds C e^{-eta d} / (1 - e^{-eta})^2 are DecayFit.bound
of the fitted eigencorrelator constants at d = dist(S1, S2); the experiment driver
judges the disorder-averaged suprema against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import ChainSpec, EnsembleSpec
from .eigencorrelator import DecayFit
from .hamiltonian import SpectralDecomposition, bogoliubov, build_A, build_M, diagonalize_A
from .quasifree import profile_gamma, trace_series


@dataclass(frozen=True)
class Region:
    """Sorted set of sites; interval_flag marks contiguity."""

    sites: tuple
    interval_flag: bool

    @staticmethod
    def of(sites) -> "Region":
        ss = tuple(sorted(set(int(s) for s in sites)))
        if not ss:
            raise ValueError("region must be nonempty")
        contiguous = ss[-1] - ss[0] + 1 == len(ss)
        return Region(sites=ss, interval_flag=contiguous)


def region_distance(s1: Region, s2: Region) -> int:
    """min |x - y| over x in S1, y in S2."""
    return int(min(abs(x - y) for x in s1.sites for y in s2.sites))


def _profile_trace(sd: SpectralDecomposition, rows, O: np.ndarray, occupations, times) -> np.ndarray:
    """Re tr(e^{2itX} O_R e^{-2itX} diag(occupations)) for the operator O
    on the rows R of X = V diag(lam) V^t: trace_series of
    K = (V_R^t O V_R) o ((V^t diag(occupations)) V)^t."""
    V = sd.eigenvectors
    Vr = V[rows, :]
    K = (Vr.T @ (O @ Vr)) * ((V.T * np.asarray(occupations, dtype=float)) @ V).T
    return trace_series(sd.eigenvalues, K, times, scale=2.0).real


def particle_number_series(
    chain: ChainSpec, s1: Region, eta, times, sd: SpectralDecomposition | None = None
) -> np.ndarray:
    """<N_{S1}> along the evolution of the profile state,
    sum_{j in S1} sum_k |exp(-2itA)_{jk}|^2 eta_k, as the profile trace of
    the identity on S1.  sd, the decomposition diagonalize_A(chain), may be
    passed in so that one decomposition per chain serves several
    observables."""
    if not chain.isotropic:
        raise ValueError("particle transport applies to the isotropic chain")
    if sd is None:
        sd = diagonalize_A(chain)
    rows = np.array(s1.sites) - 1
    return _profile_trace(sd, rows, np.eye(len(rows)), eta, times)


def particle_transport_bound(fit: DecayFit, d: int) -> float:
    """2 C e^{-eta d} / (1 - e^{-eta})^2 from fitted eigencorrelator decay."""
    return fit.bound(2.0, d)


def _interval_projector_indices(s1: Region) -> np.ndarray:
    if not s1.interval_flag:
        raise ValueError("energy restriction requires an interval region")
    return np.array(s1.sites) - 1


def energy_series_isotropic(
    chain: ChainSpec, s1: Region, eta, times, sd: SpectralDecomposition | None = None
) -> np.ndarray:
    """Series of <H_{S1}>_t - sum_{S1} nu_j (the t = 0 value when the profile
    vanishes on S1), the trace 2 tr(exp(2itA) A_S1 exp(-2itA) diag(eta)),
    twice the profile trace of A_S1; sd as in particle_number_series."""
    if not chain.isotropic:
        raise ValueError("isotropic energy formula requires gamma = 0")
    idx = _interval_projector_indices(s1)
    A = build_A(chain)
    if sd is None:
        sd = diagonalize_A(chain)
    return 2.0 * _profile_trace(sd, idx, A[np.ix_(idx, idx)], eta, times)


def energy_transport_bound(fit: DecayFit, d: int, matrix_norm_bound: float) -> float:
    """4 C D e^{-eta d} / (1 - e^{-eta})^2 with D a uniform bound on ||A||."""
    return fit.bound(4.0 * matrix_norm_bound, d)


def matrix_norm_bound(ensemble: EnsembleSpec) -> float:
    """Uniform bound D = 2 mu_max + nu_max on the one-particle matrix norm."""
    return 2.0 * ensemble.mu_dist.abs_max + ensemble.nu_dist.abs_max


def energy_fluctuation_series(chain: ChainSpec, s1: Region, eta, times) -> np.ndarray:
    """<H_{S1}>_t - <H_{S1}>_0 for a general profile on the (possibly
    anisotropic) chain: minus the profile trace of M_{S1} against the
    diagonal of Gamma, less its t = 0 value."""
    idx = _interval_projector_indices(s1)
    M = build_M(chain)
    rows = np.sort(np.concatenate([2 * idx, 2 * idx + 1]))
    occupations = np.diag(profile_gamma(eta).gamma)
    out = -_profile_trace(bogoliubov(chain).spectral, rows, M[np.ix_(rows, rows)], occupations, times)
    return out - out[0]


def mean_energy(chain: ChainSpec, eta) -> float:
    """<H> in the profile state: sum nu_j (1 - 2 eta_j)."""
    eta = np.asarray(eta, dtype=float)
    return float(np.sum(chain.nu_array() * (1.0 - 2.0 * eta)))


def trace_norm_inequality_gap(chain: ChainSpec, s1: Region, s2: Region, eta, t: float):
    """(lhs, rhs) of the per-realization trace bound: the energy trace
    restricted to S2 against 2 ||A|| sum_{j in S2, k in S1} |exp(2itA)_{jk}|."""
    idx1 = _interval_projector_indices(s1)
    idx2 = np.array(s2.sites) - 1
    eta = np.asarray(eta, dtype=float)
    A = build_A(chain)
    sd = diagonalize_A(chain)
    AS1 = np.zeros_like(A)
    AS1[np.ix_(idx1, idx1)] = A[np.ix_(idx1, idx1)]
    U = sd.function_of(lambda lam: np.exp(2j * t * lam))
    evolved = U @ AS1 @ U.conj().T
    lhs = abs(float(np.real(np.sum(np.diag(evolved)[idx2] * eta[idx2]))))
    rhs = 2.0 * np.linalg.norm(A, 2) * float(np.sum(np.abs(U[np.ix_(idx2, idx1)])))
    return lhs, rhs
