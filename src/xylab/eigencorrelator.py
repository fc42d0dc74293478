"""Eigencorrelators, dynamic amplitudes, decay fits, and the commutator
bounds built from them.

The eigencorrelator table majorizes every bounded spectral function of
the effective Hamiltonian entrywise; in particular it dominates the
time-evolution amplitudes uniformly in t.  Disorder-averaged tables are
fitted log-linearly in distance, and the fitted constants (C, eta) feed
the zero-velocity commutator bounds and the transport/entanglement
bounds downstream.

The sup-over-time kernels (the propagator amplitudes and the clustering
kernel) never build a propagator.  Every entry (j, k) of a symmetric
spectral function of X is w . g(lam) with w = V[j] o V[k], so for the
pairs j <= k that reach the output a chunk of the time grid is one real
product of the stacked w against cos/sin rows, and the running max is
kept in place: O(n^2) per time step instead of an O(n^3) product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import SpectralDecomposition, block_norms
from .quasifree import _grid_chunks


def eigencorrelator_table(sd: SpectralDecomposition, block: bool = False) -> np.ndarray:
    """n x n table Q(j,k) majorizing |g(X)_{jk}| over all |g| <= 1.

    Scalar case: Q(j,k) = sum_r |phi_r(j)| |phi_r(k)| (exact supremum).
    Block case (2n x 2n input, 2x2 blocks per site pair): the sum of
    spectral norms of the eigenprojector blocks, an upper bound for the
    supremum; each projector block is rank one, so its norm is the
    product of the per-site Euclidean norms of the eigenvector.
    """
    V = sd.eigenvectors
    if not block:
        aV = np.abs(V)
        return aV @ aV.T
    if sd.dim % 2:
        raise ValueError("block table requires even dimension")
    n = sd.dim // 2
    U = np.sqrt(V[0::2, :] ** 2 + V[1::2, :] ** 2)  # n x 2n per-site norms
    return U @ U.T


def _upper_pairs(n: int, max_distance: int | None = None):
    """Index arrays (j, k) of the pairs j <= k <= j + max_distance (every
    pair j <= k when max_distance is None)."""
    j, k = np.triu_indices(n)
    if max_distance is None:
        return j, k
    keep = k - j <= max_distance
    return j[keep], k[keep]


def _trig(phase: np.ndarray, weights=(1.0,)) -> np.ndarray:
    """Rows w cos(phase) then w sin(phase) for each weight w, stacked."""
    c, s = np.cos(phase), np.sin(phase)
    return np.vstack([part for w in weights for part in (w * c, w * s)])


def dynamic_amplitude_sup(
    sd: SpectralDecomposition, times, block: bool = False
) -> np.ndarray:
    """Entrywise max over the time grid of the propagator amplitudes:
    |exp(-itX)_{jk}| in the scalar case, the 2x2-block spectral norms of
    exp(-2itM) in the block case (the mode dynamics carries the factor 2).

    The propagator is symmetric, so only the pairs j <= k are evaluated:
    with w = V[j] o V[k], its entry has real part w . cos(t lam) and
    imaginary part -w . sin(t lam), so a chunk of times is one real
    product against the stacked cos/sin rows and no propagator is built.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("time grid must be nonempty")
    V = sd.eigenvectors
    lam = sd.eigenvalues
    if block and sd.dim % 2:
        raise ValueError("block amplitudes require even dimension")
    n = sd.dim // 2 if block else sd.dim
    j, k = _upper_pairs(n)
    best = np.zeros(len(j))
    if not block:
        W = V[j] * V[k]
        for ts in _grid_chunks(times, 2 * len(j)):
            ri = _trig(np.outer(ts, lam)) @ W.T
            ri *= ri
            np.maximum(best, np.max(ri[: len(ts)] + ri[len(ts) :], axis=0), out=best)
        best = np.sqrt(best)
    else:
        # entry (a, b) of every block (j, k), for (a, b) = (0,0), (0,1), (1,0), (1,1)
        W = np.vstack([V[2 * j + a] * V[2 * k + b] for a in (0, 1) for b in (0, 1)])
        for ts in _grid_chunks(times, 2 * len(W)):
            ri = _trig(2.0 * np.outer(ts, lam)) @ W.T
            parts = np.moveaxis(ri.reshape(2, len(ts), 2, 2, len(j)), 4, 2)
            np.maximum(best, np.max(block_norms(parts[0], parts[1]), axis=0), out=best)
    out = np.zeros((n, n))
    out[j, k] = best
    out[k, j] = best
    return out


def clustering_sup(
    sd: SpectralDecomposition, occ, times, max_distance: int | None = None
) -> np.ndarray:
    """Entrywise max over the grid of |rho e^{2itA}|_{jk} |e^{-2itA} (1 - rho)|_{jk}
    for the Slater state rho = V diag(occ) V^t, on the pairs j <= k <= j + max_distance
    (every other entry is 0).

    Both factors are symmetric spectral functions of A, so each is a real
    product of w = V[j] o V[k] against the occupation-weighted cos/sin
    rows, and a chunk of times takes one product.
    """
    times = np.asarray(times, dtype=float)
    V = sd.eigenvectors
    occ = np.asarray(occ, dtype=float)
    j, k = _upper_pairs(sd.dim, max_distance)
    W = V[j] * V[k]
    best = np.zeros(len(j))
    for ts in _grid_chunks(times, 4 * len(j)):
        m = len(ts)
        ri = _trig(2.0 * np.outer(ts, sd.eigenvalues), (occ, 1.0 - occ)) @ W.T
        ri *= ri
        prod = (ri[:m] + ri[m : 2 * m]) * (ri[2 * m : 3 * m] + ri[3 * m :])
        np.maximum(best, np.max(prod, axis=0), out=best)
    out = np.zeros((sd.dim, sd.dim))
    out[j, k] = np.sqrt(best)
    return out


def distance_profile(table: np.ndarray, max_distance: int | None = None) -> np.ndarray:
    """Mean of the table over pairs at each separation d = 0..max_distance."""
    n = table.shape[0]
    dmax = n - 1 if max_distance is None else min(max_distance, n - 1)
    out = np.empty(dmax + 1)
    for d in range(dmax + 1):
        out[d] = np.mean(np.diagonal(table, offset=d))
    return out


@dataclass(frozen=True)
class DecayFit:
    """Exponential-decay fit v_d ~ C exp(-eta d) on a distance profile."""

    C: float
    eta: float
    r_squared: float
    min_distance: int

    def bound(self, factor: float, d, power: int = 2) -> float:
        """factor C e^{-eta d} / (1 - e^{-eta})^power, the form of every
        bound built from the fit; the paper's constant goes into factor."""
        if self.eta <= 0:
            raise ValueError(f"fitted bound needs a positive decay rate, got eta={self.eta}")
        return float(factor * self.C * np.exp(-self.eta * d) / (1.0 - np.exp(-self.eta)) ** power)


def fit_decay(averaged, min_distance: int, max_distance: int | None = None) -> DecayFit:
    """Least squares on (d, log v_d) over distances >= min_distance.

    `averaged` is indexed by distance (entry d is the mean at separation
    d).  Degenerate (constant) data fits eta = 0 with r_squared = 0.
    """
    v = np.asarray(averaged, dtype=float)
    dmax = len(v) - 1 if max_distance is None else min(max_distance, len(v) - 1)
    d = np.arange(min_distance, dmax + 1)
    if len(d) < 3:
        raise ValueError("need at least 3 distances in the fit window")
    vals = v[d]
    if np.any(vals <= 0):
        raise ValueError("fit window contains nonpositive values")
    y = np.log(vals)
    var_y = float(np.sum((y - y.mean()) ** 2))
    if var_y < 1e-24:
        return DecayFit(C=float(np.exp(y.mean())), eta=0.0, r_squared=0.0, min_distance=min_distance)
    slope, intercept = np.polyfit(d, y, 1)
    resid = y - (slope * d + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / var_y
    return DecayFit(
        C=float(np.exp(intercept)),
        eta=float(-slope),
        r_squared=r2,
        min_distance=min_distance,
    )


def lr_commutator_bound(
    fit: DecayFit, j: int, k: int, b_norm: float = 1.0, kind: str = "local"
) -> float:
    """Zero-velocity commutator bound at separation |j - k| from fitted
    (C, eta): the iterated sum over the string gives

        fermion mode:   4 C ||B|| e^{-eta |j-k|} / (1 - e^{-eta})
        local operator: 96 C ||B|| e^{-eta |j-k|} / (1 - e^{-eta})^2,

    the latter uniform over unit-norm observables at the two sites.
    """
    if kind not in ("fermion", "local"):
        raise ValueError(f"unknown bound kind {kind!r}")
    factor, power = (4.0, 1) if kind == "fermion" else (96.0, 2)
    return fit.bound(factor * b_norm, abs(k - j), power)
