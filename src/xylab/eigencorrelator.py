"""Eigencorrelators, dynamic amplitudes, decay fits, and the commutator
bounds built from them.

The eigencorrelator table majorizes every bounded spectral function of
the effective Hamiltonian entrywise; in particular it dominates the
time-evolution amplitudes uniformly in t.  Disorder-averaged tables are
fitted log-linearly in distance, and the fitted constants (C, eta) feed
the zero-velocity commutator bounds and the transport/entanglement
bounds downstream.  A's SpectralDecomposition gives the scalar table and
amplitudes, a BogoliubovDecomposition the 2x2-block ones of M, over n
modes from its SVD factors Psi and Phi.  A caller that needs only the
distance profile of the table takes eigencorrelator_profile, which reads
it off the rows of the table's factor U and forms no n x n table.

The sup-over-time kernels never build a propagator: for the pairs
j <= k that reach the output, a chunk of the time grid is one real
product of the stacked pair weights against the cos/sin rows of
quasifree.phase_rows, the one time-series engine, with the running max
kept in place.  Per pair and time step that is 2n multiply-adds for the
scalar amplitudes and 4n for the blocks, over all n^2/2 pairs since the
dominance verdict reads every one, and 4n for the clustering kernel,
over the pairs within distance d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import BogoliubovDecomposition, SpectralDecomposition, block_norms
from .quasifree import phase_rows


def eigencorrelator_table(dec: SpectralDecomposition | BogoliubovDecomposition) -> np.ndarray:
    """n x n table Q(j,k) majorizing |g(X)_{jk}| over all |g| <= 1.

    Scalar case (A's eigensystem): Q(j,k) = sum_r |phi_r(j)| |phi_r(k)|,
    the exact supremum.  Block case (Bogoliubov): the sum over M's
    eigenprojectors of the spectral norms of their 2x2 blocks, an upper
    bound; each is the product of the eigenvector's per-site norms, and
    those of +-lambda_q are both sqrt((Psi_jq^2 + Phi_jq^2) / 2), so the
    table is U U^t with the n x n U = sqrt(Psi^2 + Phi^2).

    At a repeated lambda the block table depends on the basis the SVD
    picks in the eigenspace (a lambda = 0 mode at nu = 0 and odd n, clean
    chains); every choice is a valid bound, since the block norm is
    subadditive over any orthonormal eigenbasis, and the amplitudes it
    bounds do not depend on it.
    """
    U = _site_weights(dec)
    return U @ U.T


def _site_weights(dec: SpectralDecomposition | BogoliubovDecomposition) -> np.ndarray:
    """The n x n U whose U U^t is the eigencorrelator table: |V| on A's
    eigensystem, sqrt(Psi^2 + Phi^2) on a Bogoliubov decomposition."""
    if isinstance(dec, BogoliubovDecomposition):
        return np.sqrt(dec.Psi**2 + dec.Phi**2)
    return np.abs(dec.eigenvectors)


def eigencorrelator_profile(dec: SpectralDecomposition | BogoliubovDecomposition,
                            max_distance: int | None = None) -> np.ndarray:
    """distance_profile(eigencorrelator_table(dec), max_distance) without
    the table: diagonal d of U U^t sums the products of the rows j and
    j + d of U, which is one dot product of the first (n - d) n entries
    of the raveled U with its last ones, divided by n - d.  That is
    (d + 1) n^2 multiply-adds for the distances up to d instead of n^3;
    the sums are reassociated, so entries agree with the table's to
    round-off, not bitwise."""
    U = _site_weights(dec)
    n = U.shape[0]
    dmax = n - 1 if max_distance is None else min(max_distance, n - 1)
    flat = U.ravel()
    out = np.empty(dmax + 1)
    for d in range(dmax + 1):
        out[d] = np.dot(flat[: (n - d) * n], flat[d * n :]) / (n - d)
    return out


def _upper_pairs(n: int, max_distance: int | None = None):
    """Index arrays (j, k) of the pairs j <= k <= j + max_distance (every
    pair j <= k when max_distance is None)."""
    j, k = np.triu_indices(n)
    if max_distance is None:
        return j, k
    keep = k - j <= max_distance
    return j[keep], k[keep]


def _pair_sup(lam: np.ndarray, W: np.ndarray, times, scale: float, weights) -> np.ndarray:
    """The scalar kernels' one loop: per row w of W, the square root of the max over
    the grid of the product over the weights of (w . cos)^2 + (w . sin)^2."""
    best = np.zeros(len(W))
    for m, R in phase_rows(lam, times, scale, 2 * len(weights) * len(W), weights):
        ri = R @ W.T
        ri *= ri
        prod = ri[:m]  # formed in place, so no array but ri outlives the chunk
        prod += ri[m : 2 * m]
        for i in range(2, 2 * len(weights), 2):
            prod *= ri[i * m : (i + 1) * m] + ri[(i + 1) * m : (i + 2) * m]
        np.maximum(best, np.max(prod, axis=0), out=best)
    return np.sqrt(best)


def dynamic_amplitude_sup(dec: SpectralDecomposition | BogoliubovDecomposition,
                          times) -> np.ndarray:
    """Entrywise max over the time grid of the propagator amplitudes:
    |exp(-itA)_{jk}| from A's eigensystem, the 2x2-block spectral norms of
    exp(-2itM) from the Bogoliubov decomposition (the mode dynamics
    carries the factor 2).  The propagator is symmetric, so only the
    pairs j <= k are evaluated.  Scalar: with w = V[j] o V[k], the entry
    is w . cos(t lam) - i w . sin(t lam).  Block: the Majoranas c + c^*
    and -i(c - c^*) of a site, a unitary change from (c, c^*), evolve
    through the mode pairs (a_q, b_q), which rotate by 2t lam_q, so block
    (j, k) has the singular values of the real

        [[ sum_q Psi_jq Psi_kq cos,  sum_q Psi_jq Phi_kq sin],
         [-sum_q Phi_jq Psi_kq sin,  sum_q Phi_jq Phi_kq cos]].
    """
    if isinstance(dec, BogoliubovDecomposition):
        n, Psi, Phi = dec.n, dec.Psi, dec.Phi
        j, k = _upper_pairs(n)
        p = len(j)
        Wc = np.vstack([Psi[j] * Psi[k], Phi[j] * Phi[k]])  # the diagonal of each block
        Ws = np.vstack([Psi[j] * Phi[k], -Phi[j] * Psi[k]])  # and its off-diagonal
        best = np.zeros(p)
        for m, R in phase_rows(dec.lam, times, 2.0, 8 * p):  # c and s, then their stack re
            c, s = R[:m] @ Wc.T, R[m:] @ Ws.T
            re = np.stack([c[:, :p], s[:, :p], s[:, p:], c[:, p:]], axis=-1)
            np.maximum(best, np.max(block_norms(re.reshape(m, p, 2, 2)), axis=0), out=best)
    else:
        V, n = dec.eigenvectors, dec.dim
        j, k = _upper_pairs(n)
        best = _pair_sup(dec.eigenvalues, V[j] * V[k], times, 1.0, (1.0,))
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
    V = sd.eigenvectors
    occ = np.asarray(occ, dtype=float)
    j, k = _upper_pairs(sd.dim, max_distance)
    out = np.zeros((sd.dim, sd.dim))
    out[j, k] = _pair_sup(sd.eigenvalues, V[j] * V[k], times, 2.0, (occ, 1.0 - occ))
    return out


def distance_profile(table: np.ndarray, max_distance: int | None = None) -> np.ndarray:
    """Mean of the table over pairs at each separation d = 0..max_distance;
    diagonal d is the strided slice [d : (n - d) n : n + 1] of the raveled
    table, and its sum over n - d is bitwise np.mean's."""
    n = table.shape[0]
    dmax = n - 1 if max_distance is None else min(max_distance, n - 1)
    flat = table.ravel()
    out = np.empty(dmax + 1)
    for d in range(dmax + 1):
        out[d] = flat[d : (n - d) * n : n + 1].sum() / (n - d)
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
    if min_distance < 0:
        raise ValueError(f"min_distance must be >= 0, got {min_distance}")
    v = np.asarray(averaged, dtype=float)
    dmax = len(v) - 1 if max_distance is None else min(max_distance, len(v) - 1)
    d = np.arange(min_distance, dmax + 1)
    if len(d) < 3:
        raise ValueError("need at least 3 distances in the fit window")
    vals = v[d]
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"fit window contains non-finite values {vals[bad].tolist()} "
                         f"at distances {d[bad].tolist()}")
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
