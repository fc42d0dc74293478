"""Bipartite entanglement of quasi-free states from correlation matrices.

The entropy of the reduction to the left end [1, ell] is the entropy of
the upper-left 2*ell block of the correlation matrix, -sum zeta ln zeta
over its eigenvalues (natural-log units).  The cross-cut block norms
give a computable upper bound, 2 ln 2 times their sum, which feeds the
area-law checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import ChainSpec
from .eigencorrelator import DecayFit
from .hamiltonian import (
    BogoliubovDecomposition,
    SpectralDecomposition,
    alpha_from_index,
    block_norms,
    bogoliubov,
)
from .quasifree import (
    CorrelationMatrix,
    eigenstate_gamma,
    mode_selector,
    quench_initial_gamma,
    restricted_series,
)

LN2 = float(np.log(2.0))

# Largest chain whose 2^n eigenstate labels are enumerated exhaustively.
MAX_EXHAUSTIVE_SITES = 14

# Labels whose batched score lies this close to the batched maximum are
# rescored exactly; the batched scores differ from the exact ones by ~1e-13.
_RESCORE_WINDOW = 1e-9

# Float64 entries that one chunk of labels holds in _label_entropies
# (256 KiB); larger chunks ran no faster and raised the peak resident set.
_LABEL_CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class Cut:
    """Bipartition [1, ell] | [ell+1, n]."""

    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")

    def check(self, n: int) -> None:
        if not 1 <= self.ell < n:
            raise ValueError(f"cut ell={self.ell} requires 1 <= ell < n={n}")


@dataclass
class EntanglementRecord:
    entropy: float
    ps_bound: float
    label: object
    ell: int
    strategy: str = "exact"


def block_spectral_norms(gamma: np.ndarray, n: int) -> np.ndarray:
    """n x n table of spectral norms of the 2x2 blocks."""
    blocks = gamma.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    return block_norms(blocks.real, blocks.imag if np.iscomplexobj(blocks) else None)


def _spectrum_entropy(zeta: np.ndarray):
    """-sum zeta ln zeta over the last axis of restricted-block spectra.
    Any eigenvalue outside [0, 1] by more than 1e-9 is an error; the rest
    are clamped to [1e-12, 1 - 1e-12] (projector spectra hit exact 0/1)."""
    if zeta.size and (zeta.min() < -1e-9 or zeta.max() > 1 + 1e-9):
        raise ValueError(
            f"restricted spectrum outside [0,1]: [{zeta.min():.3e}, {zeta.max():.3e}]"
        )
    zeta = np.clip(zeta, 1e-12, 1 - 1e-12)
    return -np.sum(zeta * np.log(zeta), axis=-1)


def entropy_from_gamma(cm: CorrelationMatrix, cut: Cut) -> float:
    """Von Neumann entropy of the reduction to [1, ell]: -sum zeta ln zeta
    over the upper-left 2*ell block spectrum."""
    cut.check(cm.n)
    block = cm.gamma[: 2 * cut.ell, : 2 * cut.ell]
    return float(_spectrum_entropy(np.linalg.eigvalsh(block)))


def ps_bound(cm: CorrelationMatrix, cut: Cut) -> float:
    """Cross-cut bound 2 ln 2 * sum_{j<=ell} sum_{k>ell} ||gamma(j,k)||."""
    cut.check(cm.n)
    norms = block_spectral_norms(cm.gamma, cm.n)
    return float(2.0 * LN2 * np.sum(norms[: cut.ell, cut.ell :]))


def area_law_constant(fit: DecayFit) -> float:
    """2 ln 2 * C e^{-eta} / (1 - e^{-eta})^2: the disorder-averaged
    entanglement bound implied by the fitted eigencorrelator decay."""
    return fit.bound(2.0 * LN2, 1)


def _label_entropy(WA: np.ndarray, alpha) -> float:
    """Entropy of eigenstate alpha restricted to the columns of WA (a 2n x 2ell
    slice of the Bogoliubov W): the spectrum of WA^t P_alpha WA."""
    sel = mode_selector(alpha)
    return float(_spectrum_entropy(np.linalg.eigvalsh(WA.T @ (sel[:, None] * WA))))


def _label_entropies(WA: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """_label_entropy of every row of alphas (S labels of length n), to
    round-off, from the ell x ell Majorana form of the restricted block
    (Peschel 2003; Vidal, Latorre, Rico and Kitaev 2003).

    With Psi_A, Phi_A the rows of the SVD factors of A + B on the block,
    rotating each site to (c + c^*, c - c^*) turns WA^t P_alpha WA into
    [[I, Y], [Y^t, I]] / 2 with Y = Psi_A^t diag(1 - 2 alpha) Phi_A, whose
    spectrum is (1 +- sigma) / 2 over the singular values sigma of Y.  The
    Y of a chunk of labels are one batched product and their sigma^2 one
    batched eigvalsh of Y Y^t; a chunk holds its ell x n signed copies of
    Psi_A^t, its Y and its Y Y^t in _LABEL_CHUNK_ENTRIES.  sigma^2 above 1
    by more than 1e-9 is an error.
    """
    n, ell = WA.shape[0] // 2, WA.shape[1] // 2
    Psi = WA[0::2, 0::2] + WA[0::2, 1::2]
    Phi = WA[0::2, 0::2] - WA[0::2, 1::2]
    alphas = np.asarray(alphas)
    out = np.empty(len(alphas))
    step = max(1, _LABEL_CHUNK_ENTRIES // (ell * (n + 2 * ell)))
    for start in range(0, len(alphas), step):
        chunk = alphas[start : start + step]
        Y = (Psi.T * (1.0 - 2.0 * chunk)[:, None, :]) @ Phi
        sigma2 = np.linalg.eigvalsh(Y @ Y.transpose(0, 2, 1))
        if sigma2.min() < -1e-9 or sigma2.max() > 1 + 1e-9:
            raise ValueError(
                f"restricted spectrum outside [0,1]: sigma^2 in "
                f"[{sigma2.min():.3e}, {sigma2.max():.3e}]"
            )
        sigma = np.sqrt(np.maximum(sigma2, 0.0))
        zeta = np.concatenate([0.5 * (1.0 + sigma), 0.5 * (1.0 - sigma)], axis=-1)
        out[start : start + step] = _spectrum_entropy(zeta)
    return out


def max_eigenstate_entropy(
    bog: BogoliubovDecomposition,
    cut: Cut,
    strategy: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> EntanglementRecord:
    """Maximum entanglement over eigenstate labels: exhaustive for
    n <= 14, uniform sampling otherwise (a lower bound on the sup,
    recorded in the strategy field).

    Every label is scored by the batched _label_entropies; the labels
    within _RESCORE_WINDOW of the batched maximum are rescored exactly by
    _label_entropy, and the first exact maximum in label order wins, so
    near-ties resolve bitwise as a per-label loop resolves them."""
    n = bog.n
    cut.check(n)
    if strategy == "exhaustive":
        if n > MAX_EXHAUSTIVE_SITES:
            raise ValueError(f"exhaustive strategy capped at n={MAX_EXHAUSTIVE_SITES}")
        alphas = alpha_from_index(np.arange(2**n)[:, None], n)
        tag = "exhaustive"
    elif strategy == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        rng = np.random.default_rng(seed)
        alphas = rng.integers(0, 2, size=(samples, n))
        tag = f"sampled({samples})"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    WA = bog.W[:, : 2 * cut.ell]
    scores = _label_entropies(WA, alphas)
    best = -1.0
    best_alpha = None
    for k in np.flatnonzero(scores >= scores.max() - _RESCORE_WINDOW):
        s = _label_entropy(WA, alphas[k])
        if s > best:
            best = s
            best_alpha = np.array(alphas[k], dtype=int)
    bound = ps_bound(eigenstate_gamma(bog, best_alpha), cut)
    return EntanglementRecord(
        entropy=best, ps_bound=bound, label=tuple(best_alpha), ell=cut.ell, strategy=tag
    )


def quench_entropy(
    chain: ChainSpec, cut: Cut, alpha_left, alpha_right, times,
    sd_M: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Entanglement of an initially unentangled pair of half-chain
    eigenstates, evolved under the full chain; one entropy per time.

    The left block of the evolved correlation matrix is formed for the
    whole grid in the eigenbasis of M (restricted_series) and its spectra
    are taken in one batched call.  sd_M, the decomposition of M
    (bogoliubov(chain).spectral when omitted), may be passed in so that one
    decomposition serves every cut of a chain.
    """
    cut.check(chain.n)
    gamma0, _, _ = quench_initial_gamma(chain, cut.ell, alpha_left, alpha_right)
    if sd_M is None:
        sd_M = bogoliubov(chain).spectral
    V = sd_M.eigenvectors
    G = V.T @ gamma0.gamma @ V
    blocks = restricted_series(V[: 2 * cut.ell, :], sd_M.eigenvalues, G, times)
    return _spectrum_entropy(np.linalg.eigvalsh(blocks))


def thermal_entanglement_of_formation_bound(
    bog: BogoliubovDecomposition,
    cut: Cut,
    beta: float,
    sample_count: int = 200,
    seed: int = 0,
) -> float:
    """Upper bound on the entanglement of formation of the Gibbs state:
    the Gibbs-weighted average of eigenstate entanglements.  Exact mode
    enumeration for n <= 14; otherwise the factorized Gibbs weights are
    sampled (occupations are independent Bernoulli)."""
    n = bog.n
    cut.check(n)
    WA = bog.W[:, : 2 * cut.ell]
    if n <= MAX_EXHAUSTIVE_SITES:
        if np.isinf(beta):
            return float(_label_entropies(WA, np.zeros((1, n), dtype=int))[0])
        # energies 2*sum(lam[occupied]) - E0; the E0 shift cancels in the weights
        alphas = alpha_from_index(np.arange(2**n)[:, None], n)
        w = np.exp(-2.0 * beta * (alphas @ bog.lam))
        return float(w @ _label_entropies(WA, alphas) / np.sum(w))
    from scipy.special import expit

    rng = np.random.default_rng(seed)
    p_occ = expit(-2.0 * beta * bog.lam)
    alphas = np.array([rng.random(n) < p_occ for _ in range(sample_count)], dtype=int)
    return float(np.mean(_label_entropies(WA, alphas)))
