"""Bipartite entanglement of quasi-free states from the SVD factors.

The entropy of the reduction to the left end [1, ell] is the entropy of
the upper-left 2*ell block of the correlation matrix, -sum zeta ln zeta
over its eigenvalues (natural-log units).  The cross-cut block norms
give a computable upper bound, 2 ln 2 times their sum, which feeds the
area-law checks.  No correlation matrix is formed here: ps_bound reads
an eigenstate's block norms off Psi and Phi, and the eigenstate-label
and quench kernels take the block in real Majorana form, whose spectrum
(1 +- sigma) / 2 comes from a real symmetric eigvalsh of sigma^2
(Peschel 2003), through one sigma^2-to-entropy function, _sigma_entropy;
neither forms a complex or a 2n x 2n matrix.
"""

from __future__ import annotations

import numpy as np

from .disorder import ChainSpec, make_chain
from .eigencorrelator import DecayFit
from .hamiltonian import BogoliubovDecomposition, _check_label, alpha_from_index, bogoliubov
from .quasifree import mode_selector, phase_rows

LN2 = float(np.log(2.0))

# Largest chain whose 2^n eigenstate labels are enumerated exhaustively.
MAX_EXHAUSTIVE_SITES = 14

# Labels whose batched score lies this close to the batched maximum are
# rescored exactly; the batched scores differ from the exact ones by ~1e-13.
_RESCORE_WINDOW = 1e-9

# Float64 entries that one chunk of labels holds in _label_entropies
# (256 KiB); larger chunks ran no faster and raised the peak resident set.
_LABEL_CHUNK_ENTRIES = 1 << 15


def _check_cut(ell: int, n: int) -> None:
    """The cut [1, ell] | [ell+1, n] must leave both sides nonempty."""
    if not 1 <= ell < n:
        raise ValueError(f"cut ell={ell} requires 1 <= ell < n={n}")


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


def _sigma_entropy(sigma2: np.ndarray) -> np.ndarray:
    """_spectrum_entropy of the spectra (1 +- sigma) / 2 over the last axis,
    given sigma^2: the restricted blocks in Majorana form, whose sigma are
    the singular values of their off-diagonal part.  sigma^2 outside
    [0, 1] by more than 1e-9 is an error."""
    if sigma2.min() < -1e-9 or sigma2.max() > 1 + 1e-9:
        raise ValueError(
            f"restricted spectrum outside [0,1]: sigma^2 in "
            f"[{sigma2.min():.3e}, {sigma2.max():.3e}]"
        )
    sigma = np.sqrt(np.maximum(sigma2, 0.0))
    zeta = np.concatenate([0.5 * (1.0 + sigma), 0.5 * (1.0 - sigma)], axis=-1)
    return _spectrum_entropy(zeta)


def ps_bound(bog: BogoliubovDecomposition, alpha, ell: int) -> float:
    """Cross-cut bound 2 ln 2 * sum_{j<=ell} sum_{k>ell} ||gamma(j,k)|| of
    the eigenstate alpha.  With Y = Psi diag(1 - 2 alpha) Phi^t, block
    (j, k) of its gamma in Majorana form is [[0, i Y_jk], [-i Y_kj, 0]] / 2,
    so the bound is ln 2 * sum max(|Y_jk|, |Y_kj|) over the cross-cut
    pairs, from the two off-diagonal ell x (n - ell) corners of Y."""
    _check_cut(ell, bog.n)
    s, Psi, Phi = 1.0 - 2.0 * _check_label(alpha, bog.n), bog.Psi, bog.Phi
    upper = (Psi[:ell] * s) @ Phi[ell:].T  # Y_jk, j <= ell < k
    lower = (Phi[:ell] * s) @ Psi[ell:].T  # Y_kj, transposed
    return float(LN2 * np.sum(np.maximum(np.abs(upper), np.abs(lower))))


def area_law_constant(fit: DecayFit) -> float:
    """2 ln 2 * C e^{-eta} / (1 - e^{-eta})^2: the disorder-averaged
    entanglement bound implied by the fitted eigencorrelator decay."""
    return fit.bound(2.0 * LN2, 1)


def _w_columns(bog: BogoliubovDecomposition, sites) -> np.ndarray:
    """Columns (2j, 2j+1) of the Bogoliubov W (W M W^t = diag(+l_q, -l_q)
    blocks) at the 0-based sites j indexed by `sites`: rows 2q and 2q+1
    are the eigenvectors of M for +lambda_q and -lambda_q there,
    ((g+h)/2, (g-h)/2) and ((g-h)/2, (g+h)/2) with g, h rows of Psi, Phi."""
    phi = 0.5 * (bog.Psi[sites] + bog.Phi[sites])  # c-components of the +lambda eigenvectors
    psi = 0.5 * (bog.Psi[sites] - bog.Phi[sites])  # c^*-components
    out = np.empty((2 * bog.n, 2 * len(phi)))
    out[0::2, 0::2] = phi.T
    out[0::2, 1::2] = psi.T
    out[1::2, 0::2] = psi.T
    out[1::2, 1::2] = phi.T
    return out


def _label_entropy(WA: np.ndarray, alpha) -> float:
    """Entropy of eigenstate alpha restricted to the columns of WA (the
    2n x 2ell slice _w_columns gives for the block's sites): the spectrum
    of WA^t P_alpha WA."""
    sel = mode_selector(alpha)
    return float(_spectrum_entropy(np.linalg.eigvalsh(WA.T @ (sel[:, None] * WA))))


def _label_entropies(bog: BogoliubovDecomposition, ell: int, alphas: np.ndarray) -> np.ndarray:
    """_label_entropy of every row of alphas (S labels of length n), to
    round-off, from the ell x ell Majorana form of the restricted block
    (Peschel 2003; Vidal, Latorre, Rico and Kitaev 2003).

    With Psi_A, Phi_A the first ell rows of bog.Psi and bog.Phi,
    rotating each site to (c + c^*, c - c^*) turns the block into
    [[I, Y], [Y^t, I]] / 2 with Y = Psi_A diag(1 - 2 alpha) Phi_A^t, whose
    spectrum is (1 +- sigma) / 2 over the singular values sigma of Y.  The
    Y of a chunk of labels are one batched product and their sigma^2 one
    batched eigvalsh of Y Y^t; a chunk holds its ell x n signed copies of
    Psi_A, its Y and its Y Y^t in _LABEL_CHUNK_ENTRIES.
    """
    n, PsiA, PhiAt = bog.n, bog.Psi[:ell], bog.Phi[:ell].T
    alphas = np.asarray(alphas)
    out = np.empty(len(alphas))
    step = max(1, _LABEL_CHUNK_ENTRIES // (ell * (n + 2 * ell)))
    for start in range(0, len(alphas), step):
        chunk = alphas[start : start + step]
        Y = (PsiA * (1.0 - 2.0 * chunk)[:, None, :]) @ PhiAt
        out[start : start + step] = _sigma_entropy(np.linalg.eigvalsh(Y @ Y.transpose(0, 2, 1)))
    return out


def max_eigenstate_entropy(bog: BogoliubovDecomposition, ell: int, strategy: str,
                           samples: int | None = None, seed: int | None = None) -> tuple:
    """(entropy, ps_bound) of the most entangled eigenstate label across
    the cut after site ell: over every label (exhaustive, n <= 14) or
    over `samples` uniform labels drawn from `seed` (sampled, a lower
    bound on the sup; only this strategy reads samples and seed).

    Every label is scored by the batched _label_entropies; the labels
    within _RESCORE_WINDOW of the batched maximum are rescored exactly by
    _label_entropy, and the first exact maximum in label order wins, so
    near-ties resolve bitwise as a per-label loop resolves them."""
    n = bog.n
    _check_cut(ell, n)
    if strategy == "exhaustive":
        if n > MAX_EXHAUSTIVE_SITES:
            raise ValueError(f"exhaustive strategy capped at n={MAX_EXHAUSTIVE_SITES}")
        alphas = alpha_from_index(np.arange(2**n)[:, None], n)
    elif strategy == "sampled":
        if samples is None or samples < 1 or seed is None:
            raise ValueError(f"the sampled strategy needs samples >= 1 and a seed, got samples "
                             f"{samples} and seed {seed}")
        rng = np.random.default_rng(seed)
        alphas = rng.integers(0, 2, size=(samples, n))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    scores = _label_entropies(bog, ell, alphas)
    WA = _w_columns(bog, slice(0, ell))
    best = -1.0
    best_alpha = None
    for k in np.flatnonzero(scores >= scores.max() - _RESCORE_WINDOW):
        s = _label_entropy(WA, alphas[k])
        if s > best:
            best = s
            best_alpha = np.array(alphas[k], dtype=int)
    return best, ps_bound(bog, best_alpha, ell)


def quench_entropy(chain: ChainSpec, ell: int, alpha_left, alpha_right, times,
                   bog: BogoliubovDecomposition) -> np.ndarray:
    """Entanglement of an initially unentangled pair of half-chain
    eigenstates, evolved under the full chain; one entropy per time.

    bog is the chain's Bogoliubov decomposition, which serves every cut.
    With Psi and Phi its SVD factors (rows sites, columns modes), the site
    Majoranas of c_j + c_j^* and c_j - c_j^* are Psi and Phi applied to
    mode Majorana pairs (a_q, b_q) that rotate by 2t lam_q.  The initial
    state, the eigenstates alpha of the two open halves (the bond at the
    cut dropped), couples only a to b, through K = Psi^t G Phi with
    G = G11 - G12 + G21 - G22 over its (c, c^*) sub-blocks: block-diagonal,
    Psi_h diag(1 - 2 alpha) Phi_h^t from each half's own factors.  With
    Pc, Ps, Fc, Fs the rows of Psi and Phi on the block scaled by the cos
    and sin rows of 2t lam (phase_rows), the block is (I + i Omega) / 2
    for the real antisymmetric

        Omega = [[X - X^t, Pc K Fc^t + Ps K^t Fs^t], [.., Z - Z^t]],
        X = Pc K Ps^t,  Z = Fc K^t Fs^t,

    at 3 ell n^2 + 4 ell^2 n multiply-adds per time.  Each sigma^2 of
    Omega^t Omega, one batched real eigvalsh per chunk of times, appears
    twice, so each of the 2 ell values weighs 1/2 in _sigma_entropy.
    """
    n = chain.n
    _check_cut(ell, n)
    G = np.zeros((n, n))
    for a, b, alpha, name in ((0, ell, alpha_left, "alpha_left"), (ell, n, alpha_right, "alpha_right")):
        s = 1.0 - 2.0 * _check_label(alpha, b - a, name)
        half = bogoliubov(make_chain(chain.mu[a : b - 1], chain.gamma[a : b - 1], chain.nu[a:b]))
        G[a:b, a:b] = (half.Psi * s) @ half.Phi.T
    K = bog.Psi.T @ G @ bog.Phi
    Kt, PA, FA = K.T, bog.Psi[:ell], bog.Phi[:ell]
    out = np.empty(len(times))
    start = 0
    # float64 entries per time: seven ell x n arrays (Pc, Ps, Fc, Fs and
    # three products), and Omega, Omega^t Omega and the blocks that build
    # Omega, about five 2 ell x 2 ell arrays
    for m, R in phase_rows(bog.lam, times, 2.0, 7 * ell * n + 20 * ell * ell):
        C, S = R[:m, None, :], R[m:, None, :]
        Pc, Ps, Fc, Fs = PA * C, PA * S, FA * C, FA * S
        PcK = (Pc.reshape(-1, n) @ K).reshape(Pc.shape)
        PsKt = (Ps.reshape(-1, n) @ Kt).reshape(Ps.shape)
        FcKt = (Fc.reshape(-1, n) @ Kt).reshape(Fc.shape)
        X = PcK @ Ps.transpose(0, 2, 1)
        Z = FcKt @ Fs.transpose(0, 2, 1)
        ab = PcK @ Fc.transpose(0, 2, 1) + PsKt @ Fs.transpose(0, 2, 1)
        omega = np.block([[X - X.transpose(0, 2, 1), ab],
                          [-ab.transpose(0, 2, 1), Z - Z.transpose(0, 2, 1)]])
        sigma2 = np.linalg.eigvalsh(omega.transpose(0, 2, 1) @ omega)
        out[start : start + m] = 0.5 * _sigma_entropy(sigma2)
        start += m
    return out
