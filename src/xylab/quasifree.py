"""Correlation matrices of quasi-free states and their dynamics.

A quasi-free state is fully encoded by the 2n x 2n matrix of two-point
functions in the interleaved (c_j, c_j^*) ordering; block (j, k) is

    [[ <c_j c_k^*>,   <c_j c_k>   ],
     [ <c_j^* c_k^*>, <c_j^* c_k> ]],

passed between modules as a plain array (n = len(gamma) // 2).
Eigenstates and thermal states of the chain are spectral functions of
the effective Hamiltonian M, one n x n product of its SVD factors Psi
and Phi (the quench's initial product state is never formed); particle
profiles are diagonal.  Under the chain dynamics the matrix evolves by
conjugation with exp(-2itM) into a Hermitian, in general complex matrix
(off-diagonal currents); evolve_gamma makes that dense conjugation at
one time, from the rotating mode pairs.  phase_rows is
the one time-series engine: every whole-grid kernel, here, in
eigencorrelator and in entanglement's quench, reads the real cos/sin
rows of a chunk of times from it, so memory stays bounded and no
propagator is built.  On a lattice grid t_k = k dt it evaluates cos and
sin only on a 16-row table of t_0..t_15 and on the anchor rows t_16q,
and builds every other row by angle addition from those exact rows, with
no recurrence, so the error does not grow with k.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import BogoliubovDecomposition, _check_label


def mode_selector(alpha) -> np.ndarray:
    """Diagonal 0/1 selector in the (+lambda_j, -lambda_j) block basis:
    (1 - alpha_j, alpha_j) per block."""
    alpha = np.asarray(alpha)
    sel = np.empty(2 * len(alpha))
    sel[0::2] = 1 - alpha
    sel[1::2] = alpha
    return sel


def _mode_gamma(bog: BogoliubovDecomposition, s: np.ndarray) -> np.ndarray:
    """Correlation matrix of the quasi-free state that weighs the +lambda_q
    and -lambda_q eigenvectors of M by (1 + s_q) / 2 and (1 - s_q) / 2.
    With Y = Psi diag(s) Phi^t, S = Y + Y^t and A = Y - Y^t, block (j, k)
    is delta_jk I / 2 + [[S_jk, -A_jk], [A_jk, -S_jk]] / 4."""
    n, Y = bog.n, (bog.Psi * s) @ bog.Phi.T
    A = 0.25 * (Y - Y.T)
    gamma = np.empty((n, 2, n, 2))  # gamma[j, :, k, :] is block (j, k)
    gamma[:, 0, :, 0] = 0.25 * (Y + Y.T) + 0.5 * np.eye(n)
    gamma[:, 1, :, 1] = np.eye(n) - gamma[:, 0, :, 0]
    gamma[:, 0, :, 1] = -A
    gamma[:, 1, :, 0] = A
    return gamma.reshape(2 * n, 2 * n)


def eigenstate_gamma(bog: BogoliubovDecomposition, alpha) -> np.ndarray:
    """Correlation matrix of the eigenstate with occupation pattern alpha:
    the spectral projection selecting +lambda_j for empty modes and
    -lambda_j for occupied ones, s = 1 - 2 alpha in _mode_gamma."""
    return _mode_gamma(bog, 1.0 - 2.0 * _check_label(alpha, bog.n))


def thermal_gamma(bog: BogoliubovDecomposition, beta: float) -> np.ndarray:
    """Correlation matrix (1 + exp(-2 beta M))^{-1} of the Gibbs state:
    s = tanh(beta lambda) in _mode_gamma, as the Fermi function of +/-lambda
    is (1 +/- tanh(beta lambda)) / 2, which cannot overflow."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return _mode_gamma(bog, np.tanh(beta * bog.lam))


def profile_gamma(eta_profile) -> np.ndarray:
    """Product state with site occupations eta_j: diagonal blocks
    diag(1 - eta_j, eta_j).  (The occupation slot is the <c^* c> one;
    fixed against the brute-force oracle at n = 2.)"""
    return np.diag(mode_selector(_occupations(eta_profile)))


def _occupations(eta_profile) -> np.ndarray:
    """A profile as floats, every entry an occupation in [0, 1]."""
    eta = np.asarray(eta_profile, dtype=float)
    if np.any((eta < 0) | (eta > 1)):
        raise ValueError("profile entries must lie in [0, 1]")
    return eta


def evolve_gamma(gamma: np.ndarray, bog: BogoliubovDecomposition, t: float) -> np.ndarray:
    """Heisenberg-picture update exp(-2itM) gamma exp(+2itM) of the whole
    matrix, by one dense conjugation.  The site Majoranas c +- c^*, on
    x, z = (e_2j +- e_2j+1) / sqrt2, are Psi and Phi applied to mode pairs
    (a_q, b_q) rotating by 2t lambda_q; so with V the orthogonal matrix of
    columns (Psi x, Phi z) / sqrt2 and C, S the cos and sin of 2t lambda,
    exp(-2itM) = (X_c - i X_s) V^t, X_c = V diag(C, C), X_s =
    V [[0, S], [S, 0]].  With Z = X G, G = V^t gamma V, the result is
    Z_c X_c^t + Z_s X_s^t + i (Z_c X_s^t - (Z_c X_s^t)^t).  The state must
    be real, as every state at time zero is; the result, complex at t != 0
    (the currents), is verified Hermitian to 1e-9 and Hermitized."""
    if np.iscomplexobj(gamma):
        raise ValueError("evolve_gamma takes a real gamma")
    n = bog.n
    V = np.empty((2 * n, 2 * n))
    V[0::2, :n] = V[1::2, :n] = math.sqrt(0.5) * bog.Psi
    V[0::2, n:] = math.sqrt(0.5) * bog.Phi
    V[1::2, n:] = -V[0::2, n:]
    G = V.T @ gamma @ V
    phase = 2.0 * t * bog.lam
    c, s = np.cos(phase), np.sin(phase)
    X = np.empty((2, 2 * n, 2 * n))
    X[0, :, :n], X[0, :, n:] = V[:, :n] * c, V[:, n:] * c
    X[1, :, :n], X[1, :, n:] = V[:, n:] * s, V[:, :n] * s
    Z = (X.reshape(-1, 2 * n) @ G).reshape(X.shape)
    re = Z[0] @ X[0].T + Z[1] @ X[1].T
    cs = Z[0] @ X[1].T
    herm = max(np.max(np.abs(G - G.T), initial=0.0), np.max(np.abs(re - re.T), initial=0.0))
    if herm > 1e-9:
        raise ValueError(f"evolved gamma lost Hermiticity: residual {herm:.3e}")
    out = np.empty(re.shape, dtype=complex)
    out.real = 0.5 * (re + re.T)
    out.imag = cs - cs.T
    return out


# ---------------------------------------------------------------------------
# eigenbasis time series: whole time grids after one change of basis

# Float64 entries of a chunk's batched R (1 MiB); longer grids go in chunks
# of times, and the peak is about 4.4 times this (see phase_rows).
_GRID_CHUNK_ENTRIES = 1 << 17

# Rows of phase_rows' exact table: on a lattice grid, time k = qB + r
# reads its cos/sin from the anchor row at qB and the table row at r.
_PHASE_TABLE_ROWS = 16


def phase_rows(lam: np.ndarray, times, scale: float, per_time: int, weights=(1.0,)):
    """The one time-series engine: yields (m, R) for consecutive chunks of
    m times of the grid, R stacking w cos(scale t lam) and then
    w sin(scale t lam), one row per time, for each weight w in turn.  A
    chunk holds the times whose per_time float64 entries fit in
    _GRID_CHUNK_ENTRIES; measured, the peak is about 4.4 times that, as
    the gathered anchor rows and two scratch arrays live beside R while
    the caller still holds the previous chunk's R.

    On a lattice grid (at least 2 times and times == arange(K) * times[1]
    bitwise, as TimeGrid gives) row k = qB + r, with B the smaller of
    _PHASE_TABLE_ROWS and K, comes by angle addition from two exact rows:
    the table row of t_r, from one B x n table per call, and the anchor
    row of t_qB, per chunk.  So cos and sin are evaluated on about
    B + K / B rows instead of K, with no recurrence: each entry is within
    8 eps max(1, |scale t lam|) of the direct cos and sin, whatever k.
    Rows k < B are bitwise the direct rows, and since the split of k does
    not depend on the chunk, every row is bitwise the same under any
    chunk budget.  Any other grid takes B = 1, whose table is the t = 0
    row, so each row is the direct one.  Between chunks only the B x n
    table, the anchor rows and two index arrays of at most a chunk and B
    entries stay allocated.  An empty grid is a ValueError.
    """
    times = np.asarray(times, dtype=float)
    K, n = len(times), len(lam)
    if K == 0:
        raise ValueError("time grid must be nonempty")
    lattice = K >= 2 and bool((times == np.arange(K) * times[1]).all())
    B = min(_PHASE_TABLE_ROWS, K) if lattice else 1
    phase = scale * ((np.arange(B) * (times[1] if lattice else 0.0))[:, None] * lam)
    cs = np.stack((np.cos(phase), np.sin(phase)))
    table = np.stack([w * cs for w in weights])
    step = max(1, _GRID_CHUNK_ENTRIES // per_time)
    # time start + i of a chunk at offset o = start % B reads anchor
    # qj[o + i], counted from the chunk's first block, and table row rj[o + i]
    j = np.arange(min(K, step) + B - 1)
    qj, rj = j // B, j % B
    span = None
    for start in range(0, K, step):
        stop = min(start + step, K)
        m, q0, q1, o = stop - start, start // B, (stop - 1) // B + 1, start % B
        if span != (q0, q1):  # chunks within one block share its anchor
            span = q0, q1
            phase = scale * (times[q0 * B : q1 * B : B, None] * lam)
            anchor = np.stack((np.cos(phase), np.sin(phase)))
        yield m, _add_angles(anchor, qj[o : o + m], table, rj[o : o + m]).reshape(-1, n)


def _add_angles(anchor, q, table, r) -> np.ndarray:
    """(w cos, w sin) of t_qB + t_r for the rows of one chunk, stacked per
    weight: anchor holds cos and sin of the chunk's anchor times, table
    the weighted cos and sin of t_r, and q and r give each row's anchor
    and table row.  Both factors are laid out over the chunk's rows first,
    so that every product is one contiguous ufunc call; the table's copy
    becomes the result in place, and the rest is freed on return."""
    R = table.take(r, axis=2)
    ac, as_ = anchor.take(q, axis=1)
    sc, ss = np.empty_like(ac), np.empty_like(ac)
    for c, s in R:  # in place: (c, s) becomes (ac c - as s, ac s + as c)
        np.multiply(as_, c, out=sc)
        np.multiply(as_, s, out=ss)
        c *= ac
        c -= ss
        s *= ac
        s += sc
    return R


def trace_series(lam: np.ndarray, Kc: np.ndarray, Ks: np.ndarray, times) -> np.ndarray:
    """c^t Kc c + s^t Ks s, with c, s the cos and sin rows of 2t lam, for
    every t of the grid and real kernels.  Kc = Ks = (V^t O V) o (V^t G V)^t
    gives the bilinear trace tr(exp(2itX) O exp(-2itX) G) of
    X = V diag(lam) V^t and symmetric O and G.  A chunk of m times costs
    two (m x d) @ (d x d) products."""
    if np.iscomplexobj(Kc) or np.iscomplexobj(Ks):
        raise ValueError("trace_series takes real Kc and Ks")
    out = np.empty(len(times))
    start = 0
    for m, R in phase_rows(lam, times, 2.0, 2 * len(lam)):
        C, S = R[:m], R[m:]
        out[start : start + m] = np.einsum("ra,ra->r", C @ Kc, C) + np.einsum("ra,ra->r", S @ Ks, S)
        start += m
    return out


# ---------------------------------------------------------------------------
# ordered configurations


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
