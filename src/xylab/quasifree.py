"""Correlation matrices of quasi-free states and their dynamics.

A quasi-free state is fully encoded by the 2n x 2n matrix of two-point
functions in the interleaved (c_j, c_j^*) ordering; block (j, k) is

    [[ <c_j c_k^*>,   <c_j c_k>   ],
     [ <c_j^* c_k^*>, <c_j^* c_k> ]],

passed between modules as a plain array (n = len(gamma) // 2).
Eigenstates and thermal states of the chain are spectral functions of
the effective Hamiltonian M (the quench's initial product state is
never formed: entanglement builds its Majorana block from the halves'
SVD factors); particle profiles are diagonal.  Under the
chain dynamics the matrix evolves by conjugation with exp(-2itM) into a
Hermitian, in general complex matrix (off-diagonal currents);
evolve_gamma makes that dense conjugation at one time.  phase_rows is
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

from .hamiltonian import BogoliubovDecomposition, SpectralDecomposition


def mode_selector(alpha) -> np.ndarray:
    """Diagonal 0/1 selector in the (+lambda_j, -lambda_j) block basis:
    (1 - alpha_j, alpha_j) per block."""
    alpha = np.asarray(alpha)
    sel = np.empty(2 * len(alpha))
    sel[0::2] = 1 - alpha
    sel[1::2] = alpha
    return sel


def eigenstate_gamma(bog: BogoliubovDecomposition, alpha) -> np.ndarray:
    """Correlation matrix of the eigenstate with occupation pattern alpha:
    the spectral projection W^t P W selecting +lambda_j for empty modes
    and -lambda_j for occupied ones."""
    alpha = np.asarray(alpha)
    if len(alpha) != bog.n or not np.all((alpha == 0) | (alpha == 1)):
        raise ValueError("alpha must be a 0/1 vector of length n")
    W = bog.W
    return (W.T * mode_selector(alpha)) @ W


def thermal_gamma(sd_M: SpectralDecomposition, beta: float) -> np.ndarray:
    """Correlation matrix (1 + exp(-2 beta M))^{-1} of the Gibbs state,
    computed spectrally from the decomposition sd_M of M.  The Fermi
    function 1 / (1 + exp(-2 beta lam)) is taken as (1 + tanh(beta lam)) / 2,
    equal in exact arithmetic, which cannot overflow."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return sd_M.function_of(lambda lam: 0.5 * (1.0 + np.tanh(beta * lam)))


def profile_gamma(eta_profile) -> np.ndarray:
    """Product state with site occupations eta_j: diagonal blocks
    diag(1 - eta_j, eta_j).  (The occupation slot is the <c^* c> one;
    fixed against the brute-force oracle at n = 2.)"""
    eta = np.asarray(eta_profile, dtype=float)
    if np.any((eta < 0) | (eta > 1)):
        raise ValueError("profile entries must lie in [0, 1]")
    return np.diag(mode_selector(eta))


def evolve_gamma(gamma: np.ndarray, sd_M: SpectralDecomposition, t: float) -> np.ndarray:
    """Heisenberg-picture update exp(-2itM) gamma exp(+2itM) of the whole
    matrix, by one dense conjugation in the eigenbasis of M.

    With X_c, X_s the eigenvectors scaled by cos and sin of 2t lam and
    Z = X G, G = V^t gamma V, the result is
    Z_c X_c^t + Z_s X_s^t + i (Z_c X_s^t - (Z_c X_s^t)^t).  The state must
    be real, as every state at time zero is; the result is Hermitian but
    genuinely complex at t != 0 for states that do not commute with M (the
    imaginary parts carry the currents), verified Hermitian to 1e-9 and
    returned Hermitized and complex.
    """
    if np.iscomplexobj(gamma):
        raise ValueError("evolve_gamma takes a real gamma")
    V = sd_M.eigenvectors
    G = V.T @ gamma @ V
    phase = 2.0 * t * sd_M.eigenvalues
    X = np.stack([V * np.cos(phase), V * np.sin(phase)])
    Z = (X.reshape(-1, len(V)) @ G).reshape(X.shape)
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

# Float64 entries per batched intermediate of a whole-grid kernel (1 MiB);
# longer grids are evaluated in chunks of times so memory stays bounded.
_GRID_CHUNK_ENTRIES = 1 << 17

# Rows of phase_rows' exact table: on a lattice grid, time k = qB + r
# reads its cos/sin from the anchor row at qB and the table row at r.
_PHASE_TABLE_ROWS = 16


def phase_rows(lam: np.ndarray, times, scale: float, per_time: int, weights=(1.0,)):
    """The one time-series engine: yields (m, R) for consecutive chunks of
    m times of the grid, R stacking w cos(scale t lam) and then
    w sin(scale t lam), one row per time, for each weight w in turn.  A
    chunk holds the times whose batched intermediates, per_time float64
    entries per time, fit in _GRID_CHUNK_ENTRIES.

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


def trace_series(lam: np.ndarray, K: np.ndarray, times) -> np.ndarray:
    """Re sum_ab exp(2it(lam_a - lam_b)) K_ab = c^t K c + s^t K s, with c, s
    the cos and sin rows of 2t lam, for every t of the grid and a real K:
    the bilinear trace tr(exp(2itX) O exp(-2itX) G) of X = V diag(lam) V^t
    and symmetric O and G once K = (V^t O V) o (V^t G V)^t is formed.  A
    chunk of m times costs one (2m x d) @ (d x d) product.
    """
    if np.iscomplexobj(K):
        raise ValueError("trace_series takes a real K")
    out = np.empty(len(times))
    start = 0
    for m, R in phase_rows(lam, times, 2.0, 2 * len(lam)):
        q = np.einsum("ra,ra->r", R @ K, R)
        out[start : start + m] = q[:m] + q[m:]
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
