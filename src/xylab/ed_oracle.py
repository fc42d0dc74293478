"""Brute-force full-Hilbert-space oracle for chains up to n = 14.

Everything here is assembled directly from Pauli tensor products and
dense linear algebra, independent of the free-fermion machinery, so it
can certify that machinery.  Site 1 is the leftmost tensor factor; the
single-site basis is (up, down) with sigma_z = diag(1, -1), and up-spins
are the particles.
"""

from __future__ import annotations

import numpy as np

from .disorder import ChainSpec

MAX_SITES = 14

_PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "I": np.eye(2, dtype=complex),
    # spin lowering operator a = (X - iY)/2 maps up to down
    "a": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def _check_n(n: int) -> None:
    if n > MAX_SITES:
        raise ValueError(f"oracle capped at n={MAX_SITES}, got {n}")


def site_op(n: int, j: int, kind: str) -> np.ndarray:
    """Single-site operator at site j (1-based) embedded in 2^n dims."""
    if not 1 <= j <= n:
        raise ValueError(f"site {j} outside [1, {n}]")
    return product_op(n, {j: kind})


def product_op(n: int, factors: dict) -> np.ndarray:
    """Tensor product with the given {site: kind} factors, identity elsewhere."""
    _check_n(n)
    op = np.eye(1, dtype=complex)
    for site in range(1, n + 1):
        op = np.kron(op, _PAULI[factors.get(site, "I")])
    return op


def jordan_wigner_c(n: int, j: int) -> np.ndarray:
    """c_j = sigma_z^(1) ... sigma_z^(j-1) a_j."""
    factors = {site: "Z" for site in range(1, j)}
    factors[j] = "a"
    return product_op(n, factors)


def all_c(n: int) -> list:
    return [jordan_wigner_c(n, j) for j in range(1, n + 1)]


def number_op(n: int, x: int) -> np.ndarray:
    """n_x = a_x^* a_x, the projector onto up-spin at site x."""
    a = site_op(n, x, "a")
    return a.conj().T @ a


def region_number_op(n: int, sites) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for x in sites:
        out += number_op(n, x)
    return out


def build_H(chain: ChainSpec) -> np.ndarray:
    """Exact tensor-product assembly of the XY Hamiltonian."""
    return build_H_region(chain, 1, chain.n)


def build_H_region(chain: ChainSpec, a: int, b: int) -> np.ndarray:
    """Restriction of the Hamiltonian to the interval [a, b] (its interior
    bonds and fields), still acting on the full chain."""
    n = chain.n
    _check_n(n)
    H = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(a, b):
        mu = chain.mu[j - 1]
        gam = chain.gamma[j - 1]
        xx = product_op(n, {j: "X", j + 1: "X"})
        yy = product_op(n, {j: "Y", j + 1: "Y"})
        H -= mu * ((1.0 + gam) * xx + (1.0 - gam) * yy)
    for j in range(a, b + 1):
        H -= chain.nu[j - 1] * site_op(n, j, "Z")
    return H


def spectral(H: np.ndarray):
    """Hermitian eigendecomposition (ascending)."""
    return np.linalg.eigh(H)


def heisenberg_evolve(op: np.ndarray, H, t: float) -> np.ndarray:
    """tau_t(op) = e^{itH} op e^{-itH}; H may be a matrix or a
    precomputed (evals, evecs) pair."""
    evals, evecs = H if isinstance(H, tuple) else spectral(H)
    phases = np.exp(1j * t * evals)
    tilde = evecs.conj().T @ op @ evecs
    return evecs @ (np.outer(phases, phases.conj()) * tilde) @ evecs.conj().T


def schroedinger_evolve_state(psi: np.ndarray, H, t: float) -> np.ndarray:
    """e^{-itH} psi; H may be a matrix or an (evals, evecs) pair."""
    evals, evecs = H if isinstance(H, tuple) else spectral(H)
    return evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ psi))


def thermal_state(H, beta: float) -> np.ndarray:
    """Gibbs state e^{-beta H} / Z, computed spectrally with the ground
    energy shifted out for stability; H may be a matrix or an (evals,
    evecs) pair."""
    evals, evecs = H if isinstance(H, tuple) else spectral(H)
    w = np.exp(-beta * (evals - evals[0]))
    w /= np.sum(w)
    return (evecs * w) @ evecs.conj().T


def commutator_norm(op1: np.ndarray, op2: np.ndarray) -> float:
    """Operator norm of [op1, op2]."""
    comm = op1 @ op2 - op2 @ op1
    return float(np.linalg.norm(comm, 2))


def reduced_density(state: np.ndarray, n: int, ell: int) -> np.ndarray:
    """Reduced state on sites [1, ell]; accepts a pure-state vector or a
    density matrix."""
    dA, dB = 2**ell, 2 ** (n - ell)
    if state.ndim == 1:
        m = state.reshape(dA, dB)
        return m @ m.conj().T
    rho = state.reshape(dA, dB, dA, dB)
    return np.trace(rho, axis1=1, axis2=3)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr rho ln rho in natural-log units."""
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


def correlation_blocks(state: np.ndarray, cs: list) -> np.ndarray:
    """Full 2n x 2n correlation matrix <C C^*> in the interleaved
    (c_j, c_j^*) ordering for a vector or density-matrix state.

    G[p, q] = <o_p o_q^*> is the Gram matrix <o_p^* psi, o_q^* psi> of a
    vector state; for a density matrix rho, G[p, q] = tr(o_q^* rho o_p),
    one row at a time so that only one 4^n product is held."""
    ops = [op for c in cs for op in (c, c.conj().T)]
    if state.ndim == 1:
        U = np.column_stack([op.conj().T @ state for op in ops])
        return U.conj().T @ U
    G = np.empty((len(ops), len(ops)), dtype=complex)
    for p, op in enumerate(ops):
        R = state @ op
        G[p] = [np.vdot(o, R) for o in ops]
    return G


def spin_basis_index(n: int, up_sites) -> int:
    """Index of the spin product basis vector with up-spins exactly at
    `up_sites` (1-based); site 1 is the most significant bit and the
    per-site index 0 means up."""
    idx = 0
    ups = set(up_sites)
    for j in range(1, n + 1):
        idx = 2 * idx + (0 if j in ups else 1)
    return idx


def spin_basis_vector(n: int, up_sites) -> np.ndarray:
    e = np.zeros(2**n, dtype=complex)
    e[spin_basis_index(n, up_sites)] = 1.0
    return e


def match_eigenstates(target_energies, evals, tol: float = 1e-6):
    """Pair each target energy with the index of the nearest oracle
    eigenvalue.  Returns (indices, degenerate_flags): a flag is set when
    the match is ambiguous within tol, in which case state-resolved
    comparisons for that label should be skipped."""
    evals = np.asarray(evals)
    indices = []
    flags = []
    for e in np.asarray(target_energies):
        d = np.abs(evals - e)
        k = int(np.argmin(d))
        ambiguous = np.sum(d < d[k] + tol) > 1
        indices.append(k)
        flags.append(bool(ambiguous))
    return np.array(indices), np.array(flags)
