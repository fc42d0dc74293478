"""Brute-force full-Hilbert-space oracle, capped at n = 14; measured
reach: oracle_suite at n = 10 in about 0.65 s per realization on one core.

Everything here is assembled from the Pauli and Jordan-Wigner definitions
by bit operations on the spin basis, independent of the free-fermion
machinery, so it can certify that machinery.  Site 1 is the most
significant bit of a basis index; bit 0 means up (sigma_z = +1), and
up-spins are the particles.  H is real, and each fermion operator is a
signed partial permutation of the basis (JordanWigner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import ChainSpec

MAX_SITES = 14


def _check_n(n: int) -> None:
    if n > MAX_SITES:
        raise ValueError(f"oracle capped at n={MAX_SITES}, got {n}")


def _site_bits(n: int, j: int) -> np.ndarray:
    """Bit of site j (1 = down) in every basis index 0 .. 2^n - 1."""
    return (np.arange(2**n) >> (n - j)) & 1


@dataclass(frozen=True)
class JordanWigner:
    """The interleaved o = (c_1, c_1^*, ..., c_n, c_n^*) as signed partial
    permutations, o_p e_s = sgn[p, s] e_{tgt[p, s]} (sgn 0 where o_p
    annihilates e_s); all are real, so o_p^* = o_{p^1} = o_p^T."""

    tgt: np.ndarray  # (2n, 2^n) target basis indices
    sgn: np.ndarray  # (2n, 2^n) signs in {-1, 0, 1}

    def product(self, p, q) -> tuple:
        """(tgt, sgn) of o_p o_q; p or q may be an index array (one row each)."""
        return self.tgt[p][..., self.tgt[q]], self.sgn[q] * self.sgn[p][..., self.tgt[q]]


def all_c(n: int) -> JordanWigner:
    """c_j = sigma_z^(1) ... sigma_z^(j-1) a_j flips site j from up to down
    with sign (-1)^(down-spins left of j); c_j^* flips it back."""
    _check_n(n)
    s = np.arange(2**n)
    string = np.ones(2**n)
    tgt, sgn = [], []
    for j in range(1, n + 1):
        down = _site_bits(n, j)
        tgt += [s ^ (1 << (n - j))] * 2
        sgn += [string * (1 - down), string * down]
        string = string * (1 - 2 * down)
    return JordanWigner(np.array(tgt), np.array(sgn))


def occupation_mask(n: int, x: int) -> np.ndarray:
    """Diagonal of n_x = a_x^* a_x: 1.0 on the basis states with site x up."""
    return 1.0 - _site_bits(n, x)


def build_H(chain: ChainSpec) -> np.ndarray:
    """The real 2^n x 2^n XY Hamiltonian, from the Pauli action on bits."""
    return build_H_region(chain, 1, chain.n)


def build_H_region(chain: ChainSpec, a: int, b: int) -> np.ndarray:
    """Restriction of the Hamiltonian to the interval [a, b] (its interior
    bonds and fields), still acting on the full chain.  XX and YY flip bits
    j, j + 1 and YY is -1 on equal bits, so a bond gives -2 mu_j on a hop
    (unequal bits) and -2 mu_j gamma_j on a pair; Z is diagonal."""
    n = chain.n
    _check_n(n)
    s = np.arange(2**n)
    H = np.zeros((2**n, 2**n))
    for j in range(a, b):
        hop = _site_bits(n, j) != _site_bits(n, j + 1)
        H[s ^ (3 << (n - j - 1)), s] = -2.0 * chain.mu[j - 1] * np.where(hop, 1.0, chain.gamma[j - 1])
    H[s, s] = sum(-chain.nu[j - 1] * (1.0 - 2.0 * _site_bits(n, j)) for j in range(a, b + 1))
    return H


def spectral(H: np.ndarray):
    """Hermitian eigendecomposition (ascending)."""
    return np.linalg.eigh(H)


def schroedinger_evolve_state(psi: np.ndarray, eig: tuple, t: float) -> np.ndarray:
    """e^{-itH} psi from the eigensystem eig = (evals, evecs) of H."""
    evals, evecs = eig
    return evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ psi))


def thermal_state(eig: tuple, beta: float) -> np.ndarray:
    """Gibbs state e^{-beta H} / Z from the eigensystem eig = (evals, evecs)
    of H, with the ground energy shifted out for stability."""
    evals, evecs = eig
    w = np.exp(-beta * (evals - evals[0]))
    w /= np.sum(w)
    return (evecs * w) @ evecs.conj().T


def reduced_density(psi: np.ndarray, n: int, ell: int) -> np.ndarray:
    """Reduced state on sites [1, ell] of the pure state psi."""
    m = psi.reshape(2**ell, 2 ** (n - ell))
    return m @ m.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr rho ln rho in natural-log units."""
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


def correlation_blocks(state: np.ndarray, jw: JordanWigner) -> np.ndarray:
    """G[p, q] = <o_p o_q^*> in the interleaved (c_j, c_j^*) ordering for a
    vector state (the Gram matrix of the gathers o_q^* psi =
    sgn_q psi[tgt_q]) or a density matrix rho, one row p at a time:
    G[p, q] = sum_s sgn_q(s) sgn_p(s) rho[tgt_q(s), tgt_p(s)]."""
    if state.ndim == 1:
        U = jw.sgn * state[jw.tgt]
        return U.conj() @ U.T
    return np.array([np.sum(jw.sgn * jw.sgn[p] * state[jw.tgt, jw.tgt[p]], axis=1)
                     for p in range(len(jw.tgt))])


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
