"""Brute-force full-Hilbert-space oracle, capped at n = 14; measured
reach: oracle_suite at n = 12 in about 4 s, n = 13 in 34 s (1.0 GiB peak
RSS) and n = 14 in 304 s (3.4 GiB, under a 4 GiB address-space limit)
per realization on one core.

Everything here is assembled from the Pauli and Jordan-Wigner definitions
by bit operations on the spin basis, independent of the free-fermion
machinery, so it can certify that machinery.  Site 1 is the most
significant bit of a basis index; bit 0 means up (sigma_z = +1), and
up-spins are the particles.  H is real and held as its bit-flip
diagonals (build_H), and each fermion operator is a signed partial
permutation of the basis (JordanWigner).  H keeps the parity of the
down-spin count and the isotropic H keeps the count itself, so
eigensystems and Gibbs states are held one symmetry sector at a time
(Sectors, SectorEigensystem); no 2^n x 2^n matrix is formed.
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


def build_H(chain: ChainSpec) -> dict:
    """The real XY Hamiltonian as its bit-flip diagonals {mask: values},
    H e_s = sum_m H[m][s] e_{s ^ m}, from the Pauli action on bits.  Z is
    diagonal, so mask 0 holds the fields.  XX and YY flip bits j, j + 1 and
    YY is -1 on equal bits, so bond j sits on mask 3 << (n - j - 1): -2 mu_j
    on a hop (unequal bits) and -2 mu_j gamma_j on a pair."""
    n = chain.n
    _check_n(n)
    H = {0: sum(-chain.nu[j - 1] * (1.0 - 2.0 * _site_bits(n, j)) for j in range(1, n + 1))}
    for j in range(1, n):
        hop = _site_bits(n, j) != _site_bits(n, j + 1)
        H[3 << (n - j - 1)] = -2.0 * chain.mu[j - 1] * np.where(hop, 1.0, chain.gamma[j - 1])
    return H


@dataclass(frozen=True)
class Sectors:
    """A split of the 2^n basis indices into symmetry sectors: index[k]
    holds sector k's basis indices in ascending order, and basis index s
    lies in sector label[s] at position[s] of index[label[s]]."""

    index: tuple
    label: np.ndarray
    position: np.ndarray


def _sectors(charge: np.ndarray) -> Sectors:
    """Sectors of the basis indices by the integer charge of each, 0 .. max."""
    index = tuple(np.flatnonzero(charge == q) for q in range(int(charge.max()) + 1))
    position = np.empty(len(charge), dtype=np.intp)
    for idx in index:
        position[idx] = np.arange(len(idx))
    return Sectors(index, charge.astype(np.intp), position)


def parity_sectors(n: int) -> Sectors:
    """The even and odd down-spin-count sectors, 2^(n-1) states each: H
    keeps them, and so does o_p o_q^*."""
    _check_n(n)
    return _sectors(np.bitwise_count(np.arange(2**n)) % 2)


def number_sectors(n: int) -> Sectors:
    """The sectors of 0 .. n down spins, which the isotropic H keeps; the
    largest holds C(n, n // 2) states."""
    _check_n(n)
    return _sectors(np.bitwise_count(np.arange(2**n)))


@dataclass(frozen=True)
class SectorEigensystem:
    """Eigenpairs of H one sector at a time: (evals[k], evecs[k]) of H
    restricted to sectors.index[k], evals ascending.  energies is the
    merged ascending spectrum of all sectors; its entry i is eigenvalue
    column[i] of sector sector[i]."""

    sectors: Sectors
    evals: tuple
    evecs: tuple
    energies: np.ndarray
    sector: np.ndarray
    column: np.ndarray

    def vector(self, i: int) -> np.ndarray:
        """The eigenvector of energies[i] as a 2^n vector, zero off its sector."""
        k = self.sector[i]
        out = np.zeros(len(self.sectors.label))
        out[self.sectors.index[k]] = self.evecs[k][:, self.column[i]]
        return out


def _sector_block(H: dict, sectors: Sectors, idx: np.ndarray) -> np.ndarray:
    """H restricted to the sector of basis indices idx, from the nonzero
    entries of its diagonals."""
    block = np.zeros((len(idx), len(idx)))
    col = np.arange(len(idx))
    for mask, values in H.items():
        v = values[idx]
        nz = v != 0
        block[sectors.position[idx[nz] ^ mask], col[nz]] = v[nz]
    return block


def spectral(H: dict, sectors: Sectors) -> SectorEigensystem:
    """Eigendecomposition of the real symmetric H, given as its bit-flip
    diagonals, one eigh per sector; each block is built just before its
    eigh.  An H with a nonzero entry between two sectors is an error: its
    spectrum is not the union of the blocks'."""
    label = sectors.label
    s = np.arange(len(label))
    if any(np.any((values != 0) & (label[s ^ mask] != label)) for mask, values in H.items()):
        raise ValueError("H couples two symmetry sectors")
    evals, evecs = zip(*(np.linalg.eigh(_sector_block(H, sectors, idx)) for idx in sectors.index))
    merged = np.concatenate(evals)
    order = np.argsort(merged, kind="stable")
    sector = np.repeat(np.arange(len(evals)), [len(e) for e in evals])
    column = np.concatenate([np.arange(len(e)) for e in evals])
    return SectorEigensystem(sectors, evals, evecs, merged[order], sector[order], column[order])


def schroedinger_evolve_state(psi: np.ndarray, eig: SectorEigensystem, t: float) -> np.ndarray:
    """e^{-itH} psi, sector by sector; a sector where psi vanishes (all but
    one for a basis state) is skipped."""
    out = np.zeros(len(psi), dtype=complex)
    for idx, evals, evecs in zip(eig.sectors.index, eig.evals, eig.evecs):
        part = psi[idx]
        if part.any():
            out[idx] = evecs @ (np.exp(-1j * t * evals) * (evecs.T @ part))
    return out


def thermal_state(eig: SectorEigensystem, beta: float) -> tuple:
    """Gibbs state e^{-beta H} / Z as its diagonal blocks, one per sector of
    eig (it has no others), with the ground energy shifted out for
    stability.  Each block is B B^t for B = V diag(sqrt(w)), one symmetric
    rank-k product."""
    weights = [np.exp(-beta * (evals - eig.energies[0])) for evals in eig.evals]
    z = sum(np.sum(w) for w in weights)
    roots = (evecs * np.sqrt(w / z) for w, evecs in zip(weights, eig.evecs))
    return tuple(b @ b.T for b in roots)


def reduced_density(psi: np.ndarray, n: int, ell: int) -> np.ndarray:
    """Reduced state on sites [1, ell] of the pure state psi."""
    m = psi.reshape(2**ell, 2 ** (n - ell))
    return m @ m.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr rho ln rho in natural-log units.  An eigenvalue of rho outside
    [0, 1] by more than 1e-9 is an error; the rest below 1e-14 add 0."""
    p = np.linalg.eigvalsh(rho)
    if p[0] < -1e-9 or p[-1] > 1 + 1e-9:
        raise ValueError(f"density spectrum outside [0,1]: [{p[0]:.3e}, {p[-1]:.3e}]")
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


def correlation_blocks(state, jw: JordanWigner, sectors: Sectors | None = None) -> np.ndarray:
    """G[p, q] = <o_p o_q^*> in the interleaved (c_j, c_j^*) ordering, for a
    vector state (the Gram matrix of the gathers o_q^* psi =
    sgn_q psi[tgt_q]) or, with its sectors, for a density matrix given as
    its diagonal blocks, one per sector, one row p at a time:
    G[p, q] = sum_s sgn_q(s) sgn_p(s) rho[tgt_q(s), tgt_p(s)], an entry that
    is 0 unless both targets lie in one sector, which parity sectors always
    give (each target flips one bit of s)."""
    if sectors is None:
        U = jw.sgn * state[jw.tgt]
        return U.conj() @ U.T
    dims = np.array([len(idx) for idx in sectors.index])
    offset = np.concatenate([[0], np.cumsum(dims**2)[:-1]])
    flat = np.concatenate([block.ravel() for block in state])
    label, position = sectors.label[jw.tgt], sectors.position[jw.tgt]
    row = offset[label] + position * dims[label]  # start of row tgt_q(s) in its block
    G = np.empty((len(jw.tgt), len(jw.tgt)), dtype=flat.dtype)
    for p in range(len(jw.tgt)):
        inside = label == label[p]
        entry = flat[np.where(inside, row + position[p], 0)]
        G[p] = np.sum(np.where(inside, jw.sgn * jw.sgn[p] * entry, 0.0), axis=1)
    return G


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
