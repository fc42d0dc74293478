import numpy as np
import pytest

from xylab import disorder
from xylab import ed_oracle as ed
from xylab import experiments as xp


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ensemble_mean(worker, ensemble, params, part=None):
    """Mean over the ensemble, by the library's one reduction, of an
    experiment worker xp._real_*; `part` picks one entry of a worker
    returning a tuple."""
    results = xp.map_realizations(worker, ensemble, params, workers=1)
    if part is not None:
        results = [r[part] for r in results]
    return disorder.aggregate(results)["mean"]


def ed_commutator_sups(chain, pairs, times) -> dict:
    """sup over the time grid of ||[X_j(t), X_k]|| per pair (j, k), on the
    2^n oracle of the chain.  The X operators move into H's eigenbasis
    once; each step costs a phase product, the commutator P - P^* with
    P = X_j(t) X_k (both factors Hermitian) and the eigenvalues of the
    Hermitian i[X_j(t), X_k], whose largest modulus is the norm."""
    evals, evecs = ed.spectral(ed.build_H(chain))
    sites = {s for pair in pairs for s in pair}
    tilde = {s: evecs.conj().T @ kron_chain(chain.n, {s: "X"}) @ evecs for s in sites}
    sups = dict.fromkeys(pairs, 0.0)
    for t in times:
        phases = np.exp(1j * t * evals)
        rotation = np.outer(phases, phases.conj())
        for j, k in pairs:
            P = (rotation * tilde[j]) @ tilde[k]
            norm = float(np.max(np.abs(np.linalg.eigvalsh(1j * (P - P.conj().T)))))
            sups[(j, k)] = max(sups[(j, k)], norm)
    return sups


def random_chain(rng, n, anisotropic=True, nu_scale=1.5):
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1) if anisotropic else np.zeros(n - 1)
    nu = rng.uniform(-nu_scale, nu_scale, n)
    return disorder.make_chain(mu, gamma, nu)


@pytest.fixture
def chain_factory(rng):
    return lambda n, anisotropic=True: random_chain(rng, n, anisotropic)


# ---------------------------------------------------------------------------
# test-only oracle helpers and the np.kron reference of the Jordan-Wigner
# tables and of the bit-built H

PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "a": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def kron_chain(n, factors):
    """np.kron chain of the Pauli matrices {site: kind}, identity elsewhere."""
    op = np.eye(1, dtype=complex)
    for site in range(1, n + 1):
        op = np.kron(op, PAULI[factors.get(site, "I")])
    return op


def kron_jordan_wigner_c(n, j):
    """c_j = sigma_z^(1) ... sigma_z^(j-1) a_j as a kron chain."""
    return kron_chain(n, {**{site: "Z" for site in range(1, j)}, j: "a"})


def kron_build_H(chain):
    """The XY Hamiltonian as a sum of kron chains of the Pauli matrices."""
    n = chain.n
    H = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n):
        mu, gam = chain.mu[j - 1], chain.gamma[j - 1]
        H -= mu * ((1.0 + gam) * kron_chain(n, {j: "X", j + 1: "X"})
                   + (1.0 - gam) * kron_chain(n, {j: "Y", j + 1: "Y"}))
    for j in range(1, n + 1):
        H -= chain.nu[j - 1] * kron_chain(n, {j: "Z"})
    return H


def dense_op(jw, p):
    """The interleaved operator o_p of the oracle's tables as a dense matrix."""
    dim = jw.tgt.shape[1]
    op = np.zeros((dim, dim))
    op[jw.tgt[p], np.arange(dim)] = jw.sgn[p]
    return op


def dense_cs(n):
    """[c_1, ..., c_n] as dense matrices made from the oracle's tables."""
    jw = ed.all_c(n)
    return [dense_op(jw, 2 * j) for j in range(n)]


def heisenberg_evolve(op, H, t):
    """tau_t(op) = e^{itH} op e^{-itH}; H may be a matrix or a
    precomputed (evals, evecs) pair."""
    evals, evecs = H if isinstance(H, tuple) else ed.spectral(H)
    phases = np.exp(1j * t * evals)
    tilde = evecs.conj().T @ op @ evecs
    return evecs @ (np.outer(phases, phases.conj()) * tilde) @ evecs.conj().T


def commutator_norm(op1, op2):
    """Operator norm of [op1, op2]."""
    return float(np.linalg.norm(op1 @ op2 - op2 @ op1, 2))


def spin_basis_vector(n, up_sites):
    e = np.zeros(2**n, dtype=complex)
    e[ed.spin_basis_index(n, up_sites)] = 1.0
    return e


def region_number_op(n, sites):
    """sum_{x in sites} n_x as a dense diagonal matrix."""
    return np.diag(sum(ed.occupation_mask(n, x) for x in sites))
