import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import hamiltonian as ham
from xylab.disorder import make_chain

from conftest import (commutator_norm, dense_cs, dense_op, ed_commutator_sups, heisenberg_evolve,
                      kron_build_H, kron_chain, kron_jordan_wigner_c, random_chain,
                      spin_basis_index, spin_basis_vector)


def test_single_site_hamiltonian():
    ch = make_chain([], [], [0.7])
    H = ed.build_H(ch)
    assert np.allclose(H, -0.7 * np.array([[1, 0], [0, -1]]))
    assert np.allclose(np.linalg.eigvalsh(H), [-0.7, 0.7])


def test_two_site_clean_spectrum():
    ch = make_chain([1.0], [0.0], [0.0, 0.0])
    evals = np.linalg.eigvalsh(ed.build_H(ch))
    assert np.allclose(evals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_car_relations():
    n = 3
    cs = dense_cs(n)
    eye = np.eye(2**n)
    for j in range(n):
        for k in range(n):
            anti = cs[j] @ cs[k].conj().T + cs[k].conj().T @ cs[j]
            target = eye if j == k else np.zeros_like(eye)
            assert np.max(np.abs(anti - target)) < 1e-12
            assert np.max(np.abs(cs[j] @ cs[k] + cs[k] @ cs[j])) < 1e-12


def test_quadratic_form_identities(rng):
    # 2 c^* A c + sum(nu) reproduces the particle-conserving chain,
    # C^* M C the general one
    for n in (2, 3):
        iso = random_chain(rng, n, anisotropic=False)
        H = ed.build_H(iso)
        A = ham.build_A(iso)
        cs = dense_cs(n)
        H2 = np.sum(iso.nu) * np.eye(2**n, dtype=complex)
        for j in range(n):
            for k in range(n):
                H2 += 2.0 * A[j, k] * (cs[j].conj().T @ cs[k])
        assert np.max(np.abs(H - H2)) < 1e-10

        aniso = random_chain(rng, n, anisotropic=True)
        Ha = ed.build_H(aniso)
        M = ham.build_M(aniso)
        ops = []
        for c in cs:
            ops.append(c)
            ops.append(c.conj().T)
        H3 = np.zeros_like(Ha)
        for p in range(2 * n):
            for q in range(2 * n):
                if M[p, q] != 0.0:
                    H3 += M[p, q] * (ops[p].conj().T @ ops[q])
        assert np.max(np.abs(Ha - H3)) < 1e-10


def test_local_operators_commute_at_distance():
    n = 3
    x1 = kron_chain(n, {1: "X"})
    y3 = kron_chain(n, {3: "Y"})
    assert commutator_norm(x1, y3) < 1e-14


def test_commutator_grows_under_evolution():
    ch = make_chain([1.0, 1.0], [0.0, 0.0], [0.3, -0.2, 0.5])
    H = ed.build_H(ch)
    hd = ed.spectral(H)
    x1 = kron_chain(3, {1: "X"})
    x3 = kron_chain(3, {3: "X"})
    at_zero = commutator_norm(x1, x3)
    evolved = commutator_norm(heisenberg_evolve(x1, hd, 1.0), x3)
    assert at_zero < 1e-14
    assert evolved > 0.1  # information reaches distance 2 by t=1


def test_heisenberg_evolution_unitarity(rng):
    ch = random_chain(rng, 3)
    H = ed.build_H(ch)
    op = kron_chain(3, {2: "X"})
    evolved = heisenberg_evolve(op, H, 0.83)
    assert np.max(np.abs(evolved @ evolved - np.eye(8))) < 1e-12  # X_t^2 = 1


def test_reduced_density_product_state():
    psi = spin_basis_vector(3, [1])  # up at site 1 only
    rho = ed.reduced_density(psi, 3, 1)
    assert np.allclose(rho, [[1, 0], [0, 0]])
    assert ed.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_reduced_density_of_bell_pair():
    # (|ud> + |du>)/sqrt(2) has one bit of entanglement
    psi = (spin_basis_vector(2, [1]) + spin_basis_vector(2, [2])) / np.sqrt(2)
    rho = ed.reduced_density(psi, 2, 1)
    assert ed.von_neumann_entropy(rho) == pytest.approx(np.log(2), abs=1e-12)


def test_thermal_state_properties(rng):
    ch = random_chain(rng, 3)
    eig = ed.spectral(ed.build_H(ch))
    rho = ed.thermal_state(eig, 1.3)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    # infinite temperature: maximally mixed
    assert np.max(np.abs(ed.thermal_state(eig, 0.0) - np.eye(8) / 8)) < 1e-12


def _pairwise_correlation_blocks(state, n):
    # reference: <o_p o_q^*> from the dense product of every pair of the
    # kron-chain operators
    cs = [kron_jordan_wigner_c(n, j) for j in range(1, n + 1)]
    ops = [op for c in cs for op in (c, c.conj().T)]

    def expect(op):
        if state.ndim == 1:
            return state.conj() @ (op @ state)
        return np.trace(state @ op)

    return np.array([[expect(op_p @ op_q.conj().T) for op_q in ops] for op_p in ops])


def test_correlation_blocks_match_pairwise_products(rng):
    # the table gathers against the operator-product double loop on an
    # eigenvector, a thermal density matrix and an evolved complex vector
    for n in (1, 2, 3, 4):
        H = ed.build_H(random_chain(rng, n))
        evals, evecs = ed.spectral(H)
        jw = ed.all_c(n)
        mixed = (evecs[:, 0] + 1j * evecs[:, -1]) / np.sqrt(2)
        psi_t = ed.schroedinger_evolve_state(mixed, (evals, evecs), 0.7)
        for state in (evecs[:, 0], ed.thermal_state((evals, evecs), 0.9), psi_t):
            G = ed.correlation_blocks(state, jw)
            assert G.shape == (2 * n, 2 * n)
            assert np.max(np.abs(G - _pairwise_correlation_blocks(state, n))) < 1e-14


def test_spin_basis_indexing():
    # all down is the last index, all up the first
    assert spin_basis_index(3, []) == 7
    assert spin_basis_index(3, [1, 2, 3]) == 0
    # n_x picks out up-spins
    psi = spin_basis_vector(3, [2])
    for x, expected in ((1, 0.0), (2, 1.0), (3, 0.0)):
        val = np.sum(ed.occupation_mask(3, x) * np.abs(psi) ** 2)
        assert val == pytest.approx(expected, abs=1e-12)


def test_match_eigenstates_flags_degeneracy():
    evals = np.array([0.0, 1.0, 1.0 + 1e-9, 3.0])
    idx, flags = ed.match_eigenstates([0.0, 1.0, 3.0], evals)
    assert list(idx[[0, 2]]) == [0, 3]
    assert not flags[0] and flags[1] and not flags[2]


def test_site_cap():
    with pytest.raises(ValueError, match="oracle capped at n=14"):
        ed.all_c(15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tables_give_the_kron_chain_operators_bit_for_bit(n):
    jw = ed.all_c(n)
    assert jw.tgt.shape == jw.sgn.shape == (2 * n, 2**n)
    for j in range(1, n + 1):
        c = kron_jordan_wigner_c(n, j)
        assert not c.imag.any()
        assert np.array_equal(dense_op(jw, 2 * j - 2), c.real)
        assert np.array_equal(dense_op(jw, 2 * j - 1), c.real.T)
        for p in (2 * j - 2, 2 * j - 1):
            for q in range(2 * n):
                tgt, sgn = jw.product(p, q)
                product = np.zeros((2**n, 2**n))
                product[tgt, np.arange(2**n)] = sgn
                assert np.array_equal(product, dense_op(jw, p) @ dense_op(jw, q))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bit_built_hamiltonian_equals_the_kron_sum(rng, n):
    chains = [random_chain(rng, n, anisotropic=aniso) for aniso in (False, True)]
    # the degenerate corners: gamma = +-1, a zero bond, no field
    chains.append(make_chain(([0.0] + [1.0] * n)[: n - 1], np.resize([1.0, -1.0], n - 1), np.zeros(n)))
    for ch in chains:
        H = ed.build_H(ch)
        assert H.dtype == np.float64
        assert np.max(np.abs(H - kron_build_H(ch))) < 1e-14
    # a region keeps its interior bonds and fields only
    ch = chains[1]
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            sub = make_chain(ch.mu[a - 1:b - 1], ch.gamma[a - 1:b - 1], ch.nu[a - 1:b])
            ref = np.kron(np.kron(np.eye(2 ** (a - 1)), kron_build_H(sub)), np.eye(2 ** (n - b)))
            assert np.max(np.abs(ed.build_H_region(ch, a, b) - ref)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_sector_commutator_sweep_matches_the_dense_sweep(rng, n):
    # the parity-sector sweep against the whole 2^n eigenbasis: X_j(t) by
    # dense phases, the norm from eigvalsh of the dense Hermitian i[X_j(t), X_k]
    ch = random_chain(rng, n)
    if n == 6:
        ch = make_chain(ch.mu[:2] + (0.0,) + ch.mu[3:], ch.gamma, ch.nu)  # a zero bond
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    times = np.linspace(0.0, 4.0, 9)
    evals, evecs = ed.spectral(ed.build_H(ch))
    tilde = {s: evecs.T @ kron_chain(n, {s: "X"}) @ evecs for s in range(1, n + 1)}
    dense = dict.fromkeys(pairs, 0.0)
    for t in times:
        rotation = np.exp(1j * t * np.subtract.outer(evals, evals))
        for j, k in pairs:
            P = (rotation * tilde[j]) @ tilde[k]
            dense[(j, k)] = max(dense[(j, k)], np.max(np.abs(np.linalg.eigvalsh(1j * (P - P.conj().T)))))
    sectors = ed_commutator_sups(ch, pairs, times)
    assert max(abs(sectors[p] - dense[p]) for p in pairs) < 1e-12
    assert max(dense.values()) > 0.5  # the sweeps do not agree by both reading zeros
