import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import hamiltonian as ham
from xylab.disorder import make_chain

from conftest import random_chain


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
    cs = ed.all_c(n)
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
        cs = ed.all_c(n)
        H2 = np.sum(iso.nu) * np.eye(2**n, dtype=complex)
        for j in range(n):
            for k in range(n):
                H2 += 2.0 * A[j, k] * (cs[j].conj().T @ cs[k])
        assert np.max(np.abs(H - H2)) < 1e-10

        aniso = random_chain(rng, n, anisotropic=True)
        Ha = ed.build_H(aniso)
        M = ham.build_M(aniso)
        ops = []
        for c in ed.all_c(n):
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
    x1 = ed.site_op(n, 1, "X")
    y3 = ed.site_op(n, 3, "Y")
    assert ed.commutator_norm(x1, y3) < 1e-14


def test_commutator_grows_under_evolution():
    ch = make_chain([1.0, 1.0], [0.0, 0.0], [0.3, -0.2, 0.5])
    H = ed.build_H(ch)
    hd = ed.spectral(H)
    x1 = ed.site_op(3, 1, "X")
    x3 = ed.site_op(3, 3, "X")
    at_zero = ed.commutator_norm(x1, x3)
    evolved = ed.commutator_norm(ed.heisenberg_evolve(x1, hd, 1.0), x3)
    assert at_zero < 1e-14
    assert evolved > 0.1  # information reaches distance 2 by t=1


def test_heisenberg_evolution_unitarity(rng):
    ch = random_chain(rng, 3)
    H = ed.build_H(ch)
    op = ed.site_op(3, 2, "X")
    evolved = ed.heisenberg_evolve(op, H, 0.83)
    assert np.max(np.abs(evolved @ evolved - np.eye(8))) < 1e-12  # X_t^2 = 1


def test_reduced_density_product_state():
    psi = ed.spin_basis_vector(3, [1])  # up at site 1 only
    rho = ed.reduced_density(psi, 3, 1)
    assert np.allclose(rho, [[1, 0], [0, 0]])
    assert ed.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_reduced_density_of_bell_pair():
    # (|ud> + |du>)/sqrt(2) has one bit of entanglement
    psi = (ed.spin_basis_vector(2, [1]) + ed.spin_basis_vector(2, [2])) / np.sqrt(2)
    rho = ed.reduced_density(psi, 2, 1)
    assert ed.von_neumann_entropy(rho) == pytest.approx(np.log(2), abs=1e-12)


def test_thermal_state_properties(rng):
    ch = random_chain(rng, 3)
    H = ed.build_H(ch)
    rho = ed.thermal_state(H, 1.3)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    # infinite temperature: maximally mixed
    assert np.max(np.abs(ed.thermal_state(H, 0.0) - np.eye(8) / 8)) < 1e-12


def _pairwise_correlation_blocks(state, cs):
    # reference: <o_p o_q^*> from the dense product of every operator pair
    ops = [op for c in cs for op in (c, c.conj().T)]

    def expect(op):
        if state.ndim == 1:
            return state.conj() @ (op @ state)
        return np.trace(state @ op)

    return np.array([[expect(op_p @ op_q.conj().T) for op_q in ops] for op_p in ops])


def test_correlation_blocks_match_pairwise_products(rng):
    # the Gram-form contraction against the operator-product double loop on
    # an eigenvector, a thermal density matrix and an evolved complex vector
    for n in (1, 2, 3, 4):
        H = ed.build_H(random_chain(rng, n))
        evals, evecs = ed.spectral(H)
        cs = ed.all_c(n)
        mixed = (evecs[:, 0] + 1j * evecs[:, -1]) / np.sqrt(2)
        psi_t = ed.schroedinger_evolve_state(mixed, (evals, evecs), 0.7)
        for state in (evecs[:, 0], ed.thermal_state(H, 0.9), psi_t):
            G = ed.correlation_blocks(state, cs)
            assert G.shape == (2 * n, 2 * n)
            assert np.max(np.abs(G - _pairwise_correlation_blocks(state, cs))) < 1e-14


def test_spin_basis_indexing():
    # all down is the last index, all up the first
    assert ed.spin_basis_index(3, []) == 7
    assert ed.spin_basis_index(3, [1, 2, 3]) == 0
    # n_x picks out up-spins
    psi = ed.spin_basis_vector(3, [2])
    for x, expected in ((1, 0.0), (2, 1.0), (3, 0.0)):
        val = np.real(psi.conj() @ (ed.number_op(3, x) @ psi))
        assert val == pytest.approx(expected, abs=1e-12)


def test_match_eigenstates_flags_degeneracy():
    evals = np.array([0.0, 1.0, 1.0 + 1e-9, 3.0])
    idx, flags = ed.match_eigenstates([0.0, 1.0, 3.0], evals)
    assert list(idx[[0, 2]]) == [0, 3]
    assert not flags[0] and flags[1] and not flags[2]


def test_site_cap():
    with pytest.raises(ValueError):
        ed.site_op(15, 1, "Z")


_KINDS = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "a": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_site_op_equals_the_explicit_kron_chain(n):
    for kind, matrix in _KINDS.items():
        for j in range(1, n + 1):
            op = np.eye(1, dtype=complex)
            for site in range(1, n + 1):
                op = np.kron(op, matrix if site == j else np.eye(2, dtype=complex))
            assert np.array_equal(ed.site_op(n, j, kind), op)
    with pytest.raises(ValueError, match=f"site {n + 1} outside"):
        ed.site_op(n, n + 1, "X")
