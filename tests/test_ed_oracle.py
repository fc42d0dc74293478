import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import hamiltonian as ham
from xylab.disorder import make_chain

from conftest import (CORNERS, commutator_norm, corner_chain, dense_cs, dense_H, dense_op,
                      ed_commutator_sups, heisenberg_evolve, kron_build_H, kron_chain, kron_jordan_wigner_c,
                      random_chain, spin_basis_index, spin_basis_vector)


def test_single_site_hamiltonian():
    ch = make_chain([], [], [0.7])
    H = dense_H(ch)
    assert np.allclose(H, -0.7 * np.array([[1, 0], [0, -1]]))
    assert np.allclose(np.linalg.eigvalsh(H), [-0.7, 0.7])


def test_two_site_clean_spectrum():
    ch = make_chain([1.0], [0.0], [0.0, 0.0])
    evals = np.linalg.eigvalsh(dense_H(ch))
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
        H = dense_H(iso)
        A = ham.build_A(iso)
        cs = dense_cs(n)
        H2 = np.sum(iso.nu) * np.eye(2**n, dtype=complex)
        for j in range(n):
            for k in range(n):
                H2 += 2.0 * A[j, k] * (cs[j].conj().T @ cs[k])
        assert np.max(np.abs(H - H2)) < 1e-10

        aniso = random_chain(rng, n, anisotropic=True)
        Ha = dense_H(aniso)
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
    hd = np.linalg.eigh(dense_H(ch))
    x1 = kron_chain(3, {1: "X"})
    x3 = kron_chain(3, {3: "X"})
    at_zero = commutator_norm(x1, x3)
    evolved = commutator_norm(heisenberg_evolve(x1, hd, 1.0), x3)
    assert at_zero < 1e-14
    assert evolved > 0.1  # information reaches distance 2 by t=1


def test_heisenberg_evolution_unitarity(rng):
    ch = random_chain(rng, 3)
    H = dense_H(ch)
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
    eig = ed.spectral(ed.build_H(ch), ed.parity_sectors(3))
    blocks = ed.thermal_state(eig, 1.3)
    assert sum(np.trace(b) for b in blocks) == pytest.approx(1.0, abs=1e-10)
    assert min(np.min(np.linalg.eigvalsh(b)) for b in blocks) > -1e-12
    # infinite temperature: maximally mixed
    assert max(np.max(np.abs(b - np.eye(4) / 8)) for b in ed.thermal_state(eig, 0.0)) < 1e-12


def _dense(blocks, sectors):
    # the 2^n x 2^n matrix with the given diagonal blocks on the sectors
    out = np.zeros((len(sectors.label),) * 2)
    for idx, block in zip(sectors.index, blocks):
        out[np.ix_(idx, idx)] = block
    return out


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
    # eigenvector, a thermal density matrix held as its parity blocks (and
    # as the unequal number blocks of an isotropic chain) and an evolved
    # complex vector of mixed parity
    for n in (1, 2, 3, 4):
        jw = ed.all_c(n)
        eig = ed.spectral(ed.build_H(random_chain(rng, n)), ed.parity_sectors(n))
        iso = ed.spectral(ed.build_H(random_chain(rng, n, anisotropic=False)), ed.number_sectors(n))
        ground = eig.vector(0)
        mixed = (ground + 1j * eig.vector(2**n - 1)) / np.sqrt(2)
        psi_t = ed.schroedinger_evolve_state(mixed, eig, 0.7)
        cases = [(ground, ed.correlation_blocks(ground, jw)),
                 (psi_t, ed.correlation_blocks(psi_t, jw))]
        for e in (eig, iso):
            blocks = ed.thermal_state(e, 0.9)
            cases.append((_dense(blocks, e.sectors), ed.correlation_blocks(blocks, jw, e.sectors)))
        for state, G in cases:
            assert G.shape == (2 * n, 2 * n)
            assert np.max(np.abs(G - _pairwise_correlation_blocks(state, n))) < 1e-14


def _dense_thermal(evals, evecs, beta):
    w = np.exp(-beta * (evals - evals[0]))
    return (evecs * (w / np.sum(w))) @ evecs.T


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("corner", CORNERS)
def test_sector_eigensystem_matches_dense_eigh(rng, n, corner):
    # the per-sector path against np.linalg.eigh of the whole 2^n H: the
    # merged spectrum, the ambiguity flags of the matching (the clean chain
    # has exact degeneracies across sectors), the Gibbs blocks and the
    # evolved basis state
    ch = corner_chain(rng, n, corner)
    evals, evecs = np.linalg.eigh(dense_H(ch))
    eig = ed.spectral(ed.build_H(ch), ed.parity_sectors(n))
    assert np.max(np.abs(eig.energies - evals)) < 1e-12
    targets = ham.all_many_body_energies(ham.bogoliubov(ch))
    idx, flags = ed.match_eigenstates(targets, eig.energies)
    dense_idx, dense_flags = ed.match_eigenstates(targets, evals)
    assert np.array_equal(flags, dense_flags)
    assert np.array_equal(idx[~flags], dense_idx[~flags])
    for k in idx[~flags]:  # an unambiguous eigenvector is the dense one up to sign
        assert abs(abs(eig.vector(k) @ evecs[:, k]) - 1.0) < 1e-10
    rho = _dense_thermal(evals, evecs, 0.8)
    assert np.max(np.abs(_dense(ed.thermal_state(eig, 0.8), eig.sectors) - rho)) < 1e-12
    psi0 = spin_basis_vector(n, range(1, n + 1, 2))
    psit = evecs @ (np.exp(-0.7j * evals) * (evecs.T @ psi0))
    assert np.max(np.abs(ed.schroedinger_evolve_state(psi0, eig, 0.7) - psit)) < 1e-12
    if corner == "clean" and n > 1:
        assert flags.any()  # the comparison covers ambiguous matches


def test_number_sectors_of_the_isotropic_chain(rng):
    n = 6
    iso = random_chain(rng, n, anisotropic=False)
    eig = ed.spectral(ed.build_H(iso), ed.number_sectors(n))
    assert [len(idx) for idx in eig.sectors.index] == [1, 6, 15, 20, 15, 6, 1]
    assert np.max(np.abs(eig.energies - np.linalg.eigvalsh(dense_H(iso)))) < 1e-12


def test_an_h_coupling_two_sectors_is_rejected(rng):
    n = 4
    H = ed.build_H(random_chain(rng, n))
    broken = {**H, 1: np.full(2**n, 0.1)}  # flipping the last bit changes the parity
    with pytest.raises(ValueError, match="H couples two symmetry sectors"):
        ed.spectral(broken, ed.parity_sectors(n))
    # the pairing terms of an anisotropic H change the particle number by 2
    with pytest.raises(ValueError, match="H couples two symmetry sectors"):
        ed.spectral(H, ed.number_sectors(n))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_sectors_partition_the_basis(n):
    for sectors in (ed.parity_sectors(n), ed.number_sectors(n)):
        assert np.array_equal(np.sort(np.concatenate(sectors.index)), np.arange(2**n))
        for k, idx in enumerate(sectors.index):
            assert np.all(np.diff(idx) > 0)
            assert np.all(sectors.label[idx] == k)
            assert np.array_equal(sectors.position[idx], np.arange(len(idx)))
    assert [len(idx) for idx in ed.parity_sectors(n).index] == [2 ** (n - 1)] * 2


def test_von_neumann_entropy_rejects_a_spectrum_outside_the_unit_interval():
    assert ed.von_neumann_entropy(np.diag([0.5, 0.5, -1e-10])) == pytest.approx(np.log(2), abs=1e-12)
    for bad in ([0.5, 0.5 + 1e-6, -1e-6], [1.0 + 1e-6, 0.0]):
        with pytest.raises(ValueError, match="density spectrum outside"):
            ed.von_neumann_entropy(np.diag(bad))


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
        assert list(H) == [0] + [3 << (n - j - 1) for j in range(1, n)]  # fields, then bond j
        assert all(v.dtype == np.float64 and v.shape == (2**n,) for v in H.values())
        assert np.max(np.abs(dense_H(ch) - kron_build_H(ch))) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_sector_commutator_sweep_matches_the_dense_sweep(rng, n):
    # the parity-sector sweep against the whole 2^n eigenbasis: X_j(t) by
    # dense phases, the norm from eigvalsh of the dense Hermitian i[X_j(t), X_k]
    ch = random_chain(rng, n)
    if n == 6:
        ch = make_chain(ch.mu[:2] + (0.0,) + ch.mu[3:], ch.gamma, ch.nu)  # a zero bond
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    times = np.linspace(0.0, 4.0, 9)
    evals, evecs = np.linalg.eigh(dense_H(ch))
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
