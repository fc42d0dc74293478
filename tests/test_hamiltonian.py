import dataclasses

import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import entanglement as ent
from xylab import fock
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab.disorder import make_chain
from xylab.eigencorrelator import eigencorrelator_table

from conftest import random_chain, region_number_op


def test_build_A_explicit():
    ch = make_chain([], [], [0.5])
    assert np.array_equal(ham.build_A(ch), [[-0.5]])
    ch2 = make_chain([1.0], [0.0], [0.5, -0.3])
    assert np.allclose(ham.build_A(ch2), [[-0.5, 1.0], [1.0, 0.3]])


def test_build_B_explicit():
    ch = make_chain([1.0, 0.7], [0.0, 0.0], [0.1, 0.2, 0.3])
    assert np.array_equal(ham.build_B(ch), np.zeros((3, 3)))
    ch2 = make_chain([2.0], [0.3], [0.0, 0.0])
    assert np.allclose(ham.build_B(ch2), [[0.0, 0.6], [-0.6, 0.0]])


def test_build_M_single_site():
    ch = make_chain([], [], [2.0])
    assert np.allclose(ham.build_M(ch), [[-2.0, 0.0], [0.0, 2.0]])


def test_build_M_isotropic_spectrum_symmetry(rng):
    ch = random_chain(rng, 5, anisotropic=False)
    A = ham.build_A(ch)
    M = ham.build_M(ch)
    specA = np.sort(np.linalg.eigvalsh(A))
    specM = np.sort(np.linalg.eigvalsh(M))
    expected = np.sort(np.concatenate([specA, -specA]))
    assert np.max(np.abs(specM - expected)) < 1e-10


def test_spectrum_of_M_symmetric_about_zero(rng):
    for _ in range(5):
        ch = random_chain(rng, 6)
        spec = np.sort(np.linalg.eigvalsh(ham.build_M(ch)))
        assert np.max(np.abs(spec + spec[::-1])) < 1e-9


def test_diagonalize_diagonal_matrix():
    sd = ham.diagonalize(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(sd.eigenvalues, [-1.0, 2.0, 3.0])
    # a permutation matrix up to column signs
    assert np.allclose(np.abs(sd.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_diagonalize_residuals_random(rng):
    ch = random_chain(rng, 50, anisotropic=False, nu_scale=5.0)
    A = ham.build_A(ch)
    sd = ham.diagonalize(A)
    assert np.max(np.abs(A @ sd.eigenvectors - sd.eigenvectors * sd.eigenvalues)) < 1e-10 * np.linalg.norm(A)
    sd2 = ham.diagonalize_A(ch)
    assert np.allclose(sd.eigenvalues, sd2.eigenvalues, atol=1e-10)
    assert np.max(np.abs(sd.eigenvectors - sd2.eigenvectors)) < 1e-8


def test_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        ham.diagonalize(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_bogoliubov_decoupled_lambda_sorted_abs_nu():
    ch = make_chain([0.0], [0.0], [3.0, -1.0])
    bog = ham.bogoliubov(ch)
    assert np.allclose(bog.lam, [1.0, 3.0])
    assert bog.E0 == pytest.approx(4.0)


def test_bogoliubov_isotropic_reduction(rng):
    ch = random_chain(rng, 7, anisotropic=False)
    bog = ham.bogoliubov(ch)
    specA = np.linalg.eigvalsh(ham.build_A(ch))
    assert np.max(np.abs(bog.lam - np.sort(np.abs(specA)))) < 1e-10


def test_bogoliubov_invariants(rng):
    for n in (2, 4, 6):
        ch = random_chain(rng, n)
        bog = ham.bogoliubov(ch)
        n2 = 2 * n
        J = np.kron(np.eye(n), [[0, 1], [1, 0]])
        M = ham.build_M(ch)
        assert np.max(np.abs(bog.W @ bog.W.T - np.eye(n2))) < 1e-10
        assert np.max(np.abs(bog.W @ J @ bog.W.T - J)) < 1e-10
        D = bog.W @ M @ bog.W.T
        target = np.zeros((n2, n2))
        target[0::2, 0::2] = np.diag(bog.lam)
        target[1::2, 1::2] = np.diag(-bog.lam)
        assert np.max(np.abs(D - target)) < 1e-9
        assert np.all(np.diff(bog.lam) >= -1e-12)
        # lambda are the singular values of A + B
        sv = np.sort(np.linalg.svd(ham.build_A(ch) + ham.build_B(ch), compute_uv=False))
        assert np.max(np.abs(bog.lam - sv)) < 1e-9


def test_bogoliubov_degenerate_flag():
    # two equal |nu| values on a decoupled chain collide
    ch = make_chain([0.0], [0.0], [1.0, -1.0])
    assert ham.bogoliubov(ch).degenerate
    ch2 = make_chain([0.5], [0.0], [1.0, -0.3])
    assert not ham.bogoliubov(ch2).degenerate


def test_many_body_spectrum_matches_oracle(rng):
    # single test certifying the (A, B, M, W, lambda) pipeline end to end
    for n in (2, 3, 4, 6):
        for aniso in (False, True):
            ch = random_chain(rng, n, anisotropic=aniso)
            bog = ham.bogoliubov(ch)
            free = np.sort(ham.all_many_body_energies(bog))
            edvals = np.linalg.eigvalsh(ed.build_H(ch))
            assert np.max(np.abs(free - edvals)) < 1e-8


def test_one_particle_sector_embedding(rng):
    # eigenvalues of 2A shifted by the field sum give the one-particle block
    ch = random_chain(rng, 6, anisotropic=False)
    A = ham.build_A(ch)
    evals, evecs = np.linalg.eigh(ed.build_H(ch))
    n = ch.n
    one_particle = []
    number_total = region_number_op(n, range(1, n + 1))
    for k in range(2**n):
        count = np.real(evecs[:, k].conj() @ (number_total @ evecs[:, k]))
        if abs(count - 1.0) < 1e-9:
            one_particle.append(evals[k])
    expected = np.sort(2.0 * np.linalg.eigvalsh(A) + np.sum(ch.nu))
    assert np.max(np.abs(np.sort(one_particle) - expected)) < 1e-8


def test_outputs_do_not_depend_on_eigenvector_signs(rng):
    # column signs are whatever the solvers return: negating eigenvectors of
    # A and M, or the row pair of a Bogoliubov mode, changes no output
    ch = random_chain(rng, 7)
    n = ch.n

    def signs(count):
        s = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        s[0] = -1.0
        return s

    sd_A = ham.diagonalize_A(ch)
    sd_M = ham.diagonalize(ham.build_M(ch))
    bog = ham.bogoliubov(ch)
    sd_A2 = ham.SpectralDecomposition(sd_A.eigenvalues, sd_A.eigenvectors * signs(n))
    sd_M2 = ham.SpectralDecomposition(sd_M.eigenvalues, sd_M.eigenvectors * signs(2 * n))
    bog2 = dataclasses.replace(bog, W=bog.W * np.repeat(signs(n), 2)[:, None])
    for sd, sd2, block in ((sd_A, sd_A2, False), (sd_M, sd_M2, True)):
        assert np.array_equal(eigencorrelator_table(sd, block=block),
                              eigencorrelator_table(sd2, block=block))
    alpha = rng.integers(0, 2, n)
    assert np.array_equal(qf.eigenstate_gamma(bog, alpha).gamma, qf.eigenstate_gamma(bog2, alpha).gamma)
    args = (ch, ent.Cut(3), np.zeros(3, dtype=int), np.zeros(n - 3, dtype=int), np.linspace(0.0, 4.0, 9))
    assert np.array_equal(ent.quench_entropy(*args, sd_M=sd_M), ent.quench_entropy(*args, sd_M=sd_M2))
    for k, j in (((1,), (4,)), ((2, 5), (1, 3)), ((1, 3, 6), (2, 4, 7))):
        assert abs(fock.slater_overlap(sd_A.eigenvectors, k, j)) == abs(
            fock.slater_overlap(sd_A2.eigenvectors, k, j))


def test_block_norms_match_svd_at_equal_singular_values(rng):
    # near-unitary blocks are where the det-based closed form loses half its digits
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    blocks = np.stack([0.37 * q, 0.37 * q + 1e-9 * rng.normal(size=(2, 2)), rng.normal(size=(2, 2))])
    ref = np.linalg.norm(blocks, 2, axis=(-2, -1))
    assert np.max(np.abs(ham.block_norms(blocks.real, blocks.imag) - ref)) < 1e-15
    real = rng.normal(size=(5, 2, 2))
    assert np.max(np.abs(ham.block_norms(real) - np.linalg.norm(real, 2, axis=(-2, -1)))) < 1e-14


def _spectral_cases(rng):
    """Chains for the W-derived eigensystem of M, with whether the block
    table is basis-independent there.  A +/-lambda collision at lambda = 0
    leaves a two-dimensional eigenspace whose per-site norms depend on the
    basis, so the table differs between solvers; the clean isotropic chain
    at nu = 0 has exact degeneracies whose per-site norms do not."""
    mu, gamma, nu = rng.uniform(-1, 1, 7), rng.uniform(-0.8, 0.8, 7), rng.uniform(-1.5, 1.5, 8)
    zero_bond = mu.copy()
    zero_bond[3] = 0.0
    return {
        "random": (random_chain(rng, 9), True),
        "gamma_pm1": (make_chain(mu, rng.choice([-1.0, 1.0], 7), nu), True),
        "zero_bond": (make_chain(zero_bond, gamma, nu), True),
        "nu_zero": (make_chain(mu, gamma, np.zeros(8)), True),
        "clean_degenerate": (make_chain(np.ones(7), np.zeros(7), np.zeros(8)), True),
        "zero_mode": (make_chain(mu[:6], gamma[:6], np.zeros(7)), False),
        "n1": (make_chain([], [], [0.7]), True),
        "n2": (random_chain(rng, 2), True),
    }


@pytest.mark.parametrize("case", ["random", "gamma_pm1", "zero_bond", "nu_zero",
                                  "clean_degenerate", "zero_mode", "n1", "n2"])
def test_bogoliubov_spectral_matches_dense_eigh(rng, case):
    ch, table_defined = _spectral_cases(rng)[case]
    bog = ham.bogoliubov(ch)
    sd = bog.spectral
    M = ham.build_M(ch)
    ref = ham.diagonalize(M)
    V, lam = sd.eigenvectors, sd.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert np.all(np.diff(lam) >= 0.0)
    assert np.max(np.abs(lam - ref.eigenvalues)) <= 1e-12 * scale
    assert np.max(np.abs(M @ V - V * lam)) <= 1e-10
    assert np.max(np.abs(V.T @ V - np.eye(2 * ch.n))) <= 1e-10
    assert np.max(np.abs(sd.function_of(np.cos) - ref.function_of(np.cos))) <= 1e-10
    if table_defined:
        assert np.max(np.abs(eigencorrelator_table(sd, block=True)
                             - eigencorrelator_table(ref, block=True))) <= 1e-10
    else:
        assert bog.degenerate and bog.lam[0] < 1e-12


@pytest.mark.parametrize("factor", [0, 1, 2])  # Phi, lambda, Psi^t
def test_bogoliubov_rejects_corrupted_svd(rng, monkeypatch, factor):
    svd = np.linalg.svd

    def corrupted(a, *args, **kwargs):
        parts = [np.array(p) for p in svd(a, *args, **kwargs)]
        parts[factor].flat[0] += 1e-6
        return tuple(parts)

    ch = random_chain(rng, 6)
    ham.bogoliubov(ch)
    monkeypatch.setattr(np.linalg, "svd", corrupted)
    with pytest.raises(ham.EigensolverError, match="bogoliubov constraints violated"):
        ham.bogoliubov(ch)
