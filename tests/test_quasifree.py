import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab.disorder import make_chain
from xylab.hamiltonian import alpha_from_index

from conftest import dense_cs, heisenberg_evolve, random_chain, spin_basis_vector


def test_vacuum_gamma_is_projector(rng):
    ch = make_chain([0.0, 0.0], [0.0, 0.0], [1.0, -2.0, 3.0])
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [0, 0, 0])
    expected = bog.W.T @ np.diag([1.0, 0.0] * 3) @ bog.W
    assert np.max(np.abs(cm.gamma - expected)) < 1e-12
    assert cm.purity_defect() < 1e-12


def test_eigenstate_gamma_trace_is_n(rng):
    ch = random_chain(rng, 5)
    bog = ham.bogoliubov(ch)
    for a in (0, 7, 31):
        cm = qf.eigenstate_gamma(bog, alpha_from_index(a, 5))
        assert np.trace(cm.gamma) == pytest.approx(5.0, abs=1e-10)
        cm.validate()


def test_degenerate_flag_propagates():
    ch = make_chain([0.0], [0.0], [1.0, -1.0])
    bog = ham.bogoliubov(ch)
    assert bog.degenerate
    cm = qf.eigenstate_gamma(bog, [0, 1])
    assert cm.degenerate
    sd = ham.diagonalize(ham.build_M(ch))
    assert qf.evolve_gamma(cm, sd, 0.5).degenerate


def test_eigenstate_gamma_matches_oracle(rng):
    n = 4
    ch = random_chain(rng, n)
    bog = ham.bogoliubov(ch)
    H = ed.build_H(ch)
    evals, evecs = np.linalg.eigh(H)
    jw = ed.all_c(n)
    energies = ham.all_many_body_energies(bog)
    idxs, flags = ed.match_eigenstates(energies, evals)
    for a in range(2**n):
        if flags[a]:
            continue
        cm = qf.eigenstate_gamma(bog, alpha_from_index(a, n))
        G_ed = ed.correlation_blocks(evecs[:, idxs[a]], jw)
        assert np.max(np.abs(cm.gamma - G_ed)) < 1e-8


def test_thermal_gamma_limits(rng):
    ch = random_chain(rng, 4)
    M = ham.build_M(ch)
    sd = ham.diagonalize(M)
    cm0 = qf.thermal_gamma(sd, 0.0)
    assert np.max(np.abs(cm0.gamma - np.eye(8) / 2)) < 1e-12
    bog = ham.bogoliubov(ch)
    beta = 1e3 / bog.lam[0]
    cm_inf = qf.thermal_gamma(sd, beta)
    vac = qf.eigenstate_gamma(bog, np.zeros(4, dtype=int))
    assert np.max(np.abs(cm_inf.gamma - vac.gamma)) < 1e-6


def test_thermal_gamma_matches_oracle(rng):
    n = 4
    ch = random_chain(rng, n)
    sd = ham.diagonalize(ham.build_M(ch))
    cm = qf.thermal_gamma(sd, 1.0)
    rho = ed.thermal_state(ed.build_H(ch), 1.0)
    G_ed = ed.correlation_blocks(rho, ed.all_c(n))
    assert np.max(np.abs(cm.gamma - G_ed)) < 1e-8


def test_profile_gamma_basics():
    cm = qf.profile_gamma([0.0, 0.0])
    assert cm.purity_defect() < 1e-15
    assert np.allclose(cm.occupations(), [0.0, 0.0])
    half = qf.profile_gamma([0.5, 0.5, 0.5])
    assert np.allclose(half.gamma, np.eye(6) / 2)
    with pytest.raises(ValueError):
        qf.profile_gamma([1.2, 0.0])


def test_profile_gamma_occupation_convention_vs_oracle():
    # eta = (1, 0): one particle on site 1, none on site 2
    n = 2
    cm = qf.profile_gamma([1.0, 0.0])
    psi = spin_basis_vector(n, [1])
    G_ed = ed.correlation_blocks(psi, ed.all_c(n))
    assert np.max(np.abs(cm.gamma - G_ed)) < 1e-12
    assert cm.occupations()[0] == pytest.approx(1.0)
    assert cm.occupations()[1] == pytest.approx(0.0)


def test_evolve_gamma_identity_and_isospectrality(rng):
    ch = random_chain(rng, 4)
    sd = ham.diagonalize(ham.build_M(ch))
    cm = qf.profile_gamma([1.0, 0.0, 1.0, 0.0])
    cm0 = qf.evolve_gamma(cm, sd, 0.0)
    assert np.max(np.abs(cm0.gamma - cm.gamma)) < 1e-12
    cmt = qf.evolve_gamma(cm, sd, 2.7)
    s0 = np.sort(np.linalg.eigvalsh(cm.gamma))
    st = np.sort(np.linalg.eigvalsh(cmt.gamma))
    assert np.max(np.abs(s0 - st)) < 1e-10
    assert cmt.purity_defect() < 1e-8


def test_evolve_gamma_matches_oracle_quench(rng):
    n = 4
    ch = random_chain(rng, n)
    ell = 2
    gamma0, bog_l, bog_r = qf.quench_initial_gamma(ch, ell, [0, 1], [0, 0])
    sd = ham.diagonalize(ham.build_M(ch))
    # oracle initial state: product of the matched half-chain eigenstates
    left = make_chain(ch.mu[: ell - 1], ch.gamma[: ell - 1], ch.nu[:ell])
    right = make_chain(ch.mu[ell:], ch.gamma[ell:], ch.nu[ell:])
    hl, hr = ed.build_H(left), ed.build_H(right)
    el, vl = np.linalg.eigh(hl)
    er, vr = np.linalg.eigh(hr)
    il, fl = ed.match_eigenstates([ham.many_body_energy(bog_l, [0, 1])], el)
    ir, fr = ed.match_eigenstates([ham.many_body_energy(bog_r, [0, 0])], er)
    assert not fl[0] and not fr[0]
    psi0 = np.kron(vl[:, il[0]], vr[:, ir[0]])
    hd = ed.spectral(ed.build_H(ch))
    jw = ed.all_c(n)
    G0_ed = ed.correlation_blocks(psi0, jw)
    assert np.max(np.abs(gamma0.gamma - G0_ed)) < 1e-8
    for t in (0.3, 1.7):
        cmt = qf.evolve_gamma(gamma0, sd, t)
        psit = ed.schroedinger_evolve_state(psi0, hd, t)
        Gt_ed = ed.correlation_blocks(psit, jw)
        assert np.max(np.abs(cmt.gamma - Gt_ed)) < 1e-8


def test_multipoint_vacuum_single_point():
    vac = qf.profile_gamma([0.0, 0.0, 0.0])
    rho = vac.one_particle_density()
    val = qf.multipoint_correlation(rho, [2], [2])
    assert val == pytest.approx(0.0, abs=1e-14)


def test_multipoint_full_sector_gram_bound(rng):
    ch = random_chain(rng, 5, anisotropic=False)
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [1, 0, 1, 0, 0])
    rho = cm.one_particle_density()
    val = qf.multipoint_correlation(rho, range(1, 6), range(1, 6))
    assert -1e-12 <= np.real(val) <= 1 + 1e-12
    assert abs(np.imag(val)) < 1e-12


def test_multipoint_matches_oracle_dynamic(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=False)
    sdA = ham.diagonalize_A(ch)
    eta = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    rho_1p = qf.profile_gamma(eta).one_particle_density()
    # oracle
    rho_full = np.eye(1, dtype=complex)
    for j in range(n):
        rho_full = np.kron(rho_full, np.diag([eta[j], 1 - eta[j]]).astype(complex))
    hd = ed.spectral(ed.build_H(ch))
    cs = dense_cs(n)
    x, y = (1, 4), (2, 5)
    for t in (0.0, 0.63):
        kernel = qf.dynamic_kernel(rho_1p, sdA, t)
        free_val = qf.multipoint_correlation(kernel, x, y)
        op = (
            heisenberg_evolve(cs[y[1] - 1].conj().T, hd, t)
            @ heisenberg_evolve(cs[y[0] - 1].conj().T, hd, t)
            @ cs[x[0] - 1]
            @ cs[x[1] - 1]
        )
        ed_val = complex(np.trace(rho_full @ op))
        assert abs(free_val - ed_val) < 1e-8


def test_multipoint_validation():
    rho = np.zeros((4, 4))
    with pytest.raises(ValueError):
        qf.multipoint_correlation(rho, [1, 2], [1])
    with pytest.raises(ValueError):
        qf.multipoint_correlation(rho, [2, 1], [1, 2])
    with pytest.raises(ValueError):
        qf.multipoint_correlation(rho, [], [])


def test_growth_series_linear_closed_form():
    # sum (1+l) e^{-l} = e^2 / (e-1)^2, via brute-force partial sums
    val = qf.growth_series(0.0, 1.0)  # cut 0: K(l) = l
    brute = sum((1 + ell) * np.exp(-float(ell)) for ell in range(200))
    assert val == pytest.approx(brute, rel=1e-12)
    assert val == pytest.approx(np.e**2 / (np.e - 1) ** 2, rel=1e-10)
    assert val == pytest.approx(2.5027, abs=5e-5)


@pytest.mark.parametrize("cut", [0.5, 7.0, 14.1])
@pytest.mark.parametrize("mu0", [0.05, 3.0])
def test_growth_series_thresholded_matches_partial_sums(cut, mu0):
    # plateau head L(L+1)/2 plus the closed-form tail, L = ceil(cut)
    brute = sum((1 + ell) * np.exp(-mu0 * (ell if ell >= cut else 0.0)) for ell in range(3000))
    assert qf.growth_series(cut, mu0) == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ValueError, match="mu0"):
        qf.growth_series(cut, 0.0)


def test_sw_bound_no_decay_at_zero_distance():
    C = 0.8
    I = qf.growth_series(0.0, 1.0)
    cprime = 8 * max(C * I, np.sqrt(C * I))
    assert qf.sw_bound(0.0, 1.0, 2.5, C, 0.0) == pytest.approx(cprime, rel=1e-12)
    with pytest.raises(ValueError):
        qf.sw_bound(0.0, 1.0, 0.5, C, 3.0)


@pytest.mark.parametrize("cut", [0.0, 3.5])
def test_sw_bound_of_an_array_equals_the_scalar_calls(cut):
    D = np.array([0.0, 2.0, 6.0, 7.0, 40.0, 3000.0])
    scalars = [qf.sw_bound(cut, 0.3, 0.8, 1.2, float(d)) for d in D]
    assert qf.sw_bound(cut, 0.3, 0.8, 1.2, D).tolist() == pytest.approx(scalars, rel=1e-15)


def test_sw_bound_dominates_sampled_determinants():
    # random matrix with enforced entry decay; all sampled minors below the bound
    rng = np.random.default_rng(7)
    n = 40
    mu = 0.8
    C = 1.0
    idx = np.arange(n)
    envelope = C * np.exp(-mu * np.abs(np.subtract.outer(idx, idx)))
    raw = rng.uniform(-1, 1, (n, n)) * envelope
    # normalize to ||rho|| <= 1 without breaking the entry bound
    raw /= max(1.0, np.linalg.norm(raw, 2))
    mu0 = 0.3
    for _ in range(200):
        m = int(rng.integers(1, 7))
        x = tuple(sorted(rng.choice(n, m, replace=False) + 1))
        y = tuple(sorted(rng.choice(n, m, replace=False) + 1))
        D = qf.configuration_distance(x, y)
        det = qf.multipoint_correlation(raw, x, y)
        assert abs(det) <= qf.sw_bound(0.0, mu0, mu, C, D) + 1e-12


def test_ordered_configuration_validation():
    with pytest.raises(ValueError):
        qf.ordered_configuration([3, 3], 5)
    with pytest.raises(ValueError):
        qf.ordered_configuration([0, 2], 5)
    with pytest.raises(ValueError):
        qf.ordered_configuration([2, 6], 5)
    assert qf.configuration_distance((1, 5), (2, 9)) == 4
    with pytest.raises(ValueError):
        qf.configuration_distance((1,), (1, 2))


def test_purity_preserved_under_evolution(rng):
    ch = random_chain(rng, 5)
    sd = ham.diagonalize(ham.build_M(ch))
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [1, 0, 0, 1, 0])
    evolved = qf.evolve_gamma(cm, sd, 3.3)
    assert evolved.purity_defect() < 1e-8


def test_trace_series_matches_per_step_propagator(rng):
    n = 7
    ch = random_chain(rng, n)
    sd = ham.diagonalize(ham.build_M(ch))
    V, lam = sd.eigenvectors, sd.eigenvalues
    O = rng.normal(size=(2 * n, 2 * n))
    O = O + O.T
    G = qf.profile_gamma(rng.uniform(0, 1, n)).gamma
    K = (V.T @ O @ V) * (V.T @ G @ V).T
    times = np.array([0.0, 0.35, 1.2, 4.0])
    series = qf.trace_series(lam, K, times, scale=2.0)
    for t, value in zip(times, series):
        U = sd.function_of(lambda x: np.exp(2j * t * x))
        assert abs(value - np.trace(U @ O @ U.conj().T @ G)) < 1e-12


def test_trace_series_chunks_do_not_move_the_series(rng, monkeypatch):
    n = 5
    lam = rng.normal(size=2 * n)
    K = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    times = np.linspace(0.0, 3.0, 7)
    whole = qf.trace_series(lam, K, times, scale=2.0)
    # a grid within one chunk is the single whole-grid product, bit for bit
    P = np.exp(2j * np.outer(times, lam))
    assert np.array_equal(whole, np.einsum("ta,ta->t", P @ K, P.conj()))
    per_time = 2 * (2 * n)  # float64 entries of one complex phase row
    for budget in (1, 3 * per_time):  # one time per chunk; chunks of 3, 3 and 1
        monkeypatch.setattr(qf, "_GRID_CHUNK_ENTRIES", budget)
        # BLAS rounds a product's rows differently for different row counts
        assert np.max(np.abs(qf.trace_series(lam, K, times, scale=2.0) - whole)) < 1e-13


def test_restricted_series_matches_evolve_gamma_blocks(rng):
    n, ell = 6, 2
    ch = random_chain(rng, n)
    sd = ham.diagonalize(ham.build_M(ch))
    gamma0, _, _ = qf.quench_initial_gamma(ch, 3, [0, 1, 0], [1, 0, 0])
    V = sd.eigenvectors
    times = np.array([0.0, 0.4, 2.5])
    blocks = qf.restricted_series(V[: 2 * ell], sd.eigenvalues, V.T @ gamma0.gamma @ V, times)
    assert blocks.shape == (3, 2 * ell, 2 * ell)
    for t, blk in zip(times, blocks):
        full = qf.evolve_gamma(gamma0, sd, t).gamma
        assert np.max(np.abs(blk - full[: 2 * ell, : 2 * ell])) < 1e-12


def test_restricted_series_rejects_non_hermitian_state(rng):
    n = 4
    sd = ham.diagonalize(ham.build_M(random_chain(rng, n)))
    G = np.eye(2 * n)
    G[0, 3] = 1e-6  # anti-Hermitian part 1e-6, far above the 1e-9 tolerance
    with pytest.raises(ValueError, match="lost Hermiticity"):
        qf.restricted_series(sd.eigenvectors[:2], sd.eigenvalues, G, [0.0, 1.0])


def test_restricted_series_chunks_do_not_move_the_blocks(rng, monkeypatch):
    n, ell = 6, 2
    ch = random_chain(rng, n)
    sd = ham.diagonalize(ham.build_M(ch))
    gamma0, _, _ = qf.quench_initial_gamma(ch, 3, [0, 1, 0], [1, 0, 0])
    V = sd.eigenvectors
    args = (V[: 2 * ell], sd.eigenvalues, V.T @ gamma0.gamma @ V, np.linspace(0.0, 3.0, 7))
    whole = qf.restricted_series(*args)
    per_time = 2 * (2 * ell) * (2 * n)  # float64 entries of one complex |A| x 2n phase block
    for budget in (1, 3 * per_time):  # one time per chunk; chunks of 3, 3 and 1
        monkeypatch.setattr(qf, "_GRID_CHUNK_ENTRIES", budget)
        assert np.array_equal(qf.restricted_series(*args), whole)
