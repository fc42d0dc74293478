import tracemalloc
import warnings

import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import eigencorrelator as ec
from xylab import entanglement as ent
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab.disorder import make_chain
from xylab.hamiltonian import alpha_from_index

from conftest import (CORNERS, bogoliubov_W, corner_chain, dense_cs, dense_H, diagonalize, dynamic_kernel,
                      eigenstate_gamma_2n, evolve_gamma_2n, function_of, heisenberg_evolve,
                      multipoint_correlation, occupations, one_particle_density, purity_defect,
                      quench_initial_gamma, random_chain, spectral_M, spin_basis_vector,
                      thermal_gamma_2n, validate)


def test_vacuum_gamma_is_projector(rng):
    ch = make_chain([0.0, 0.0], [0.0, 0.0], [1.0, -2.0, 3.0])
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [0, 0, 0])
    W = bogoliubov_W(bog)
    expected = W.T @ np.diag([1.0, 0.0] * 3) @ W
    assert np.max(np.abs(cm - expected)) < 1e-12
    assert purity_defect(cm) < 1e-12


def test_eigenstate_gamma_rejects_a_label_that_is_not_one_flat_vector(rng):
    bog = ham.bogoliubov(random_chain(rng, 4))
    # a column (n, 1) has length n but would broadcast over the modes
    for bad in (np.zeros((4, 1), dtype=int), [1], np.zeros(5, dtype=int), np.full(4, 2)):
        with pytest.raises(ValueError, match="^alpha must be a 0/1 vector of length 4$"):
            qf.eigenstate_gamma(bog, bad)


def test_eigenstate_gamma_trace_is_n(rng):
    ch = random_chain(rng, 5)
    bog = ham.bogoliubov(ch)
    for a in (0, 7, 31):
        cm = qf.eigenstate_gamma(bog, alpha_from_index(a, 5))
        assert np.trace(cm) == pytest.approx(5.0, abs=1e-10)
        validate(cm)


def test_eigenstate_gamma_matches_oracle(rng):
    n = 4
    ch = random_chain(rng, n)
    bog = ham.bogoliubov(ch)
    evals, evecs = np.linalg.eigh(dense_H(ch))
    jw = ed.all_c(n)
    energies = ham.all_many_body_energies(bog)
    idxs, flags = ed.match_eigenstates(energies, evals)
    for a in range(2**n):
        if flags[a]:
            continue
        cm = qf.eigenstate_gamma(bog, alpha_from_index(a, n))
        G_ed = ed.correlation_blocks(evecs[:, idxs[a]], jw)
        assert np.max(np.abs(cm - G_ed)) < 1e-8


def test_thermal_gamma_limits(rng):
    ch = random_chain(rng, 4)
    bog = ham.bogoliubov(ch)
    cm0 = qf.thermal_gamma(bog, 0.0)
    assert np.max(np.abs(cm0 - np.eye(8) / 2)) < 1e-12
    beta = 1e3 / bog.lam[0]
    cm_inf = qf.thermal_gamma(bog, beta)
    vac = qf.eigenstate_gamma(bog, np.zeros(4, dtype=int))
    assert np.max(np.abs(cm_inf - vac)) < 1e-6


def test_thermal_gamma_is_the_logistic_function_without_overflow():
    # (1 + tanh(beta lam)) / 2 against expit(2 beta lam) out to |beta lam| = 1e3,
    # where exp(2 beta lam) overflows; identity factors Psi = Phi = I put the
    # Fermi function of +lam and of -lam on the diagonal of each site
    from scipy.special import expit

    lam = np.concatenate([[0.0, 0.0], np.logspace(-3, 3, 40)])
    eye = np.eye(len(lam))
    bog = ham.BogoliubovDecomposition(eye, eye, lam, float(np.sum(lam)), True)
    for beta in (0.0, 0.37, 1.0):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            gamma = qf.thermal_gamma(bog, beta)
        assert np.max(np.abs(np.diag(gamma)[0::2] - expit(2.0 * beta * lam))) <= 1e-15
        assert np.max(np.abs(np.diag(gamma)[1::2] - expit(-2.0 * beta * lam))) <= 1e-15
        assert np.count_nonzero(gamma - np.diag(np.diag(gamma))) == 0


def test_thermal_gamma_matches_oracle(rng):
    n = 4
    ch = random_chain(rng, n)
    cm = qf.thermal_gamma(ham.bogoliubov(ch), 1.0)
    eig = ed.spectral(ed.build_H(ch), ed.parity_sectors(n))
    G_ed = ed.correlation_blocks(ed.thermal_state(eig, 1.0), ed.all_c(n), eig.sectors)
    assert np.max(np.abs(cm - G_ed)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 7, 60])
@pytest.mark.parametrize("corner", CORNERS)
def test_states_and_propagator_match_the_2n_forms(rng, n, corner):
    # the n x n product Y = Psi diag(s) Phi^t and the mode-pair propagator
    # against the 2n x 2n references on W and M's eigensystem
    bog = ham.bogoliubov(corner_chain(rng, n, corner))
    sd = spectral_M(bog)
    for alpha in (np.zeros(n, dtype=int), np.ones(n, dtype=int), rng.integers(0, 2, n)):
        assert np.max(np.abs(qf.eigenstate_gamma(bog, alpha) - eigenstate_gamma_2n(bog, alpha))) <= 1e-13
    for beta in (0.0, 0.7, 40.0):
        assert np.max(np.abs(qf.thermal_gamma(bog, beta) - thermal_gamma_2n(sd, beta))) <= 1e-13
    mixed = rng.normal(size=(2 * n, 2 * n))
    states = (qf.profile_gamma(rng.uniform(0, 1, n)), qf.eigenstate_gamma(bog, rng.integers(0, 2, n)),
              0.05 * (mixed + mixed.T))
    for gamma in states:
        for t in (0.0, 0.7, 3.3):
            assert np.max(np.abs(qf.evolve_gamma(gamma, bog, t) - evolve_gamma_2n(gamma, sd, t))) <= 1e-12


def test_profile_gamma_basics():
    cm = qf.profile_gamma([0.0, 0.0])
    assert purity_defect(cm) < 1e-15
    assert np.allclose(occupations(cm), [0.0, 0.0])
    half = qf.profile_gamma([0.5, 0.5, 0.5])
    assert np.allclose(half, np.eye(6) / 2)
    with pytest.raises(ValueError):
        qf.profile_gamma([1.2, 0.0])


def test_profile_gamma_occupation_convention_vs_oracle():
    # eta = (1, 0): one particle on site 1, none on site 2
    n = 2
    cm = qf.profile_gamma([1.0, 0.0])
    psi = spin_basis_vector(n, [1])
    G_ed = ed.correlation_blocks(psi, ed.all_c(n))
    assert np.max(np.abs(cm - G_ed)) < 1e-12
    assert occupations(cm)[0] == pytest.approx(1.0)
    assert occupations(cm)[1] == pytest.approx(0.0)


def test_evolve_gamma_identity_and_isospectrality(rng):
    bog = ham.bogoliubov(random_chain(rng, 4))
    cm = qf.profile_gamma([1.0, 0.0, 1.0, 0.0])
    cm0 = qf.evolve_gamma(cm, bog, 0.0)
    assert np.max(np.abs(cm0 - cm)) < 1e-12
    cmt = qf.evolve_gamma(cm, bog, 2.7)
    s0 = np.sort(np.linalg.eigvalsh(cm))
    st = np.sort(np.linalg.eigvalsh(cmt))
    assert np.max(np.abs(s0 - st)) < 1e-10
    assert purity_defect(cmt) < 1e-8


def test_evolve_gamma_matches_oracle_quench(rng):
    n = 4
    ch = random_chain(rng, n)
    ell = 2
    gamma0 = quench_initial_gamma(ch, ell, [0, 1], [0, 0])
    bog = ham.bogoliubov(ch)
    # oracle initial state: product of the matched half-chain eigenstates
    left = make_chain(ch.mu[: ell - 1], ch.gamma[: ell - 1], ch.nu[:ell])
    right = make_chain(ch.mu[ell:], ch.gamma[ell:], ch.nu[ell:])
    bog_l, bog_r = ham.bogoliubov(left), ham.bogoliubov(right)
    hl, hr = dense_H(left), dense_H(right)
    el, vl = np.linalg.eigh(hl)
    er, vr = np.linalg.eigh(hr)
    il, fl = ed.match_eigenstates([ham.all_many_body_energies(bog_l)[2]], el)  # alpha (0, 1)
    ir, fr = ed.match_eigenstates([ham.all_many_body_energies(bog_r)[0]], er)  # alpha (0, 0)
    assert not fl[0] and not fr[0]
    psi0 = np.kron(vl[:, il[0]], vr[:, ir[0]])
    hd = ed.spectral(ed.build_H(ch), ed.parity_sectors(n))
    jw = ed.all_c(n)
    G0_ed = ed.correlation_blocks(psi0, jw)
    assert np.max(np.abs(gamma0 - G0_ed)) < 1e-8
    for t in (0.3, 1.7):
        cmt = qf.evolve_gamma(gamma0, bog, t)
        psit = ed.schroedinger_evolve_state(psi0, hd, t)
        Gt_ed = ed.correlation_blocks(psit, jw)
        assert np.max(np.abs(cmt - Gt_ed)) < 1e-8


def test_multipoint_vacuum_single_point():
    vac = qf.profile_gamma([0.0, 0.0, 0.0])
    rho = one_particle_density(vac)
    val = multipoint_correlation(rho, [2], [2])
    assert val == pytest.approx(0.0, abs=1e-14)


def test_multipoint_full_sector_gram_bound(rng):
    ch = random_chain(rng, 5, anisotropic=False)
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [1, 0, 1, 0, 0])
    rho = one_particle_density(cm)
    val = multipoint_correlation(rho, range(1, 6), range(1, 6))
    assert -1e-12 <= np.real(val) <= 1 + 1e-12
    assert abs(np.imag(val)) < 1e-12


def test_multipoint_matches_oracle_dynamic(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=False)
    sdA = ham.diagonalize_A(ch)
    eta = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    rho_1p = one_particle_density(qf.profile_gamma(eta))
    # oracle
    rho_full = np.eye(1, dtype=complex)
    for j in range(n):
        rho_full = np.kron(rho_full, np.diag([eta[j], 1 - eta[j]]).astype(complex))
    hd = np.linalg.eigh(dense_H(ch))
    cs = dense_cs(n)
    x, y = (1, 4), (2, 5)
    for t in (0.0, 0.63):
        kernel = dynamic_kernel(rho_1p, sdA, t)
        free_val = multipoint_correlation(kernel, x, y)
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
        multipoint_correlation(rho, [1, 2], [1])
    with pytest.raises(ValueError):
        multipoint_correlation(rho, [2, 1], [1, 2])
    with pytest.raises(ValueError):
        multipoint_correlation(rho, [], [])


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
        det = multipoint_correlation(raw, x, y)
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
    bog = ham.bogoliubov(random_chain(rng, 5))
    cm = qf.eigenstate_gamma(bog, [1, 0, 0, 1, 0])
    evolved = qf.evolve_gamma(cm, bog, 3.3)
    assert purity_defect(evolved) < 1e-8


def test_trace_series_matches_per_step_propagator(rng):
    n = 7
    ch = random_chain(rng, n)
    sd = diagonalize(ham.build_M(ch))
    V, lam = sd.eigenvectors, sd.eigenvalues
    O = rng.normal(size=(2 * n, 2 * n))
    O = O + O.T
    G = qf.profile_gamma(rng.uniform(0, 1, n))
    K = (V.T @ O @ V) * (V.T @ G @ V).T
    times = np.array([0.0, 0.35, 1.2, 4.0])
    series = qf.trace_series(lam, K, K, times)
    for t, value in zip(times, series):
        U = function_of(sd, lambda x: np.exp(2j * t * x))
        assert abs(value - np.trace(U @ O @ U.conj().T @ G)) < 1e-12
    # Kc != Ks: the cos and the sin quadratic forms of each time, entry by entry
    Kc, Ks = rng.normal(size=(2, 2 * n, 2 * n))
    series = qf.trace_series(lam, Kc, Ks, times)
    for t, value in zip(times, series):
        c, s = np.cos(2 * t * lam), np.sin(2 * t * lam)
        assert abs(value - sum(c[a] * Kc[a, b] * c[b] + s[a] * Ks[a, b] * s[b]
                               for a in range(2 * n) for b in range(2 * n))) < 1e-12


def test_trace_series_chunks_do_not_move_the_series(rng, monkeypatch):
    n = 5
    lam = rng.normal(size=2 * n)
    K = rng.normal(size=(2 * n, 2 * n))
    K = K + K.T  # real symmetric, as every profile trace's K
    times = np.linspace(0.0, 3.0, 7)
    whole = qf.trace_series(lam, K, K, times)
    # a grid within one chunk is one whole-grid product per kernel, bit for bit
    phase = 2.0 * np.outer(times, lam)
    c, s = np.cos(phase), np.sin(phase)
    assert np.array_equal(whole, np.einsum("ra,ra->r", c @ K, c) + np.einsum("ra,ra->r", s @ K, s))
    per_time = 2 * (2 * n)  # float64 entries of one time's cos and sin rows
    for budget in (1, 3 * per_time):  # one time per chunk; chunks of 3, 3 and 1
        monkeypatch.setattr(qf, "_GRID_CHUNK_ENTRIES", budget)
        # BLAS rounds a product's rows differently for different row counts
        assert np.max(np.abs(qf.trace_series(lam, K, K, times) - whole)) < 1e-13


def _phase_rows(lam, times, per_time=1, weights=(1.0,)):
    """phase_rows' chunks joined: (2 per weight, times, modes)."""
    return np.concatenate([R.reshape(2 * len(weights), m, -1)
                           for m, R in qf.phase_rows(lam, times, 2.0, per_time, weights)], axis=1)


def _direct_rows(lam, times, weights=(1.0,)):
    phase = 2.0 * np.outer(times, lam)
    return np.stack([part for w in weights for part in (w * np.cos(phase), w * np.sin(phase))])


def test_phase_rows_stay_within_round_off_on_a_long_lattice(rng):
    # angle addition from exact rows, no power recurrence: the error does not
    # grow with k, even 10^4 steps out.  The slow modes keep the bound near
    # 8 eps, where a recurrence's drift of about k eps would show.
    lam = np.concatenate([rng.uniform(-5.0, 5.0, 10), [1e-3, -3e-4]])
    times = np.arange(10**4 + 1) * 0.1
    phase = 2.0 * np.outer(times, lam)
    tol = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(phase))
    assert np.all(np.abs(_phase_rows(lam, times) - _direct_rows(lam, times)) <= tol)


def test_phase_rows_do_not_depend_on_the_chunk_budget(rng, monkeypatch):
    lam = rng.uniform(-5.0, 5.0, 9)
    weights = (rng.uniform(0.0, 1.0, 9), 1.0)
    times = np.arange(53) * 0.3  # a lattice over three whole tables and a part
    whole = _phase_rows(lam, times, weights=weights)
    for budget in (1, 3):  # one time per chunk; chunks of 3
        monkeypatch.setattr(qf, "_GRID_CHUNK_ENTRIES", budget)
        assert np.array_equal(_phase_rows(lam, times, weights=weights), whole)


@pytest.mark.parametrize("times", [[0.0, 0.35, 1.2, 4.0], [1.3]])
def test_phase_rows_off_a_lattice_are_the_direct_rows(rng, times):
    lam = rng.uniform(-5.0, 5.0, 7)
    weights = (rng.uniform(0.0, 1.0, 7), 1.0)
    assert np.array_equal(_phase_rows(lam, times, weights=weights), _direct_rows(lam, times, weights))


def test_phase_rows_open_a_lattice_with_the_direct_rows(rng):
    lam = rng.uniform(-5.0, 5.0, 7)
    times = np.arange(40) * 0.25
    B = qf._PHASE_TABLE_ROWS
    assert np.array_equal(_phase_rows(lam, times)[:, :B], _direct_rows(lam, times[:B]))


@pytest.mark.parametrize("kernel", ["amplitude_block", "clustering", "trace", "quench"])
def test_grid_kernels_reject_an_empty_grid(rng, kernel):
    # a sup over no times would pass any bound
    ch = random_chain(rng, 4)
    sdA = ham.diagonalize_A(ch)
    run = {"amplitude_block": lambda: ec.dynamic_amplitude_sup(ham.bogoliubov(ch), []),
           "clustering": lambda: ec.clustering_sup(sdA, [1, 0, 1, 0], []),
           "trace": lambda: qf.trace_series(sdA.eigenvalues, np.eye(4), np.eye(4), []),
           "quench": lambda: ent.quench_entropy(ch, 2, [1, 0], [0, 1], [], ham.bogoliubov(ch))}[kernel]
    with pytest.raises(ValueError, match="^time grid must be nonempty$"):
        run()


def test_series_reject_complex_input(rng):
    bog = ham.bogoliubov(random_chain(rng, 3))
    real, cplx = np.eye(3), np.eye(3) + 1j * np.eye(3)
    for Kc, Ks in ((cplx, real), (real, cplx)):
        with pytest.raises(ValueError, match="^trace_series takes real Kc and Ks$"):
            qf.trace_series(bog.lam, Kc, Ks, [0.0, 1.0])
    with pytest.raises(ValueError, match="real gamma"):
        qf.evolve_gamma(np.eye(6) + 0j, bog, 1.0)


@pytest.mark.parametrize("bond", [1.0, -1.0])
def test_evolution_matches_dense_propagator(rng, bond):
    # evolve_gamma and the Majorana-form quench against U gamma U^* with the
    # dense propagator U = exp(-2itM), across an Ising bond in the left half
    n = 6
    gamma = rng.uniform(-0.5, 0.5, n - 1)
    gamma[2] = bond
    ch = make_chain(rng.uniform(0.2, 1.0, n - 1), gamma, rng.uniform(-1.0, 1.0, n))
    sd = diagonalize(ham.build_M(ch))
    bog = ham.bogoliubov(ch)
    gamma0 = quench_initial_gamma(ch, 4, [1, 0, 1, 1], [0, 1])
    times = np.array([0.0, 0.45, 1.7, 6.3])
    series = ent.quench_entropy(ch, 4, [1, 0, 1, 1], [0, 1], times, bog)
    for t, s in zip(times, series):
        U = function_of(sd, lambda x: np.exp(-2j * t * x))
        dense = U @ gamma0 @ U.conj().T
        assert np.max(np.abs(qf.evolve_gamma(gamma0, bog, t) - dense)) < 1e-12
        assert abs(s - ent._spectrum_entropy(np.linalg.eigvalsh(dense[:8, :8]))) < 1e-12


@pytest.mark.parametrize("kernel", ["amplitude", "amplitude_block", "clustering", "trace",
                                    "restricted"])
def test_grid_kernels_hold_memory_to_a_chunk(rng, monkeypatch, kernel):
    # a 16 KiB budget, so that a 50-step grid already spans several whole chunks
    monkeypatch.setattr(qf, "_GRID_CHUNK_ENTRIES", 1 << 11)
    sdA = ham.diagonalize_A(random_chain(rng, 12, anisotropic=False))
    ch = random_chain(rng, 6)
    bog = ham.bogoliubov(ch)
    lam = rng.normal(size=48)
    K = rng.normal(size=(48, 48))
    run = {"amplitude": lambda ts: ec.dynamic_amplitude_sup(sdA, ts),
           "amplitude_block": lambda ts: ec.dynamic_amplitude_sup(bog, ts),
           "clustering": lambda ts: ec.clustering_sup(sdA, rng.integers(0, 2, 12), ts),
           "trace": lambda ts: qf.trace_series(lam, K + K.T, K - K.T, ts),
           # the quench's evolved restricted block
           "restricted": lambda ts: ent.quench_entropy(ch, 2, [1, 0], [1, 1, 0, 0], ts, bog)}[kernel]

    def net_peak(steps):
        """Traced peak of one call less the bytes of its output."""
        times = np.linspace(0.0, 10.0, steps)
        tracemalloc.start()
        try:
            out = run(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    net_peak(500)  # warm-up: first calls fill numpy's and the interpreter's caches
    # a grid held whole would add 500 x per_time x 8 bytes, over 300 KiB for
    # each kernel here; 4 KiB covers the allocator's noise
    assert net_peak(500) <= net_peak(50) + 4096


def test_evolve_gamma_rejects_non_hermitian_state(rng):
    n = 4
    bog = ham.bogoliubov(random_chain(rng, n))
    gamma = np.eye(2 * n)
    gamma[0, 3] = 1e-6  # anti-Hermitian part 1e-6, far above the 1e-9 tolerance
    with pytest.raises(ValueError, match="lost Hermiticity"):
        qf.evolve_gamma(gamma, bog, 1.0)
