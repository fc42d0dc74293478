import numpy as np
import pytest

from xylab import eigencorrelator as ec
from xylab import experiments as xp
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab.disorder import (
    EnsembleSpec,
    constant,
    make_chain,
    sample_chain,
    uniform,
)

from conftest import (CORNERS, block_amplitude_sup_2n, block_table_2n, corner_chain, dense_cs, dense_H,
                      diagonalize, ed_commutator_sups, ensemble_mean, function_of,
                      heisenberg_evolve, high_disorder_chain, high_disorder_ensemble, random_chain,
                      spectral_M)


def test_decoupled_chain_identity_table():
    ch = make_chain([0.0] * 3, [0.0] * 3, [1.0, -0.5, 2.0, 0.3])
    sd = ham.diagonalize_A(ch)
    Q = ec.eigencorrelator_table(sd)
    assert np.max(np.abs(Q - np.eye(4))) < 1e-12


def test_two_site_closed_form():
    sd = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    Q = ec.eigencorrelator_table(sd)
    assert Q[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert Q[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_scalar_diagonal_is_one(rng):
    ch = random_chain(rng, 12, anisotropic=False)
    Q = ec.eigencorrelator_table(ham.diagonalize_A(ch))
    assert np.max(np.abs(np.diag(Q) - 1.0)) < 1e-10
    assert np.max(np.abs(Q - Q.T)) == 0.0


def test_block_table_symmetry_and_dominance(rng):
    ch = random_chain(rng, 6)
    sd = diagonalize(ham.build_M(ch))
    for Q in (ec.eigencorrelator_table(ham.bogoliubov(ch)), block_table_2n(sd)):
        assert Q.shape == (6, 6)
        assert np.max(np.abs(Q - Q.T)) < 1e-12
        # dominates |g(M)| blocks for a sample of bounded spectral functions
        for g in (lambda x: np.sign(x), lambda x: np.cos(3.0 * x), lambda x: np.clip(x, -1, 1)):
            gm = function_of(sd, g)
            blocks = gm.reshape(6, 2, 6, 2).transpose(0, 2, 1, 3)
            norms = np.array([[np.linalg.norm(blocks[j, k], 2) for k in range(6)] for j in range(6)])
            assert np.max(norms - Q) < 1e-9


@pytest.mark.parametrize("corner", ["gamma_pm1", "zero_bond", "nu_zero", "clean"])
@pytest.mark.parametrize("n", [1, 2, 7, 60, 200])
def test_n_mode_block_kernels_match_the_2n_references(rng, n, corner):
    # the n-mode forms read Psi and Phi; the references run on the 2n
    # eigensystem of M that W gives, the same eigenbasis
    bog = ham.bogoliubov(corner_chain(rng, n, corner))
    times = np.linspace(0.0, 8.0, 33 if n < 200 else 6)
    sd = spectral_M(bog)
    assert np.max(np.abs(ec.eigencorrelator_table(bog) - block_table_2n(sd))) <= 1e-13
    got = ec.dynamic_amplitude_sup(bog, times)
    assert np.max(np.abs(got - block_amplitude_sup_2n(sd, times))) <= 1e-13
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("corner", ["nu_zero_odd_n", "clean_ising", "clean_xx"])
def test_block_table_bounds_amplitudes_in_either_eigenbasis(rng, corner):
    # at a repeated eigenvalue of M the block table depends on the basis the
    # solver picks inside the eigenspace (on these chains the Bogoliubov and
    # the dense tables differ by up to 1.0); every choice must still bound the
    # amplitudes, which depend on the propagator alone
    if corner == "nu_zero_odd_n":  # a lambda = 0 mode
        ch = make_chain(rng.uniform(-1, 1, 6), rng.uniform(-0.8, 0.8, 6), np.zeros(7))
    else:
        ch = make_chain(np.ones(7), np.full(7, 1.0 if corner == "clean_ising" else 0.0), np.zeros(8))
    times = np.linspace(0.0, 6.0, 25)
    bog, sd = ham.bogoliubov(ch), diagonalize(ham.build_M(ch))
    amps = [ec.dynamic_amplitude_sup(bog, times), block_amplitude_sup_2n(sd, times)]
    assert np.all(amps[0] <= ec.eigencorrelator_table(bog) + 1e-12)
    assert np.all(amps[1] <= block_table_2n(sd) + 1e-12)
    assert np.max(np.abs(amps[0] - amps[1])) <= 1e-12


def test_amplitude_identity_at_time_zero(rng):
    ch = random_chain(rng, 5, anisotropic=False)
    sd = ham.diagonalize_A(ch)
    amp = ec.dynamic_amplitude_sup(sd, [0.0])
    assert np.max(np.abs(amp - np.eye(5))) < 1e-12
    with pytest.raises(ValueError):
        ec.dynamic_amplitude_sup(sd, [])


def test_amplitude_dominated_by_eigencorrelator(rng):
    ch = random_chain(rng, 8)
    sdA = ham.diagonalize_A(make_chain(ch.mu, (0.0,) * 7, ch.nu))
    times = np.linspace(0.0, 10.0, 101)
    assert np.max(ec.dynamic_amplitude_sup(sdA, times) - ec.eigencorrelator_table(sdA)) < 1e-9
    bog = ham.bogoliubov(ch)
    assert np.max(ec.dynamic_amplitude_sup(bog, times) - ec.eigencorrelator_table(bog)) < 1e-9


def test_block_amplitude_matches_oracle_commutator_scale(rng):
    # |exp(-2itM)| blocks are the one-particle amplitudes of the mode dynamics
    n = 4
    ch = random_chain(rng, n)
    sdM = diagonalize(ham.build_M(ch))
    t = 0.9
    U = function_of(sdM, lambda lam: np.exp(-2j * t * lam))
    # oracle: tau_t(c_j) expanded in the operator basis (c_k, c_k^*)
    hd = np.linalg.eigh(dense_H(ch))
    cs = dense_cs(n)
    ops = []
    for c in cs:
        ops.append(c)
        ops.append(c.conj().T)
    dim = 2**n
    for p in (0, 1, 3):
        evolved = heisenberg_evolve(ops[p], hd, t)
        for q in range(2 * n):
            # expansion coefficient via the trace; tr(c c^†) = 2^n / 2
            coeff = 2.0 * np.trace(ops[q].conj().T @ evolved) / dim
            assert abs(coeff - U[p, q]) < 1e-8


def test_fit_decay_exact_exponential():
    d = np.arange(0, 30)
    fit = ec.fit_decay(2.0 * np.exp(-0.5 * d), min_distance=3)
    assert fit.C == pytest.approx(2.0, rel=1e-10)
    assert fit.eta == pytest.approx(0.5, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.min_distance == 3


def test_fit_decay_constant_degenerate():
    fit = ec.fit_decay(np.full(10, 0.7), min_distance=1)
    assert fit.eta == 0.0
    assert fit.r_squared == 0.0


def test_fit_decay_errors():
    with pytest.raises(ValueError):
        ec.fit_decay(np.array([1.0, 0.5, 0.0, 0.1]), min_distance=1)
    with pytest.raises(ValueError):
        ec.fit_decay(np.array([1.0, 0.5, 0.2]), min_distance=1)
    # v[-1] would wrap to the last entry and fit it at distance -1
    with pytest.raises(ValueError, match=r"^min_distance must be >= 0, got -1$"):
        ec.fit_decay(0.5 ** np.arange(12), min_distance=-1)


def test_lr_bound_arithmetic():
    fit = ec.DecayFit(C=1.0, eta=np.log(2.0), r_squared=1.0, min_distance=1)
    # 96 C / (1 - 1/2)^2 = 384 at distance 0
    assert ec.lr_commutator_bound(fit, 3, 3) == pytest.approx(384.0)
    # large eta limit: bound -> 96 C e^{-eta d}
    fit2 = ec.DecayFit(C=1.0, eta=50.0, r_squared=1.0, min_distance=1)
    d = 2
    assert ec.lr_commutator_bound(fit2, 1, 3) == pytest.approx(96.0 * np.exp(-50.0 * d), rel=1e-10)
    # fermion-level variant: 4C/(1 - e^-eta)
    assert ec.lr_commutator_bound(fit, 1, 1, kind="fermion") == pytest.approx(8.0)
    with pytest.raises(ValueError):
        ec.lr_commutator_bound(ec.DecayFit(C=1.0, eta=0.0, r_squared=0.0, min_distance=1), 1, 2)


def test_distance_profile():
    table = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
    prof = ec.distance_profile(table)
    assert np.allclose(prof, [1.0, 0.45, 0.2])


@pytest.mark.parametrize("n", [1, 2, 7, 60, 200])
def test_distance_profile_is_bitwise_the_mean_of_each_diagonal(rng, n):
    # the reference is np.mean over np.diagonal, on C-ordered, Fortran-ordered
    # and strided tables
    table = rng.random((n, 2 * n)) * np.exp(-30.0 * rng.random((n, 2 * n)))
    for t in (table[:, :n].copy(), np.asfortranarray(table[:, :n]), table[:, ::2]):
        for max_distance in (None, 0, 12, 30, 500):
            dmax = n - 1 if max_distance is None else min(max_distance, n - 1)
            expected = [np.mean(np.diagonal(t, offset=d)) for d in range(dmax + 1)]
            assert ec.distance_profile(t, max_distance).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("corner", CORNERS)
@pytest.mark.parametrize("n", [1, 2, 7, 60, 200])
def test_eigencorrelator_profile_is_the_profile_of_the_table(rng, n, corner):
    # the profile read off the rows of U, without the n x n table, is the
    # table's distance profile up to the reassociation of its sums
    chain = corner_chain(rng, n, corner)
    for dec in (ham.diagonalize_A(chain), ham.bogoliubov(chain)):
        table = ec.eigencorrelator_table(dec)
        for max_distance in (None, 0, 3, n + 5):
            want = ec.distance_profile(table, max_distance)
            got = ec.eigencorrelator_profile(dec, max_distance)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_commutator_bound_holds_against_oracle(rng):
    # averaged sup-t commutator norms below the fitted-constant bound
    n = 7
    ens = EnsembleSpec(n=n, mu_dist=constant(1.0), gamma_dist=constant(0.0),
                       nu_dist=uniform(-5.0, 5.0), base_seed=17, realizations=40)
    prof = ensemble_mean(xp._real_eigencorrelator, ens, {"block": True, "max_distance": None})
    fit = ec.fit_decay(prof, min_distance=1)
    assert fit.eta > 0
    times = np.arange(0.0, 20.0 + 1e-9, 0.5)
    pairs = [(1, 3), (2, 5), (1, 6), (3, 7)]
    sups = {p: [] for p in pairs}
    for i in range(6):
        for pair, sup in ed_commutator_sups(sample_chain(ens, i), pairs, times).items():
            sups[pair].append(sup)
    for (j, k), vals in sups.items():
        assert np.mean(vals) <= 2.0 * ec.lr_commutator_bound(fit, j, k)


def test_fixture_chain_decay_rate_comparison():
    # single fixture realization: stronger coupling decays slower

    fits = {}
    for eps in (0.05, 0.5):
        ch = high_disorder_chain(64, eps, uniform(-1.0, 1.0), seed=7, i=3)
        Q = ec.eigencorrelator_table(ham.diagonalize_A(ch))
        fits[eps] = ec.fit_decay(ec.distance_profile(Q, 20), min_distance=2, max_distance=15)
    assert fits[0.05].eta > fits[0.5].eta


def test_high_disorder_decay_rate_ordering():
    # eta grows as the coupling shrinks, on matched random fields
    profs = {}
    for eps in (0.05, 0.2):
        ens = high_disorder_ensemble(64, eps, uniform(-1.0, 1.0), seed=7, realizations=60)
        profs[eps] = ensemble_mean(xp._real_eigencorrelator, ens, {"block": False, "max_distance": 25})
    fit_005 = ec.fit_decay(profs[0.05], min_distance=2, max_distance=20)
    fit_02 = ec.fit_decay(profs[0.2], min_distance=2, max_distance=20)
    assert fit_005.eta > fit_02.eta > 0


def test_disordered_amplitudes_below_fitted_envelope():
    # ensemble-averaged sup amplitudes stay under 1.5x their own fitted
    # exponential envelope across the fit window
    ens = EnsembleSpec(n=40, mu_dist=constant(1.0), gamma_dist=constant(0.0),
                       nu_dist=uniform(-5.0, 5.0), base_seed=21, realizations=30)
    times = np.arange(0.0, 20.0 + 1e-9, 0.25)
    prof = ensemble_mean(xp._real_amplitude, ens,
                         {"times": times, "block": False, "max_distance": 25}, part=0)
    fit = ec.fit_decay(prof, min_distance=2, max_distance=20)
    d = np.arange(2, 21)
    envelope = fit.C * np.exp(-fit.eta * d)
    assert np.all(prof[d] <= 1.5 * envelope)


def test_clean_vs_disordered_amplitude_contrast():
    times = np.arange(0.0, 50.0 + 1e-9, 0.25)
    n, d = 50, 20
    clean = make_chain([1.0] * (n - 1), [0.0] * (n - 1), [0.0] * n)
    amp_clean = ec.dynamic_amplitude_sup(ham.diagonalize_A(clean), times)
    clean_vals = np.diagonal(amp_clean, offset=d)
    ens = EnsembleSpec(n=n, mu_dist=constant(1.0), gamma_dist=constant(0.0),
                       nu_dist=uniform(-5.0, 5.0), base_seed=5, realizations=20)
    acc = np.zeros_like(clean_vals)
    for i in range(ens.realizations):
        amp = ec.dynamic_amplitude_sup(ham.diagonalize_A(sample_chain(ens, i)), times)
        acc += np.diagonal(amp, offset=d)
    dis_vals = acc / ens.realizations
    assert np.mean(clean_vals) > 10.0 * np.mean(dis_vals)


def _amplitude_per_step(sd, times, block):
    # the definition: build exp(-itX) (block: exp(-2itM)) at every step
    V, lam = sd.eigenvectors, sd.eigenvalues
    n = sd.dim // 2 if block else sd.dim
    out = np.zeros((n, n))
    for t in times:
        P = (V * np.exp(-(2j if block else 1j) * t * lam)) @ V.T
        if block:
            P = np.linalg.norm(P.reshape(n, 2, n, 2).transpose(0, 2, 1, 3), 2, axis=(-2, -1))
        out = np.maximum(out, np.abs(P))
    return out


@pytest.mark.parametrize("case", ["n1", "n2", "clean", "decoupled_equal", "random"])
@pytest.mark.parametrize("grid", ["single", "long", "tiny_chunks"])
def test_amplitude_sup_matches_per_step_propagator(rng, monkeypatch, case, grid):
    n = {"n1": 1, "n2": 2, "clean": 10, "decoupled_equal": 5, "random": 9}[case]
    if case == "clean":  # spectrum of M doubly degenerate (+-lam of A)
        ch = make_chain([1.0] * (n - 1), [0.0] * (n - 1), [0.0] * n)
    elif case == "decoupled_equal":  # A = -0.7 I, fully degenerate
        ch = make_chain([0.0] * (n - 1), [0.0] * (n - 1), [0.7] * n)
    else:
        ch = random_chain(rng, n)
    times = {"single": [1.3], "long": np.linspace(0.0, 12.0, 301),
             "tiny_chunks": np.linspace(0.0, 3.0, 13)}[grid]
    if grid == "tiny_chunks":  # one time per chunk, and a few per chunk
        monkeypatch.setattr(qf, "_GRID_CHUNK_ENTRIES", 64)
    sdA = ham.diagonalize_A(make_chain(ch.mu, (0.0,) * (n - 1), ch.nu))
    sdM = diagonalize(ham.build_M(ch))
    for dec, sd, block in ((sdA, sdA, False), (ham.bogoliubov(ch), sdM, True)):
        got = ec.dynamic_amplitude_sup(dec, times)
        assert np.max(np.abs(got - _amplitude_per_step(sd, times, block))) <= 1e-13
        assert np.array_equal(got, got.T)


def test_clustering_sup_matches_dense_formula_within_max_distance(rng):
    sd = ham.diagonalize_A(random_chain(rng, 11, anisotropic=False))
    occ = rng.integers(0, 2, size=11)
    times = np.linspace(0.0, 6.0, 25)
    V, lam = sd.eigenvectors, sd.eigenvalues
    dense = np.zeros((11, 11))
    for t in times:
        K1 = (V * (occ * np.exp(2j * t * lam))) @ V.T
        K2 = (V * ((1 - occ) * np.exp(-2j * t * lam))) @ V.T
        dense = np.maximum(dense, np.abs(K1.T * K2))
    j, k = np.indices((11, 11))
    for dmax in (None, 0, 3, 40):
        got = ec.clustering_sup(sd, occ, times, dmax)
        near = (k >= j) & (k - j <= (10 if dmax is None else dmax))
        assert np.max(np.abs(got[near] - dense[near])) < 1e-14
        assert np.all(got[~near] == 0.0)
