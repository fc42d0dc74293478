from dataclasses import replace

import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import entanglement as ent
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab.disorder import high_disorder_ensemble, make_chain, sample_chain, uniform
from xylab.eigencorrelator import DecayFit
from xylab.hamiltonian import alpha_from_index

from conftest import random_chain


def test_product_state_has_zero_entropy():
    cm = qf.profile_gamma([1.0, 0.0, 1.0])
    for ell in (1, 2):
        assert ent.entropy_from_gamma(cm, ent.Cut(ell)) == pytest.approx(0.0, abs=1e-9)


def test_single_bell_mode_gives_ln2():
    # one particle split evenly across the cut, (c_1^* + c_2^*)/sqrt(2) |0>:
    # restricted block spectrum {1/2, 1/2}, entropy -2*(1/2)ln(1/2) = ln 2
    gamma = np.zeros((4, 4))
    gamma[1, 1] = gamma[3, 3] = 0.5  # <c^* c> sector
    gamma[1, 3] = gamma[3, 1] = 0.5
    gamma[0, 0] = gamma[2, 2] = 0.5  # <c c^*> sector
    gamma[0, 2] = gamma[2, 0] = -0.5
    cm = qf.CorrelationMatrix(gamma=gamma, n=2)
    cm.validate()
    assert cm.purity_defect() < 1e-12
    assert ent.entropy_from_gamma(cm, ent.Cut(1)) == pytest.approx(np.log(2), abs=1e-9)


def test_entropy_matches_oracle_every_eigenstate_every_cut(rng):
    n = 6
    ch = random_chain(rng, n)
    bog = ham.bogoliubov(ch)
    evals, evecs = np.linalg.eigh(ed.build_H(ch))
    energies = ham.all_many_body_energies(bog)
    idxs, flags = ed.match_eigenstates(energies, evals)
    checked = 0
    for a in range(2**n):
        if flags[a]:
            continue
        cm = qf.eigenstate_gamma(bog, alpha_from_index(a, n))
        psi = evecs[:, idxs[a]]
        for ell in range(1, n):
            s_free = ent.entropy_from_gamma(cm, ent.Cut(ell))
            s_ed = ed.von_neumann_entropy(ed.reduced_density(psi, n, ell))
            assert abs(s_free - s_ed) < 1e-7
            checked += 1
    assert checked > 0


def test_left_right_symmetry_for_pure_states(rng):
    ch = random_chain(rng, 7)
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [1, 0, 1, 1, 0, 0, 1])
    for ell in (1, 3, 6):
        left = ent.entropy_from_gamma(cm, ent.Cut(ell))
        # the complement block's spectrum
        right = ent._spectrum_entropy(np.linalg.eigvalsh(cm.gamma[2 * ell :, 2 * ell :]))
        assert abs(left - right) < 1e-8


def test_entropy_bounded_by_volume(rng):
    ch = random_chain(rng, 8)
    bog = ham.bogoliubov(ch)
    cm = qf.eigenstate_gamma(bog, [1, 0, 1, 0, 1, 0, 1, 0])
    for ell in (2, 4, 7):
        s = ent.entropy_from_gamma(cm, ent.Cut(ell))
        assert s <= min(ell, 8 - ell) * 2 * np.log(2) + 1e-8


def test_ps_bound_diagonal_gamma_is_zero():
    cm = qf.profile_gamma([0.3, 0.8, 0.1])
    assert ent.ps_bound(cm, ent.Cut(1)) == pytest.approx(0.0, abs=1e-14)


def test_ps_bound_dominates_entropy(rng):
    for _ in range(5):
        ch = random_chain(rng, 6)
        bog = ham.bogoliubov(ch)
        alpha = (np.random.default_rng(1).integers(0, 2, 6))
        cm = qf.eigenstate_gamma(bog, alpha)
        for ell in range(1, 6):
            cut = ent.Cut(ell)
            assert ent.entropy_from_gamma(cm, cut) <= ent.ps_bound(cm, cut) + 1e-8


def test_ps_bound_on_evolved_state(rng):
    # the cross-block bound applies to the complex evolved matrices too
    ch = random_chain(rng, 5)
    sd = ham.diagonalize(ham.build_M(ch))
    cm = qf.evolve_gamma(qf.profile_gamma([1, 0, 0, 1, 0]), sd, 1.3)
    cut = ent.Cut(2)
    assert ent.entropy_from_gamma(cm, cut) <= ent.ps_bound(cm, cut) + 1e-8


def test_block_spectral_norms_against_svd(rng):
    g = rng.normal(size=(8, 8))
    g = g + g.T
    norms = ent.block_spectral_norms(g, 4)
    for j in range(4):
        for k in range(4):
            ref = np.linalg.norm(g[2 * j : 2 * j + 2, 2 * k : 2 * k + 2], 2)
            assert norms[j, k] == pytest.approx(ref, abs=1e-12)


def test_max_eigenstate_entropy_decoupled_is_zero():
    ch = make_chain([0.0, 0.0], [0.0, 0.0], [1.0, -2.0, 0.7])
    bog = ham.bogoliubov(ch)
    rec = ent.max_eigenstate_entropy(bog, ent.Cut(1), strategy="exhaustive")
    assert rec.entropy == pytest.approx(0.0, abs=1e-9)


def test_sampled_max_below_exhaustive(rng):
    ch = random_chain(rng, 8)
    bog = ham.bogoliubov(ch)
    cut = ent.Cut(4)
    full = ent.max_eigenstate_entropy(bog, cut, strategy="exhaustive")
    sampled = ent.max_eigenstate_entropy(bog, cut, strategy="sampled", samples=50, seed=3)
    assert sampled.entropy <= full.entropy + 1e-12
    assert full.strategy == "exhaustive"
    assert sampled.strategy == "sampled(50)"
    # the exhaustive record reports a consistent cross-cut bound
    assert full.entropy <= full.ps_bound + 1e-8


def test_restricted_spectrum_outside_unit_interval_is_an_error(rng):
    bog = ham.bogoliubov(random_chain(rng, 6))
    scaled = replace(bog, W=1.001 * bog.W)
    with pytest.raises(ValueError, match=r"restricted spectrum outside \[0,1\]"):
        ent.max_eigenstate_entropy(scaled, ent.Cut(3), strategy="exhaustive")


def test_batched_kernel_fires_on_sigma_squared_above_one():
    # decoupled sites: every sigma is 1, so scaling WA by (1 + 2e-9)^(1/4)
    # puts sigma^2 at 1 + 2e-9, while (1 - sigma)/2 = -5e-10 alone would
    # pass the spectrum check after the square root
    bog = ham.bogoliubov(make_chain([0.0, 0.0], [0.0, 0.0], [1.0, -2.0, 0.7]))
    WA = (1 + 2e-9) ** 0.25 * bog.W[:, :2]
    with pytest.raises(ValueError, match=r"restricted spectrum outside \[0,1\]: sigma\^2"):
        ent._label_entropies(WA, alpha_from_index(np.arange(2**3)[:, None], 3))
    assert np.all(ent._label_entropies(bog.W[:, :2], alpha_from_index(np.arange(2**3)[:, None], 3)) < 1e-9)


def _corner_chain(rng, corner):
    n = {"n2": 2, "nu_zero": 7}.get(corner, 8)
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1)
    nu = rng.uniform(-1.5, 1.5, n)
    if corner == "gamma_pm1":
        gamma = rng.choice([-1.0, 1.0], n - 1)
    elif corner == "zero_bond":
        mu[3] = 0.0  # splits the chain between sites 4 and 5
    elif corner == "nu_zero":
        nu = np.zeros(n)  # odd n: a lambda = 0 mode
    elif corner == "clean":
        mu, gamma, nu = np.ones(n - 1), np.zeros(n - 1), np.zeros(n)
    return make_chain(mu, gamma, nu)


@pytest.mark.parametrize("corner", ["random", "gamma_pm1", "zero_bond", "nu_zero", "clean", "n2"])
def test_batched_label_entropies_match_per_label(rng, corner):
    bog = ham.bogoliubov(_corner_chain(rng, corner))
    labels = alpha_from_index(np.arange(2**bog.n)[:, None], bog.n)
    for ell in range(1, bog.n):
        WA = bog.W[:, : 2 * ell]
        batched = ent._label_entropies(WA, labels)
        exact = [ent._label_entropy(WA, alpha) for alpha in labels]
        assert np.max(np.abs(batched - exact)) <= 1e-12


def _loop_max(bog, cut, labels):
    """The per-label reference: exact score of every label, first maximum;
    also the gap between the two best scores."""
    WA = bog.W[:, : 2 * cut.ell]
    scores = [ent._label_entropy(WA, alpha) for alpha in labels]
    best, best_alpha = -1.0, None
    for s, alpha in zip(scores, labels):
        if s > best:
            best, best_alpha = s, alpha
    record = (best, tuple(int(a) for a in best_alpha),
              ent.ps_bound(qf.eigenstate_gamma(bog, best_alpha), cut))
    top = sorted(scores)
    return record, top[-1] - top[-2]


def _record(rec):
    return rec.entropy, tuple(int(a) for a in rec.label), rec.ps_bound


# perfbench `entanglement_static` at workload seed s: n=60, realization i
# of base_seed 1000 s + 2, labels drawn from seed 1000 s + i.  At ell=10
# the two best labels of these cuts score within 1e-12 of each other,
# below the ~1e-13 error of the batched scores, which therefore may rank
# them either way (some of them do, depending on the arithmetic).
@pytest.mark.parametrize("seed, i", [(1, 3), (8, 8), (21, 2), (28, 11)])
def test_max_eigenstate_entropy_is_the_loop_on_near_ties(seed, i):
    ens = high_disorder_ensemble(60, 0.05, uniform(-1.0, 1.0), seed=1000 * seed + 2, realizations=12)
    bog = ham.bogoliubov(sample_chain(ens, i))
    for ell in (10, 30):
        cut = ent.Cut(ell)
        rng = np.random.default_rng(1000 * seed + i)
        labels = [rng.integers(0, 2, size=60) for _ in range(200)]
        expected, gap = _loop_max(bog, cut, labels)
        rec = ent.max_eigenstate_entropy(bog, cut, strategy="sampled", samples=200, seed=1000 * seed + i)
        assert _record(rec) == expected
        if ell == 10:
            assert gap < 1e-12


def test_max_eigenstate_entropy_exhaustive_is_the_loop(rng):
    bog = ham.bogoliubov(random_chain(rng, 9))
    labels = [alpha_from_index(a, 9) for a in range(2**9)]
    for ell in (1, 4, 8):
        cut = ent.Cut(ell)
        assert _record(ent.max_eigenstate_entropy(bog, cut)) == _loop_max(bog, cut, labels)[0]


def test_sampled_max_rejects_zero_samples(rng):
    bog = ham.bogoliubov(random_chain(rng, 6))
    with pytest.raises(ValueError, match="samples"):
        ent.max_eigenstate_entropy(bog, ent.Cut(3), strategy="sampled", samples=0)


def test_max_eigenstate_entropy_caps_exhaustive():
    ch = make_chain([0.1] * 15, [0.0] * 15, [0.5] * 16)
    bog = ham.bogoliubov(ch)
    with pytest.raises(ValueError):
        ent.max_eigenstate_entropy(bog, ent.Cut(8), strategy="exhaustive")


def test_quench_entropy_starts_at_zero_and_matches_oracle(rng):
    n = 6
    ch = random_chain(rng, n)
    times = np.array([0.0, 0.4, 1.1])
    series = ent.quench_entropy(ch, ent.Cut(3), [0, 0, 1], [0, 1, 0], times)
    assert series[0] == pytest.approx(0.0, abs=1e-8)
    # oracle re-computation
    gamma0, bog_l, bog_r = qf.quench_initial_gamma(ch, 3, [0, 0, 1], [0, 1, 0])
    left = make_chain(ch.mu[:2], ch.gamma[:2], ch.nu[:3])
    right = make_chain(ch.mu[3:], ch.gamma[3:], ch.nu[3:])
    el, vl = np.linalg.eigh(ed.build_H(left))
    er, vr = np.linalg.eigh(ed.build_H(right))
    il, fl = ed.match_eigenstates([ham.many_body_energy(bog_l, [0, 0, 1])], el)
    ir, fr = ed.match_eigenstates([ham.many_body_energy(bog_r, [0, 1, 0])], er)
    assert not fl[0] and not fr[0]
    psi0 = np.kron(vl[:, il[0]], vr[:, ir[0]])
    hd = ed.spectral(ed.build_H(ch))
    for i, t in enumerate(times):
        psit = ed.schroedinger_evolve_state(psi0, hd, t)
        s_ed = ed.von_neumann_entropy(ed.reduced_density(psit, n, 3))
        assert abs(series[i] - s_ed) < 1e-7


def test_quench_clean_chain_grows():
    # joined half-chain ground states grow slowly (logarithmic junction
    # quench); a mode-mismatched eigenstate pair grows ballistically and
    # clears the 3x contrast with a wide margin
    n = 60
    h = n // 2
    ch = make_chain([1.0] * (n - 1), [0.0] * (n - 1), [0.0] * n)
    times = np.arange(0.0, 30.0 + 1e-9, 0.5)
    vac = ent.quench_entropy(ch, ent.Cut(h), [0] * h, [0] * h, times)
    assert np.max(vac) > 2.0 * np.mean(vac[times <= 1.0])
    alt = ent.quench_entropy(ch, ent.Cut(h), [1, 0] * (h // 2), [0, 1] * (h // 2), times)
    assert np.max(alt) > 3.0 * np.mean(alt[times <= 1.0])


def test_thermal_entanglement_of_formation_bound(rng):
    ch = random_chain(rng, 6)
    bog = ham.bogoliubov(ch)
    cut = ent.Cut(3)
    # beta -> inf: ground state only
    ground = qf.eigenstate_gamma(bog, np.zeros(6, dtype=int))
    s0 = ent.entropy_from_gamma(ground, cut)
    assert ent.thermal_entanglement_of_formation_bound(bog, cut, np.inf) == pytest.approx(s0, abs=1e-10)
    # decoupled chain: zero at any beta
    dec = make_chain([0.0] * 5, [0.0] * 5, [1.0, -2.0, 0.5, 3.0, -0.4, 1.7])
    bog_dec = ham.bogoliubov(dec)
    assert ent.thermal_entanglement_of_formation_bound(bog_dec, cut, 1.0) == pytest.approx(0.0, abs=1e-9)
    # convex-combination bound lies between 0 and the max over labels
    val = ent.thermal_entanglement_of_formation_bound(bog, cut, 1.0)
    mx = ent.max_eigenstate_entropy(bog, cut, strategy="exhaustive").entropy
    assert 0.0 <= val <= mx + 1e-12
    # n = 15 takes the sampled path: within 5 standard errors of the exact
    # Gibbs average over all 2^15 labels
    n, beta, count = 15, 1.0, 4000
    bog15 = ham.bogoliubov(random_chain(rng, n))
    cut15 = ent.Cut(6)
    alphas = alpha_from_index(np.arange(2**n)[:, None], n)
    w = np.exp(-2.0 * beta * (alphas @ bog15.lam))
    w /= np.sum(w)
    entropies = ent._label_entropies(bog15.W[:, : 2 * cut15.ell], alphas)
    exact = w @ entropies
    stderr = np.sqrt(w @ (entropies - exact) ** 2 / count)
    sampled = ent.thermal_entanglement_of_formation_bound(bog15, cut15, beta, sample_count=count, seed=5)
    assert stderr > 0.0
    assert abs(sampled - exact) <= 5.0 * stderr


def test_thermal_bound_is_the_weighted_label_average(rng):
    bog = ham.bogoliubov(random_chain(rng, 7))
    cut = ent.Cut(3)
    WA = bog.W[:, :6]
    weights = [np.exp(-2.0 * 0.7 * np.sum(bog.lam[alpha_from_index(a, 7) == 1])) for a in range(2**7)]
    entropies = [ent._label_entropy(WA, alpha_from_index(a, 7)) for a in range(2**7)]
    expected = np.dot(weights, entropies) / np.sum(weights)
    assert ent.thermal_entanglement_of_formation_bound(bog, cut, 0.7) == pytest.approx(expected, abs=1e-12)


def test_thermal_bound_sampled_draws_one_row_per_sample(rng):
    # n > 14 samples the Gibbs occupations: one rng.random(n) per sample
    from scipy.special import expit

    bog = ham.bogoliubov(random_chain(rng, 16))
    cut = ent.Cut(5)
    draws = np.random.default_rng(9)
    p_occ = expit(-2.0 * 0.5 * bog.lam)
    labels = [(draws.random(16) < p_occ).astype(int) for _ in range(30)]
    expected = np.mean([ent._label_entropy(bog.W[:, :10], alpha) for alpha in labels])
    got = ent.thermal_entanglement_of_formation_bound(bog, cut, 0.5, sample_count=30, seed=9)
    assert got == pytest.approx(expected, abs=1e-12)


def test_ensemble_ps_bound_below_fitted_constant():
    # sup over labels of the cross-cut bound is majorized by the block
    # eigencorrelator table; its average sits below the fitted-constant
    # expression within a factor 2
    from xylab import eigencorrelator as ec
    from xylab.disorder import EnsembleSpec, constant, uniform, sample_chain

    n, ell = 100, 50
    ens = EnsembleSpec(n=n, mu_dist=constant(1.0), gamma_dist=constant(0.0),
                       nu_dist=uniform(-5.0, 5.0), base_seed=33, realizations=15)
    sup_bounds = []
    prof_acc = None
    for i in range(ens.realizations):
        ch = sample_chain(ens, i)
        sd = ham.diagonalize(ham.build_M(ch))
        Q = ec.eigencorrelator_table(sd, block=True)
        sup_bounds.append(2.0 * np.log(2.0) * float(np.sum(Q[:ell, ell:])))
        prof = ec.distance_profile(Q, 40)
        prof_acc = prof if prof_acc is None else prof_acc + prof
    fit = ec.fit_decay(prof_acc / ens.realizations, min_distance=2, max_distance=30)
    assert np.mean(sup_bounds) <= 2.0 * ent.area_law_constant(fit)


def test_area_law_constant_formula():
    eta = np.log(2.0)
    # 2 ln 2 * C e^{-eta} / (1 - e^{-eta})^2 with C = 1, eta = ln 2: 2 ln 2 * 2
    fit = DecayFit(C=1.0, eta=eta, r_squared=1.0, min_distance=1)
    assert ent.area_law_constant(fit) == pytest.approx(2 * np.log(2) * 0.5 / 0.25)
    for bad in (0.0, -0.3):
        with pytest.raises(ValueError, match="positive decay rate"):
            ent.area_law_constant(DecayFit(C=1.0, eta=bad, r_squared=1.0, min_distance=1))


def test_cut_validation():
    with pytest.raises(ValueError):
        ent.Cut(0)
    cm = qf.profile_gamma([0.0, 0.0])
    with pytest.raises(ValueError):
        ent.entropy_from_gamma(cm, ent.Cut(2))


@pytest.mark.parametrize("bonds", ["anisotropic", "gamma_pm1", "zero_bond"])
def test_quench_entropy_matches_per_step_evolution(rng, bonds):
    # the eigenbasis series against evolving the full correlation matrix
    # step by step and taking each restricted spectrum
    n = 8
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1)
    if bonds == "gamma_pm1":
        gamma = rng.choice([-1.0, 1.0], n - 1)
    if bonds == "zero_bond":
        mu[4] = 0.0  # splits the chain between sites 5 and 6
    ch = make_chain(mu, gamma, rng.uniform(-1.5, 1.5, n))
    sd = ham.diagonalize(ham.build_M(ch))
    times = np.arange(0.0, 6.0, 0.5)
    for ell in (1, 3, 5, 7):
        a_left = rng.integers(0, 2, ell)
        a_right = rng.integers(0, 2, n - ell)
        series = ent.quench_entropy(ch, ent.Cut(ell), a_left, a_right, times)
        gamma0, _, _ = qf.quench_initial_gamma(ch, ell, a_left, a_right)
        loop = [ent.entropy_from_gamma(qf.evolve_gamma(gamma0, sd, t), ent.Cut(ell))
                for t in times]
        assert np.max(np.abs(series - loop)) <= 1e-10
        shared = ent.quench_entropy(ch, ent.Cut(ell), a_left, a_right, times,
                                    sd_M=ham.bogoliubov(ch).spectral)
        assert np.array_equal(series, shared)
