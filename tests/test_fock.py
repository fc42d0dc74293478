import itertools

import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import experiments as xp
from xylab import fock
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab.disorder import make_chain, sample_chain, uniform
from xylab.eigencorrelator import DecayFit, fit_decay

from conftest import (dense_H, diagonalize, ensemble_mean, high_disorder_ensemble, occupation_bound,
                      random_chain, spin_basis_index)


def test_hopcroft_karp_small_graphs():
    # perfect matching on a 2x2 complete bipartite graph
    m = fock.hopcroft_karp([[0, 1], [0, 1]], 2)
    assert sorted(m) == [0, 1]
    # a vertex with no edges stays unmatched
    m2 = fock.hopcroft_karp([[0], [], [0, 1]], 2)
    assert m2[1] == -1
    assert sum(1 for v in m2 if v != -1) == 2
    # maximum matching size on a path-like graph
    m3 = fock.hopcroft_karp([[0], [0, 1], [1]], 2)
    assert sum(1 for v in m3 if v != -1) == 2


def test_locate_centers_decoupled():
    ch = make_chain([0.0] * 4, [0.0] * 4, [2.0, -1.0, 0.5, -3.0, 1.5])
    sd = ham.diagonalize_A(ch)
    ca = fock.locate_centers(sd, alpha=1.25)
    assert ca.matched and ca.fallback_count == 0
    # each eigenvector is a site indicator; centers must be those sites
    for r in range(5):
        col = np.abs(sd.eigenvectors[:, r])
        assert col[ca.centers[r] - 1] == pytest.approx(1.0, abs=1e-12)


def test_locate_centers_two_site_symmetric():
    sd = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ca = fock.locate_centers(sd, alpha=1.5)
    assert ca.matched
    assert sorted(ca.centers) == [1, 2]
    with pytest.raises(ValueError):
        fock.locate_centers(sd, alpha=1.0)


def test_certify_decay_decoupled_and_clean():
    ch = make_chain([0.0] * 7, [0.0] * 7, [2.0, -1.0, 0.5, -3.0, 1.5, 0.1, -0.6, 2.5])
    sd = ham.diagonalize_A(ch)
    ca = fock.locate_centers(sd, 1.25)
    assert fock.certify_decay(fock.decay_envelope(sd, ca), eta=1.0, tau=0.3)
    # extended states on the clean chain violate any exponential envelope
    n = 100
    clean = make_chain([1.0] * (n - 1), [0.0] * (n - 1), [0.0] * n)
    sd_clean = ham.diagonalize_A(clean)
    ca_clean = fock.locate_centers(sd_clean, 1.25)
    envelope = fock.decay_envelope(sd_clean, ca_clean)
    assert not fock.certify_decay(envelope, eta=0.1, tau=0.5)
    d = np.arange(n)
    far = d >= n**0.5
    assert np.any(envelope[far] > np.exp(-0.1 * d[far]))


def test_decay_envelope_is_the_largest_entry_per_distance(rng):
    n = 12
    sd = ham.diagonalize_A(random_chain(rng, n, anisotropic=False))
    ca = fock.locate_centers(sd, 1.25)
    expected = np.zeros(n)
    for r in range(n):
        for j in range(1, n + 1):
            d = abs(j - ca.centers[r])
            expected[d] = max(expected[d], abs(sd.eigenvectors[j - 1, r]))
    assert np.array_equal(fock.decay_envelope(sd, ca), expected)
    # no center at an end of the chain: no entry lies n - 1 sites away
    inner = fock.CenterAssignment(centers=(2,) * n, matched=False, fallback_count=0)
    assert fock.decay_envelope(sd, inner)[n - 1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 9, 60])
def test_decay_envelope_equals_the_scatter_max_formula_bitwise(rng, n):
    sd = ham.diagonalize_A(random_chain(rng, n, anisotropic=False))
    for ca in (fock.locate_centers(sd, 1.25),
               fock.CenterAssignment(centers=(n,) * n, matched=False, fallback_count=0)):
        V = np.abs(sd.eigenvectors)
        expected = np.zeros(n)
        np.maximum.at(expected, np.abs(np.arange(1, n + 1)[:, None] - np.asarray(ca.centers)), V)
        assert fock.decay_envelope(sd, ca).tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", [1.1, 1.25, 2.0])
def test_locate_centers_matches_on_the_per_column_candidate_lists(rng, monkeypatch, alpha):
    n = 40
    sd = ham.diagonalize_A(random_chain(rng, n, anisotropic=False))
    seen = []
    match = fock.hopcroft_karp
    monkeypatch.setattr(fock, "hopcroft_karp", lambda adj, right: seen.append(adj) or match(adj, right))
    fock.locate_centers(sd, alpha)
    V = np.abs(sd.eigenvectors)
    assert seen == [[list(np.nonzero(V[:, r] >= n ** -alpha)[0]) for r in range(n)]]


def _signed_det(U, k, j) -> float:
    """The reference overlap of one pair: one det of the transposed np.ix_
    submatrix, rows the modes k and columns the sites j."""
    sign = -1.0 if (sum(j) - len(j)) % 2 else 1.0
    return sign * np.linalg.det(U[np.ix_(np.array(j) - 1, np.array(k) - 1)].T)


def test_pair_overlaps_call_slater_overlap_once_per_cardinality(rng, monkeypatch):
    n = 30
    U = ham.diagonalize_A(random_chain(rng, n, anisotropic=False)).eigenvectors
    pairs = fock.sample_configuration_pairs(n, 0.5, 25, 4, 5)
    calls = []
    overlap = fock.slater_overlap
    monkeypatch.setattr(fock, "slater_overlap", lambda *a: calls.append(a[1:]) or overlap(*a))
    got = fock.pair_overlaps(U, pairs)
    # one call per cardinality, in order of first appearance, on the (m, r)
    # stacks of the pairs of that cardinality in order
    cardinalities = list(dict.fromkeys(len(k) for k, _ in pairs))
    assert len(cardinalities) > 1
    assert [(k.tolist(), j.tolist()) for k, j in calls] == [
        tuple([list(c[side]) for c in pairs if len(c[0]) == r] for side in (0, 1)) for r in cardinalities]
    expected = [abs(_signed_det(U, k, j)) for k, j in pairs]
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("n", [5, 12, 60])
def test_batched_overlaps_are_bitwise_one_det_per_pair(rng, n):
    U = ham.diagonalize_A(random_chain(rng, n, anisotropic=False)).eigenvectors
    pairs = [tuple(tuple(sorted(rng.choice(n, r, replace=False) + 1)) for _ in range(2))
             for r in rng.integers(1, 6, size=80)]
    expected = [_signed_det(U, k, j) for k, j in pairs]
    assert fock.pair_overlaps(U, pairs).tobytes() == np.abs(expected).tobytes()
    for r in range(1, 6):
        group = [i for i, (k, _) in enumerate(pairs) if len(k) == r]
        k, j = (np.array([pairs[i][side] for i in group]).reshape(len(group), r) for side in (0, 1))
        got = fock.slater_overlap(U, k, j)
        assert got.shape == (len(group),)
        assert got.tobytes() == np.array([expected[i] for i in group]).tobytes()
    for (k, j), value in zip(pairs, expected):
        one = fock.slater_overlap(U, k, j)
        assert type(one) is float and one == value


def test_pair_overlaps_keep_the_edge_cases_of_one_pair():
    n = 6
    U = ham.diagonalize_A(make_chain([0.3] * (n - 1), [0.0] * (n - 1), np.linspace(-1, 1, n))).eigenvectors
    empty = fock.pair_overlaps(U, [])
    assert empty.dtype == float and empty.shape == (0,)
    got = fock.pair_overlaps(U, [((1, 2), (3,)), ((), ()), ((2,), (4,)), ((), (1,))])
    assert got.tolist() == [0.0, 1.0, abs(fock.slater_overlap(U, (2,), (4,))), 0.0]
    for bad in ((2, 2), (3, 1), (0, 2), (1, 7)):
        with pytest.raises(ValueError) as one:
            qf.ordered_configuration(bad, n)
        # the first invalid configuration among the pairs names the error
        for pairs in ([(bad, (1, 3))], [((1,), (2,)), ((1, 3), bad)],
                      [((4,), (5,)), (bad, (1, 2)), ((1, 2, 3), (2, 2, 4))], [((5,), (1, 2)), (bad, (1, 3))]):
            with pytest.raises(ValueError) as many:
                fock.pair_overlaps(U, pairs)
            assert str(many.value) == str(one.value)


def test_certify_decay_validation():
    ch = make_chain([0.1], [0.0], [1.0, -1.0])
    sd = ham.diagonalize_A(ch)
    envelope = fock.decay_envelope(sd, fock.locate_centers(sd, 1.25))
    with pytest.raises(ValueError):
        fock.certify_decay(envelope, eta=-1.0, tau=0.5)
    with pytest.raises(ValueError):
        fock.certify_decay(envelope, eta=1.0, tau=1.5)


def test_slater_overlap_permutation_limit():
    # decoupled chain: eigenvectors are (signed) site indicators
    ch = make_chain([0.0] * 4, [0.0] * 4, [2.0, -1.0, 0.5, -3.0, 1.5])
    sd = ham.diagonalize_A(ch)
    U = sd.eigenvectors
    perm = {r + 1: int(np.argmax(np.abs(U[:, r]))) + 1 for r in range(5)}
    k = (1, 3)
    j_match = tuple(sorted(perm[m] for m in k))
    assert abs(fock.slater_overlap(U, k, j_match)) == pytest.approx(1.0, abs=1e-12)
    j_other = (1, 2) if (1, 2) != j_match else (1, 4)
    assert abs(fock.slater_overlap(U, k, j_other)) < 1e-12


def test_slater_overlap_cardinality_mismatch_is_zero():
    U = np.eye(4)
    assert fock.slater_overlap(U, (1, 2), (3,)) == 0.0


def test_fermion_configuration_validation():
    U = np.eye(5)
    with pytest.raises(ValueError):
        fock.slater_overlap(U, [2, 2], [1, 3])
    with pytest.raises(ValueError):
        fock.slater_overlap(U, [1, 3], [1, 6])
    with pytest.raises(ValueError):
        fock.occupation_number(U, [2, 2], 1)
    with pytest.raises(ValueError):
        fock.occupation_number(U, [1, 6], 1)
    assert fock.slater_overlap(U, [], []) == 1.0
    assert fock.occupation_number(U, [], 3) == 0.0


def test_slater_overlap_magnitude_never_exceeds_one(rng):
    ch = random_chain(rng, 8, anisotropic=False)
    U = ham.diagonalize_A(ch).eigenvectors
    for _ in range(50):
        r = int(rng.integers(1, 5))
        k = tuple(sorted(rng.choice(8, r, replace=False) + 1))
        j = tuple(sorted(rng.choice(8, r, replace=False) + 1))
        assert abs(fock.slater_overlap(U, k, j)) <= 1.0 + 1e-12


def test_parseval_exhaustive(rng):
    n = 10
    ch = random_chain(rng, n, anisotropic=False)
    U = ham.diagonalize_A(ch).eigenvectors
    for r in (1, 2, 3):
        k = tuple(range(1, r + 1))
        total = sum(
            fock.slater_overlap(U, k, j) ** 2
            for j in itertools.combinations(range(1, n + 1), r)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_slater_overlap_matches_oracle(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=False)
    sdA = ham.diagonalize_A(ch)
    U = sdA.eigenvectors
    evals, evecs = np.linalg.eigh(dense_H(ch))
    for k in itertools.combinations(range(1, n + 1), 2):
        e_free = 2.0 * np.sum(sdA.eigenvalues[np.array(k) - 1]) + np.sum(ch.nu)
        idx, flags = ed.match_eigenstates([e_free], evals)
        if flags[0]:
            continue
        psi = evecs[:, idx[0]]
        for j in itertools.combinations(range(1, n + 1), 2):
            ed_val = abs(psi[spin_basis_index(n, j)])
            assert abs(abs(fock.slater_overlap(U, k, j)) - ed_val) < 1e-8


def test_occupation_number_identities(rng):
    n = 9
    ch = random_chain(rng, n, anisotropic=False)
    U = ham.diagonalize_A(ch).eigenvectors
    # epsilon = 0: indicator of x in k (decoupled chain, k in site order)
    dec = make_chain([0.0] * 4, [0.0] * 4, [-2.0, -1.0, 0.5, 1.0, 3.0])
    Ud = ham.diagonalize_A(dec).eigenvectors
    perm = {r + 1: int(np.argmax(np.abs(Ud[:, r]))) + 1 for r in range(5)}
    k = (2, 4)
    occupied_sites = {perm[m] for m in k}
    for x in range(1, 6):
        expected = 1.0 if x in occupied_sites else 0.0
        assert fock.occupation_number(Ud, k, x) == pytest.approx(expected, abs=1e-12)
    # sum over sites equals the particle number
    k2 = (1, 4, 7)
    total = sum(fock.occupation_number(U, k2, x) for x in range(1, n + 1))
    assert total == pytest.approx(3.0, abs=1e-10)


def test_occupation_matches_oracle(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=False)
    sdA = ham.diagonalize_A(ch)
    evals, evecs = np.linalg.eigh(dense_H(ch))
    for r in (1, 2, 3):
        for k in itertools.combinations(range(1, n + 1), r):
            e_free = 2.0 * np.sum(sdA.eigenvalues[np.array(k) - 1]) + np.sum(ch.nu)
            idx, flags = ed.match_eigenstates([e_free], evals)
            if flags[0]:
                continue
            psi = evecs[:, idx[0]]
            for x in range(1, n + 1):
                occ_ed = float(np.sum(ed.occupation_mask(n, x) * np.abs(psi) ** 2))
                assert abs(fock.occupation_number(sdA.eigenvectors, k, x) - occ_ed) < 1e-8


def test_occupation_bound_when_certified():
    n = 64
    eps = 0.05
    ens = high_disorder_ensemble(n, eps, uniform(-1.0, 1.0), seed=23, realizations=25)
    prof = ensemble_mean(xp._real_eigencorrelator, ens, {"block": False, "max_distance": 25})
    fit = fit_decay(prof, min_distance=2, max_distance=20)
    eta = 0.5 * fit.eta
    tau = 0.5
    window = float(n) ** tau
    hits = 0
    for i in range(10):
        chain = sample_chain(ens, i)
        sd = ham.diagonalize_A(chain)
        ca = fock.locate_centers(sd, 1.25)
        if not fock.certify_decay(fock.decay_envelope(sd, ca), eta=eta, tau=tau):
            continue
        centers = np.array(ca.centers)
        for k_modes in ((1, 2), (n - 1, n), (1, n)):
            k_centers = centers[np.array(k_modes) - 1]
            for x in (1, n // 2, n):
                dmin = np.min(np.abs(k_centers - x))
                if dmin < window:
                    continue
                hits += 1
                occ = fock.occupation_number(sd.eigenvectors, k_modes, x)
                assert occ <= occupation_bound(eta, dmin) + 1e-12
    assert hits > 0


def test_certified_fraction_monotone_in_coupling():
    # matched random fields, fixed envelope: certification can only get
    # harder as the coupling grows
    tau = 0.5
    fracs = {}
    eta_ref = None
    for eps in (0.2, 0.1, 0.05):
        ens = high_disorder_ensemble(64, eps, uniform(-1.0, 1.0), seed=31, realizations=40)
        if eta_ref is None:
            prof = ensemble_mean(xp._real_eigencorrelator, ens, {"block": False, "max_distance": 25})
            eta_ref = 0.5 * fit_decay(prof, min_distance=2, max_distance=20).eta
        good = 0
        for i in range(ens.realizations):
            sd = ham.diagonalize_A(sample_chain(ens, i))
            ca = fock.locate_centers(sd, 1.25)
            good += fock.certify_decay(fock.decay_envelope(sd, ca), eta=eta_ref, tau=tau)
        fracs[eps] = good / ens.realizations
    assert fracs[0.05] >= fracs[0.1] >= fracs[0.2]


def test_sample_configuration_pairs_determinism_and_distance():
    pairs = fock.sample_configuration_pairs(50, 0.4, 30, seed=9, r_max=5)
    pairs2 = fock.sample_configuration_pairs(50, 0.4, 30, seed=9, r_max=5)
    assert pairs == pairs2
    dmin = 2.0 * 50**0.4
    for k, j in pairs:
        assert len(k) == len(j) <= 5
        assert fock.configuration_distance(k, j) >= dmin


def test_fock_localization_check_decoupled_all_pass():
    ch = make_chain([0.0] * 19, [0.0] * 19, list(np.linspace(-2, 2, 20)))
    sd = ham.diagonalize_A(ch)
    fit = DecayFit(C=1.0, eta=2.0, r_squared=1.0, min_distance=1)
    pairs = fock.sample_configuration_pairs(20, 0.4, 40, seed=1, r_max=5)
    overlaps = fock.pair_overlaps(sd.eigenvectors, pairs)
    pass_fraction = fock.fock_localization_check(overlaps, pairs, 20, fit, 0.4, 0.25,
                                                 eta=0.5 * fit.eta)
    assert all(fock.configuration_distance(k, j) >= 2.0 * 20**0.4 for k, j in pairs)
    assert pass_fraction == 1.0
    with pytest.raises(ValueError):
        fock.fock_localization_check(overlaps, pairs, 20, fit, 0.4, 2.0, eta=0.5 * fit.eta)


def test_certify_decay_stack_matches_rows(rng):
    n = 30
    d = np.arange(n)
    # envelopes straddling exp(-eta d) so both verdicts occur
    envelopes = np.exp(-0.5 * d) * rng.uniform(0.5, 1.02, size=(40, n))
    verdicts = fock.certify_decay(envelopes, eta=0.5, tau=0.5)
    assert verdicts.shape == (40,)
    assert verdicts.tolist() == [bool(fock.certify_decay(e, eta=0.5, tau=0.5)) for e in envelopes]
    assert set(verdicts.tolist()) == {True, False}


def test_fock_localization_check_stack_matches_rows(rng):
    n, tau = 40, 0.4
    fit = DecayFit(C=1.0, eta=1.0, r_squared=1.0, min_distance=1)
    eta = 0.5 * fit.eta
    pairs = fock.sample_configuration_pairs(n, tau, 25, seed=3, r_max=5)
    pairs[0] = ((5,), (6,))  # closer than 2 n^tau: skipped
    D = np.array([fock.configuration_distance(k, j) for k, j in pairs])
    I = qf.growth_series(n**tau, 0.1)
    bound = 8.0 * I * n ** (2 * tau) * np.exp(-0.25 * (eta - 0.1) * D)
    overlaps = bound * rng.uniform(0.2, 1.3, size=(30, len(pairs)))
    fractions = fock.fock_localization_check(overlaps, pairs, n, fit, tau, 0.1, eta)
    assert fractions.shape == (30,)
    rows = [fock.fock_localization_check(o, pairs, n, fit, tau, 0.1, eta) for o in overlaps]
    assert fractions.tolist() == [float(r) for r in rows]
    assert 0.0 < fractions.min() < fractions.max() <= 1.0
    # the near pair counts neither way, however large its overlap
    overlaps[:, 0] = 1e9
    assert np.array_equal(fock.fock_localization_check(overlaps, pairs, n, fit, tau, 0.1, eta),
                          fractions)
    # with every pair near, nothing is checked and every row passes
    near = [((1, 2), (2, 3)), ((7,), (9,))]
    all_near = fock.fock_localization_check(np.full((3, 2), 1e9), near, n, fit, tau, 0.1, eta)
    assert all_near.tolist() == [1.0] * 3
    with pytest.raises(ValueError):
        fock.fock_localization_check(overlaps[:, 1:], pairs, n, fit, tau, 0.1, eta)
    # eta0 >= eta is rejected, also when every pair is near and none is checked
    for eta0 in (0.5, 0.7):
        with pytest.raises(ValueError, match="mu > mu0 > 0"):
            fock.fock_localization_check(overlaps, pairs, n, fit, tau, eta0, eta)
        with pytest.raises(ValueError, match="mu > mu0 > 0"):
            fock.fock_localization_check(np.full((3, 2), 1e9), near, n, fit, tau, eta0, eta)
    with pytest.raises(ValueError):
        fock.fock_localization_check(overlaps[0], pairs[1:], n, fit, tau, 0.1, eta)


def test_single_mode_reduces_to_eigenfunction_decay(rng):
    ch = random_chain(rng, 10, anisotropic=False)
    U = ham.diagonalize_A(ch).eigenvectors
    for k in range(1, 11):
        for j in range(1, 11):
            assert abs(fock.slater_overlap(U, (k,), (j,))) == pytest.approx(
                abs(U[j - 1, k - 1]), abs=1e-14
            )
