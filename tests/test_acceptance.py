"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Ensemble sizes follow
the stated criteria; the whole suite targets well under 30 minutes on a
laptop.
"""

import itertools

import numpy as np
import pytest

from xylab import ed_oracle as ed
from xylab import eigencorrelator as ec
from xylab import entanglement as ent
from xylab import experiments as xp
from xylab import fock
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab import transport as tr
from xylab.disorder import (
    EnsembleSpec,
    constant,
    make_chain,
    sample_chain,
    uniform,
)

from conftest import (dense_cs, dense_H, ed_commutator_sups, ensemble_mean, high_disorder_ensemble,
                      multipoint_correlation, occupation_bound, random_chain, region_H, region_number_op)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def fit_eps005_n200():
    ens = high_disorder_ensemble(200, 0.05, uniform(-1.0, 1.0), seed=901, realizations=300)
    prof = ensemble_mean(xp._real_eigencorrelator, ens, {"block": False, "max_distance": 40})
    return ens, ec.fit_decay(prof, min_distance=5, max_distance=35)


def test_01_spectrum_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 11))
        chain = random_chain(rng, n, anisotropic=bool(trial % 2))
        free = np.sort(ham.all_many_body_energies(ham.bogoliubov(chain)))
        edvals = np.linalg.eigvalsh(dense_H(chain))
        worst = max(worst, float(np.max(np.abs(free - edvals))))
    ok = worst < 1e-8
    report(1, ok, f"20 chains n in [4,10]; worst multiset deviation {worst:.2e} < 1e-8")
    assert ok


def test_02_operator_identities():
    rng = np.random.default_rng(102)
    worst_q = worst_i = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 7))
        chain = random_chain(rng, n, anisotropic=True)
        iso = make_chain(chain.mu, np.zeros(n - 1), chain.nu)
        cs = dense_cs(n)
        ops = []
        for c in cs:
            ops.append(c)
            ops.append(c.conj().T)
        M = ham.build_M(chain)
        H2 = np.zeros((2**n, 2**n), dtype=complex)
        for p in range(2 * n):
            for q in range(2 * n):
                if M[p, q] != 0.0:
                    H2 += M[p, q] * (ops[p].conj().T @ ops[q])
        worst_q = max(worst_q, float(np.max(np.abs(dense_H(chain) - H2))))
        A = ham.build_A(iso)
        H3 = np.sum(iso.nu) * np.eye(2**n, dtype=complex)
        for j in range(n):
            for k in range(n):
                if A[j, k] != 0.0:
                    H3 += 2.0 * A[j, k] * (cs[j].conj().T @ cs[k])
        worst_i = max(worst_i, float(np.max(np.abs(dense_H(iso) - H3))))
    ok = worst_q < 1e-10 and worst_i < 1e-10
    report(2, ok, f"quadratic-form identities: anisotropic {worst_q:.2e}, isotropic {worst_i:.2e} < 1e-10")
    assert ok


def test_03_entanglement_identity():
    rng = np.random.default_rng(103)
    worst_entropy = 0.0
    worst_gap = -np.inf
    states = 0
    for n in (4, 5, 6, 7, 8):
        chain = random_chain(rng, n, anisotropic=True)
        bog = ham.bogoliubov(chain)
        evals, evecs = np.linalg.eigh(dense_H(chain))
        idxs, flags = ed.match_eigenstates(ham.all_many_body_energies(bog), evals)
        for a in range(2**n):
            if flags[a]:
                continue
            alpha = ham.alpha_from_index(a, n)
            psi = evecs[:, idxs[a]]
            states += 1
            for ell in range(1, n):
                # the scores and the bound that entanglement_static reports
                s_free = float(ent._label_entropies(bog, ell, alpha[None])[0])
                s_ed = ed.von_neumann_entropy(ed.reduced_density(psi, n, ell))
                worst_entropy = max(worst_entropy, abs(s_free - s_ed))
                worst_gap = max(worst_gap, s_free - ent.ps_bound(bog, alpha, ell))
    ok = worst_entropy < 1e-7 and worst_gap <= 1e-8
    report(
        3,
        ok,
        f"{states} eigenstates, all cuts: |S_free - S_ED| max {worst_entropy:.2e} < 1e-7; "
        f"max (S - cross-cut bound) = {worst_gap:.2e} <= 1e-8",
    )
    assert ok


def test_04_eigencorrelator_decay(fit_eps005_n200):
    _, fit = fit_eps005_n200
    ens2 = high_disorder_ensemble(200, 0.2, uniform(-1.0, 1.0), seed=904, realizations=500)
    prof2 = ensemble_mean(xp._real_eigencorrelator, ens2, {"block": False, "max_distance": 40})
    fit2 = ec.fit_decay(prof2, min_distance=5, max_distance=35)
    ok = fit.r_squared >= 0.95 and fit.eta > 0 and fit.eta > fit2.eta
    report(
        4,
        ok,
        f"eps=0.05 n=200: r2={fit.r_squared:.4f} >= 0.95, eta={fit.eta:.3f} > 0; "
        f"eta(0.05)={fit.eta:.3f} > eta(0.2)={fit2.eta:.3f}",
    )
    assert ok


def test_05_zero_velocity_contrast():
    # amplitude contrast at separation 20
    times = np.arange(0.0, 50.0 + 1e-9, 0.25)
    n, d = 60, 20
    clean = make_chain([1.0] * (n - 1), [0.0] * (n - 1), [0.0] * n)
    amp_clean = ec.dynamic_amplitude_sup(ham.diagonalize_A(clean), times)
    clean_val = float(np.mean(np.diagonal(amp_clean, offset=d)))
    ens = EnsembleSpec(n=n, mu_dist=constant(1.0), gamma_dist=constant(0.0),
                       nu_dist=uniform(-5.0, 5.0), base_seed=903, realizations=60)
    acc = 0.0
    for i in range(ens.realizations):
        amp = ec.dynamic_amplitude_sup(ham.diagonalize_A(sample_chain(ens, i)), times)
        acc += float(np.mean(np.diagonal(amp, offset=d)))
    dis_val = acc / ens.realizations
    ratio = clean_val / dis_val

    # commutator bound at n = 8 from the fitted block eigencorrelator
    n8 = 8
    ens8 = EnsembleSpec(n=n8, mu_dist=constant(1.0), gamma_dist=constant(0.0),
                        nu_dist=uniform(-5.0, 5.0), base_seed=905, realizations=60)
    prof8 = ensemble_mean(xp._real_eigencorrelator, ens8, {"block": True, "max_distance": None})
    fit8 = ec.fit_decay(prof8, min_distance=1)
    grid = np.arange(0.0, 20.0 + 1e-9, 0.5)
    pairs = [(1, 3), (1, 5), (2, 6), (1, 8)]
    sups = {p: [] for p in pairs}
    for i in range(4):
        for pair, sup in ed_commutator_sups(sample_chain(ens8, i), pairs, grid).items():
            sups[pair].append(sup)
    bound_ok = all(
        np.mean(vals) <= 2.0 * ec.lr_commutator_bound(fit8, j, k)
        for (j, k), vals in sups.items()
    )
    worst_pair = max(
        (np.mean(vals) / (2.0 * ec.lr_commutator_bound(fit8, j, k)), (j, k))
        for (j, k), vals in sups.items()
    )
    ok = ratio >= 10.0 and bound_ok
    report(
        5,
        ok,
        f"amplitude contrast at |j-k|=20: clean/disordered = {ratio:.0f} >= 10; "
        f"commutator bound (96C/(1-q)^2 form, slack 2) worst ratio {worst_pair[0]:.3f} at {worst_pair[1]}",
    )
    assert ok


def test_06_determinant_bound():
    rng = np.random.default_rng(106)
    n, mu, C = 40, 0.8, 1.0
    idx = np.arange(n)
    envelope = C * np.exp(-mu * np.abs(np.subtract.outer(idx, idx)))
    raw = rng.uniform(-1, 1, (n, n)) * envelope
    raw /= max(1.0, np.linalg.norm(raw, 2))
    mu0 = 0.3
    violations = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        x = tuple(sorted(rng.choice(n, m, replace=False) + 1))
        y = tuple(sorted(rng.choice(n, m, replace=False) + 1))
        D = qf.configuration_distance(x, y)
        det = multipoint_correlation(raw, x, y)
        if abs(det) > qf.sw_bound(0.0, mu0, mu, C, D):
            violations += 1
    ok = violations == 0
    report(6, ok, f"200 sampled configuration pairs, m <= 6: {violations} bound violations")
    assert ok


def test_07_area_law_flatness():
    ens = high_disorder_ensemble(60, 0.05, uniform(-1.0, 1.0), seed=700, realizations=40)
    stats = {10: [], 30: []}
    for i in range(ens.realizations):
        bog = ham.bogoliubov(sample_chain(ens, i))
        for ell in (10, 30):
            entropy, _ = ent.max_eigenstate_entropy(
                bog, ell, strategy="sampled", samples=200, seed=1000 + i
            )
            stats[ell].append(entropy)
    a10 = xp.aggregate(stats[10])
    a30 = xp.aggregate(stats[30])
    flat_static = abs(a10["mean"] - a30["mean"]) <= 2.0 * np.hypot(a10["stderr"], a30["stderr"])

    prof = ensemble_mean(xp._real_eigencorrelator, ens, {"block": True, "max_distance": 30})
    fitb = ec.fit_decay(prof, min_distance=2, max_distance=25)
    bound = ent.area_law_constant(fitb)
    below = a10["mean"] <= 2.0 * bound and a30["mean"] <= 2.0 * bound

    times = np.arange(0.0, 30.0 + 1e-9, 0.5)
    qs = {10: [], 30: []}
    for i in range(20):
        chain = sample_chain(ens, i)
        bog = ham.bogoliubov(chain)
        for ell in (10, 30):
            a_left = ([1, 0] * ((ell + 1) // 2))[:ell]
            a_right = ([0, 1] * ((60 - ell + 1) // 2))[: 60 - ell]
            series = ent.quench_entropy(chain, ell, a_left, a_right, times, bog)
            qs[ell].append(float(np.max(series)))
    q10 = xp.aggregate(qs[10])
    q30 = xp.aggregate(qs[30])
    flat_quench = abs(q10["mean"] - q30["mean"]) <= 2.0 * np.hypot(q10["stderr"], q30["stderr"])

    clean = make_chain([1.0] * 59, [0.0] * 59, [0.0] * 60)
    series = ent.quench_entropy(clean, 30, [1, 0] * 15, [0, 1] * 15, times, ham.bogoliubov(clean))
    growth = float(np.max(series) / np.mean(series[times <= 1.0]))

    ok = flat_static and below and flat_quench and growth >= 3.0
    report(
        7,
        ok,
        f"max-sampled entropy {a10['mean']:.3f}±{a10['stderr']:.3f} (l=10) vs "
        f"{a30['mean']:.3f}±{a30['stderr']:.3f} (l=30), flat={flat_static}, "
        f"<= 2x bound {2 * bound:.2f}: {below}; quench flat={flat_quench}; "
        f"clean growth x{growth:.1f} >= 3",
    )
    assert ok


@pytest.fixture(scope="module")
def fit_eps005_n100():
    ens = high_disorder_ensemble(100, 0.05, uniform(-1.0, 1.0), seed=800, realizations=300)
    prof = ensemble_mean(xp._real_eigencorrelator, ens, {"block": False, "max_distance": 40})
    return ens, ec.fit_decay(prof, min_distance=5, max_distance=35)


def test_08_transport(fit_eps005_n100):
    ens, fit = fit_eps005_n100
    s1 = [50]
    s2 = list(range(1, 31)) + list(range(70, 101))
    eta = np.zeros(100)
    eta[np.array(s2) - 1] = 1.0
    times = np.arange(0.0, 50.0 + 1e-9, 0.5)
    series = {
        observable: [r[1] for r in xp.map_realizations(
            xp._real_transport, ens,
            {"observable": observable, "s1": s1, "eta": eta, "times": times,
             "fit_max_distance": None}, workers=1)]
        for observable in ("particle", "energy")
    }
    d = tr.region_distance(s1, s2)
    sup_p = xp.aggregate(float(np.max(v)) for v in series["particle"])["mean"]
    bound_p = tr.particle_transport_bound(fit, d)
    sup_e = xp.aggregate(float(np.max(np.abs(v))) for v in series["energy"])["mean"]
    bound_e = tr.energy_transport_bound(fit, d, tr.matrix_norm_bound(ens))
    pass_p, pass_e = bool(sup_p <= 2.0 * bound_p), bool(sup_e <= 2.0 * bound_e)

    # anisotropic energy fluctuations flat across sizes (shared seed so
    # the disorder streams share prefixes)
    sups = {}
    means = {}
    for n in (40, 80, 160):
        ensn = EnsembleSpec(n=n, mu_dist=constant(0.05), gamma_dist=uniform(-0.5, 0.5),
                            nu_dist=uniform(0.5, 1.5), base_seed=900, realizations=100)
        timesn = np.arange(0.0, 30.0 + 1e-9, 0.5)
        results = xp.map_realizations(
            xp._real_energy_fluctuation, ensn,
            {"s1": list(range(1, 11)), "eta": np.ones(n), "times": timesn}, workers=1)
        sups[n] = xp.aggregate(float(np.max(np.abs(r[0]))) for r in results)
        means[n] = float(np.mean([r[1] for r in results]))
    flat = all(
        abs(sups[a]["mean"] - sups[b]["mean"])
        <= 2.0 * np.hypot(sups[a]["stderr"], sups[b]["stderr"])
        for a, b in ((40, 80), (40, 160), (80, 160))
    )
    grows = abs(means[160]) > 2.0 * abs(means[40])

    # trace formulas against the oracle at n = 6
    rng = np.random.default_rng(108)
    worst = 0.0
    for aniso in (False, True):
        chain = random_chain(rng, 6, anisotropic=aniso)
        eta6 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        rho0 = np.eye(1, dtype=complex)
        for e in eta6:
            rho0 = np.kron(rho0, np.diag([e, 1 - e]).astype(complex))
        evals, evecs = np.linalg.eigh(dense_H(chain))
        HS1 = region_H(chain, 1, 2)
        NS1 = region_number_op(6, [1])
        for t in (0.5, 2.0):
            phases = np.exp(-1j * t * np.subtract.outer(evals, evals))
            rho_t = evecs @ ((evecs.conj().T @ rho0 @ evecs) * phases) @ evecs.conj().T
            if aniso:
                free = tr.energy_fluctuation_series(chain, [1, 2], eta6, [0.0, t])[1]
                ed_val = np.real(np.trace(rho_t @ HS1)) - np.real(np.trace(rho0 @ HS1))
                worst = max(worst, abs(free - ed_val))
            else:
                sd = ham.diagonalize_A(chain)
                free_n = tr.particle_number_series(chain, [1], eta6, [t], sd)[0]
                worst = max(worst, abs(free_n - np.real(np.trace(rho_t @ NS1))))
                free_e = tr.energy_series_isotropic(chain, [1, 2], eta6, [t], sd)[0]
                ed_e = np.real(np.trace(rho_t @ HS1)) - (chain.nu[0] + chain.nu[1])
                worst = max(worst, abs(free_e - ed_e))

    ok = pass_p and pass_e and flat and grows and worst < 1e-8
    report(
        8,
        ok,
        f"particle sup {sup_p:.2e} <= 2x{bound_p:.2e}: {pass_p}; "
        f"energy sup {sup_e:.2e} <= 2x{bound_e:.2e}: {pass_e}; "
        f"fluctuation sup flat over n in (40,80,160): {flat} "
        f"({sups[40]['mean']:.1e}/{sups[80]['mean']:.1e}/{sups[160]['mean']:.1e}); "
        f"total energy grows: {grows}; trace formulas vs oracle {worst:.2e} < 1e-8",
    )
    assert ok


def test_09_fock_localization(fit_eps005_n200):
    ens, fit = fit_eps005_n200
    # certification at a quarter of the fitted rate: the construction
    # loses one factor 2 in the probability step and another in the
    # envelope, so half the rate is its aggressive edge
    eta_cert = 0.25 * fit.eta
    matched = certified = fallbacks = 0
    bound54_ok = True
    for i in range(ens.realizations):
        sd = ham.diagonalize_A(sample_chain(ens, i))
        ca = fock.locate_centers(sd, 1.25)
        matched += ca.matched
        fallbacks += ca.fallback_count
        cert = fock.certify_decay(fock.decay_envelope(sd, ca), eta=eta_cert, tau=0.5)
        certified += cert
        if cert and i < 50:
            centers = np.array(ca.centers)
            window = 200.0**0.5
            for k_modes in ((1, 2), (199, 200)):
                k_centers = centers[np.array(k_modes) - 1]
                for x in (1, 100, 200):
                    dmin = float(np.min(np.abs(k_centers - x)))
                    if dmin < window:
                        continue
                    occ = fock.occupation_number(sd.eigenvectors, k_modes, x)
                    if occ > occupation_bound(eta_cert, dmin) + 1e-12:
                        bound54_ok = False
    matched_frac = matched / ens.realizations
    certified_frac = certified / ens.realizations

    # exhaustive Parseval at n = 12
    rng = np.random.default_rng(109)
    ch12 = make_chain(rng.uniform(-1, 1, 11), np.zeros(11), rng.uniform(-1.5, 1.5, 12))
    U12 = ham.diagonalize_A(ch12).eigenvectors
    parseval_err = 0.0
    for r in (1, 3, 6):
        k = tuple(range(1, r + 1))
        total = sum(
            fock.slater_overlap(U12, k, j) ** 2
            for j in itertools.combinations(range(1, 13), r)
        )
        parseval_err = max(parseval_err, abs(total - 1.0))

    # overlap bound on the n = 120 ensemble
    ens2 = high_disorder_ensemble(120, 0.05, uniform(-1.0, 1.0), seed=902, realizations=100)
    prof2 = ensemble_mean(xp._real_eigencorrelator, ens2, {"block": False, "max_distance": 40})
    fit2 = ec.fit_decay(prof2, min_distance=5, max_distance=35)
    pairs = fock.sample_configuration_pairs(120, 0.4, 500, seed=11, r_max=5)
    eta2 = 0.5 * fit2.eta
    overlaps = np.stack([fock.pair_overlaps(ham.diagonalize_A(sample_chain(ens2, i)).eigenvectors, pairs)
                         for i in range(ens2.realizations)])
    fracs = fock.fock_localization_check(overlaps, pairs, 120, fit2, 0.4, 0.25 * eta2, eta=eta2)
    overlap_frac = float(np.mean(fracs))

    # occupation identity against the oracle at n = 6
    rng2 = np.random.default_rng(110)
    ch6 = random_chain(rng2, 6, anisotropic=False)
    sd6 = ham.diagonalize_A(ch6)
    evals, evecs = np.linalg.eigh(dense_H(ch6))
    occ_err = 0.0
    for r in (1, 2, 3):
        for k in itertools.combinations(range(1, 7), r):
            e_free = 2.0 * np.sum(sd6.eigenvalues[np.array(k) - 1]) + np.sum(ch6.nu)
            idx, flags = ed.match_eigenstates([e_free], evals)
            if flags[0]:
                continue
            psi = evecs[:, idx[0]]
            for x in range(1, 7):
                occ_ed = float(np.sum(ed.occupation_mask(6, x) * np.abs(psi) ** 2))
                occ_err = max(occ_err, abs(fock.occupation_number(sd6.eigenvectors, k, x) - occ_ed))

    ok = (
        matched_frac >= 0.99
        and certified_frac >= 0.95
        and parseval_err < 1e-9
        and overlap_frac >= 0.95
        and occ_err < 1e-8
        and bound54_ok
    )
    report(
        9,
        ok,
        f"matched {matched_frac:.3f} >= 0.99 (fallbacks {fallbacks}); certified {certified_frac:.3f} >= 0.95 "
        f"(eta = fit/4 = {eta_cert:.3f}); Parseval err {parseval_err:.1e} < 1e-9; "
        f"overlap pass {overlap_frac:.4f} >= 0.95; occupation vs oracle {occ_err:.2e} < 1e-8; "
        f"occupation bound holds: {bound54_ok}",
    )
    assert ok


def test_10_determinism(tmp_path):
    config = {
        "experiment": "eigencorrelator",
        "ensemble": {
            "n": 60,
            "mu": {"kind": "constant", "value": 0.05},
            "gamma": {"kind": "constant", "value": 0.0},
            "nu": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
            "base_seed": 910,
            "realizations": 25,
        },
        "params": {"min_distance": 3, "max_distance": 25},
        "output_dir": str(tmp_path / "out"),
    }
    xp.run(xp.parse_config(config))
    first_csv = (tmp_path / "out" / "eigencorrelator.csv").read_bytes()
    first_summary = (tmp_path / "out" / "summary.json").read_bytes()
    xp.run(xp.parse_config(config))
    ok = (
        (tmp_path / "out" / "eigencorrelator.csv").read_bytes() == first_csv
        and (tmp_path / "out" / "summary.json").read_bytes() == first_summary
    )
    report(10, ok, "re-run with identical config produced byte-identical artifacts")
    assert ok
