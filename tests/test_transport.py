import numpy as np
import pytest

from xylab import experiments as xp
from xylab import quasifree as qf
from xylab import transport as tr
from xylab.disorder import EnsembleSpec, constant, make_chain, uniform
from xylab.eigencorrelator import DecayFit
from xylab.hamiltonian import diagonalize_A

from conftest import (CORNERS, corner_chain, dense_H, energy_fluctuation_series_2n, heisenberg_evolve,
                      occupations, random_chain, region_H, region_number_op, trace_norm_inequality_gap)


def profile_density_matrix(eta):
    rho = np.eye(1, dtype=complex)
    for e in eta:
        rho = np.kron(rho, np.diag([e, 1 - e]).astype(complex))
    return rho


def test_region_distance():
    assert tr.region_distance([5], [1, 2]) == 3
    assert tr.region_distance([1, 4], [2, 6]) == 1
    assert tr._region_rows([2, 3, 4], 4, interval=True).tolist() == [1, 2, 3]
    assert tr._region_rows([1, 4], 4).tolist() == [0, 3]
    with pytest.raises(ValueError, match="interval region"):
        tr._region_rows([1, 4], 4, interval=True)


@pytest.mark.parametrize("series", ["particle", "energy", "fluctuation"])
def test_series_reject_sites_off_the_chain_and_profiles_of_the_wrong_length(rng, series):
    # row -1 would wrap to the last site; a short profile would fail in numpy
    n = 3
    ch = random_chain(rng, n, anisotropic=False)
    sd = diagonalize_A(ch)
    run = {"particle": lambda s1, eta: tr.particle_number_series(ch, s1, eta, [0.0, 1.0], sd),
           "energy": lambda s1, eta: tr.energy_series_isotropic(ch, s1, eta, [0.0, 1.0], sd),
           "fluctuation": lambda s1, eta: tr.energy_fluctuation_series(ch, s1, eta, [0.0, 1.0])}[series]
    for s1 in ([0], [3, 4], []):
        with pytest.raises(ValueError, match=r"^region must be nonempty sites in \[1, 3\], got "):
            run(s1, np.zeros(n))
    for eta in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1))):
        with pytest.raises(ValueError, match=r"^profile must have one entry per site, n = 3; got shape"):
            run([1], eta)
    with pytest.raises(ValueError, match=r"profile entries must lie in \[0, 1\]"):
        run([1], np.full(n, -0.5))


def test_mean_energy_validates_its_profile(rng):
    ch = random_chain(rng, 3)
    with pytest.raises(ValueError, match=r"^profile must have one entry per site, n = 3; got shape"):
        tr.mean_energy(ch, [1.0, 0.0])
    with pytest.raises(ValueError, match=r"profile entries must lie in \[0, 1\]"):
        tr.mean_energy(ch, [1.0, 0.0, 2.0])


def test_particle_number_initial_profile():
    eta = [0.2, 0.7, 0.0, 1.0]
    occ = occupations(qf.profile_gamma(eta))
    assert occ[0] + occ[1] == pytest.approx(0.9)
    assert occ[3] == pytest.approx(1.0)


def test_total_particle_number_conserved(rng):
    ch = random_chain(rng, 8, anisotropic=False)
    eta = np.zeros(8)
    eta[4:] = 1.0
    times = np.linspace(0.0, 5.0, 11)
    series = tr.particle_number_series(ch, list(range(1, 9)), eta, times, diagonalize_A(ch))
    assert np.max(np.abs(series - series[0])) < 1e-9


def test_decoupled_chain_no_transport():
    ch = make_chain([0.0] * 5, [0.0] * 5, [0.3, -1.0, 0.5, 2.0, -0.7, 1.1])
    eta = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    times = np.linspace(0.0, 4.0, 9)
    sd = diagonalize_A(ch)
    series = tr.particle_number_series(ch, [1], eta, times, sd)
    assert np.max(np.abs(series)) < 1e-12
    energy = tr.energy_series_isotropic(ch, [1, 2], eta, times, sd)
    assert np.max(np.abs(energy)) < 1e-12


def test_particle_number_matches_oracle(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=False)
    eta = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    rho0 = profile_density_matrix(eta)
    hd = np.linalg.eigh(dense_H(ch))
    NS1 = region_number_op(n, [1])
    sd = diagonalize_A(ch)
    for t in (0.5, 2.0):
        free = tr.particle_number_series(ch, [1], eta, [t], sd)[0]
        rt = heisenberg_evolve(rho0, hd, -t)  # Schroedinger picture
        assert abs(free - np.real(np.trace(rt @ NS1))) < 1e-8


def test_energy_in_region_matches_oracle(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=False)
    eta = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    s1 = [1, 2]
    rho0 = profile_density_matrix(eta)
    hd = np.linalg.eigh(dense_H(ch))
    HS1 = region_H(ch, 1, 2)
    e_ref = ch.nu[0] + ch.nu[1]
    sd = diagonalize_A(ch)
    assert tr.energy_series_isotropic(ch, s1, eta, [0.0], sd)[0] == pytest.approx(0.0, abs=1e-12)
    for t in (0.5, 2.0):
        free = tr.energy_series_isotropic(ch, s1, eta, [t], sd)[0]
        rt = heisenberg_evolve(rho0, hd, -t)  # Schroedinger picture
        ed_val = np.real(np.trace(rt @ HS1)) - e_ref
        assert abs(free - ed_val) < 1e-8


def test_energy_fluctuation_series_matches_oracle(rng):
    n = 6
    ch = random_chain(rng, n, anisotropic=True)
    eta = np.array([1.0, 0.0, 0.5, 1.0, 0.0, 1.0])
    s1 = [1, 2]
    rho0 = profile_density_matrix(eta)
    hd = np.linalg.eigh(dense_H(ch))
    HS1 = region_H(ch, 1, 2)
    e0 = np.real(np.trace(rho0 @ HS1))
    series = tr.energy_fluctuation_series(ch, s1, eta, [0.0, 0.5, 2.0])
    assert series[0] == pytest.approx(0.0, abs=1e-12)
    for i, t in enumerate((0.0, 0.5, 2.0)):
        rt = heisenberg_evolve(rho0, hd, -t)  # Schroedinger picture
        assert abs(series[i] - (np.real(np.trace(rt @ HS1)) - e0)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 7, 60])
@pytest.mark.parametrize("corner", CORNERS)
def test_energy_fluctuation_series_matches_the_2n_form(rng, n, corner):
    # the n-mode Majorana form against the profile trace over
    # M's 2n eigensystem, on a random, a 0/1 and the uniform profile
    ch = corner_chain(rng, n, corner)
    times = np.linspace(0.0, 6.0, 25)
    regions = {(1,), (n,), tuple(range(1, n + 1)), tuple(range(max(1, n // 3), max(1, n // 2) + 1))}
    for eta in (rng.uniform(0, 1, n), rng.integers(0, 2, n), np.full(n, 0.5)):
        for s1 in sorted(regions):
            got = tr.energy_fluctuation_series(ch, list(s1), eta, times)
            ref = energy_fluctuation_series_2n(ch, list(s1), eta, times)
            assert np.max(np.abs(got - ref)) <= 1e-12
    with pytest.raises(ValueError, match=r"profile entries must lie in \[0, 1\]"):
        tr.energy_fluctuation_series(ch, [1], np.full(n, 1.5), times)


def test_isotropic_reduction_of_anisotropic_formula(rng):
    ch = random_chain(rng, 7, anisotropic=False)
    eta = np.zeros(7)
    eta[5:] = 1.0
    s1 = [1, 2]
    times = np.linspace(0.0, 3.0, 7)
    iso = tr.energy_series_isotropic(ch, s1, eta, times, diagonalize_A(ch))
    aniso = tr.energy_fluctuation_series(ch, s1, eta, times)
    # both series start at 0 here (profile off S1), so they must agree
    assert np.max(np.abs(iso - aniso)) < 1e-9


def test_total_energy_conserved(rng):
    ch = random_chain(rng, 7)
    eta = np.ones(7) * 0.5
    s1 = list(range(1, 8))
    series = tr.energy_fluctuation_series(ch, s1, eta, np.linspace(0, 4, 9))
    assert np.max(np.abs(series)) < 1e-9


def test_mean_energy_formula(rng):
    ch = random_chain(rng, 5)
    eta = np.array([1.0, 0.0, 0.5, 1.0, 0.0])
    rho0 = profile_density_matrix(eta)
    H = dense_H(ch)
    assert tr.mean_energy(ch, eta) == pytest.approx(float(np.real(np.trace(rho0 @ H))), abs=1e-10)


def test_transport_bounds_formulas():
    fit = DecayFit(C=1.0, eta=np.log(2.0), r_squared=1.0, min_distance=1)
    # 2C e^{-eta d}/(1-e^{-eta})^2 at d=0: 2/(1/2)^2 = 8
    assert tr.particle_transport_bound(fit, 0) == pytest.approx(8.0)
    # 4CD e^{-eta d}/(1-e^{-eta})^2 with D = 7
    assert tr.energy_transport_bound(fit, 0, 7.0) == pytest.approx(112.0)
    for bad in (0.0, -0.3):
        flat = DecayFit(C=1.0, eta=bad, r_squared=1.0, min_distance=1)
        with pytest.raises(ValueError, match="positive decay rate"):
            tr.particle_transport_bound(flat, 2)
        with pytest.raises(ValueError, match="positive decay rate"):
            tr.energy_transport_bound(flat, 2, 7.0)
    ens = EnsembleSpec(n=4, mu_dist=uniform(-1, 1), gamma_dist=constant(0.0),
                       nu_dist=uniform(-5, 5), base_seed=0, realizations=1)
    assert tr.matrix_norm_bound(ens) == pytest.approx(7.0)


def test_particle_transport_check_small_ensemble(tmp_path):
    # the driver judges the mean sup of <N_S1> against the bound of the
    # ensemble's own eigencorrelator fit
    cfg = xp.parse_config({
        "experiment": "transport_particle",
        "ensemble": {"n": 30, "mu": {"kind": "constant", "value": 0.05},
                     "gamma": {"kind": "constant", "value": 0.0},
                     "nu": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
                     "base_seed": 11, "realizations": 5},
        "time_grid": {"T": 20.0, "dt": 0.5},
        "params": {"s1": [15], "s2": list(range(1, 6)) + list(range(25, 31)),
                   "fit_min_distance": 1, "fit_max_distance": 10},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["baseline"] == pytest.approx(0.0, abs=1e-12)
    assert payload["pass"]
    assert payload["sup"] < payload["bound"]


def test_trace_norm_inequality(rng):
    for _ in range(3):
        ch = random_chain(rng, 8, anisotropic=False)
        eta = np.zeros(8)
        eta[5:] = 1.0
        lhs, rhs = trace_norm_inequality_gap(
            ch, [1, 2], [6, 7, 8], eta, 1.3
        )
        assert lhs <= rhs + 1e-12
