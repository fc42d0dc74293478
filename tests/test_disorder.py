import numpy as np
import pytest

from xylab import disorder
from xylab.config import parse_config
from xylab.disorder import (
    Distribution,
    EnsembleSpec,
    constant,
    sample_chain,
    splitmix64,
    uniform,
)

from conftest import high_disorder_chain

# frozen regression fixture: first run of the implementation, checked thereafter
GOLDEN_NU_SEED42 = (
    0.9611887183020764,
    -3.3963461240142276,
    -3.3360219601854024,
    -4.519742045240437,
    4.8081400578932705,
    -2.6487753544185977,
    -2.2066088282282004,
    -3.4710665777350025,
)


def test_splitmix64_canonical_sequence():
    # first outputs of the reference generator seeded with 1234567
    s = 1234567
    out = []
    for _ in range(3):
        s = (s + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        out.append(splitmix64(s))
    assert out[0] == 0x599ED017FB08FC85
    assert out[1] == 0x2C73F08458540FA5
    assert out[2] == 0x883EBCE5A3F27C77


def test_constant_ensemble_trivial():
    spec = EnsembleSpec(
        n=5, mu_dist=constant(1.0), gamma_dist=constant(0.0),
        nu_dist=constant(0.0), base_seed=7, realizations=3,
    )
    for i in range(3):
        ch = sample_chain(spec, i)
        assert ch.mu == (1.0,) * 4
        assert ch.gamma == (0.0,) * 4
        assert ch.nu == (0.0,) * 5


def test_determinism_bitwise():
    spec = EnsembleSpec(
        n=6, mu_dist=uniform(-1, 1), gamma_dist=uniform(-0.5, 0.5),
        nu_dist=uniform(-5, 5), base_seed=123, realizations=10,
    )
    a = sample_chain(spec, 4)
    b = sample_chain(spec, 4)
    assert a == b  # bitwise-identical tuples
    assert sample_chain(spec, 5) != a


def test_golden_fixture_nu():
    spec = EnsembleSpec(
        n=8, mu_dist=constant(1.0), gamma_dist=constant(0.0),
        nu_dist=uniform(-5.0, 5.0), base_seed=42, realizations=4,
    )
    assert sample_chain(spec, 0).nu == GOLDEN_NU_SEED42


@pytest.mark.parametrize("n", [1, 2, 3, 60])
def test_one_stream_per_chain_equals_a_stream_per_field(n):
    # the reference draws each non-constant field from its own copy of the
    # realization's stream, skipping the positions the earlier fields took
    for fields in range(8):
        dists = [uniform(-0.7, 1.3) if fields >> b & 1 else constant(0.4) for b in range(3)]
        for base_seed in (0, 1, 1003, 2**64 - 1):
            spec = EnsembleSpec(n, *dists, base_seed=base_seed, realizations=3)
            for i in range(3):
                seed, offset, expected = splitmix64(base_seed ^ i), 0, []
                for dist, count in zip(dists, (n - 1, n - 1, n)):
                    if dist.kind == "constant":
                        expected.append((dist.value,) * count)
                        continue
                    u = disorder._uniform_stream(seed, offset + count)[offset:]
                    expected.append(tuple((dist.lo + (dist.hi - dist.lo) * u).tolist()))
                    offset += count
                chain = sample_chain(spec, i)
                assert (chain.mu, chain.gamma, chain.nu) == tuple(expected)


def test_index_out_of_range():
    spec = EnsembleSpec(
        n=4, mu_dist=constant(1.0), gamma_dist=constant(0.0),
        nu_dist=uniform(-1, 1), base_seed=0, realizations=2,
    )
    with pytest.raises(IndexError):
        sample_chain(spec, 2)
    with pytest.raises(IndexError):
        sample_chain(spec, -1)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution("uniform", lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        Distribution("uniform", lo=2.0, hi=-2.0)
    with pytest.raises(ValueError):
        Distribution("gaussian")
    with pytest.raises(ValueError):
        EnsembleSpec(n=0, mu_dist=constant(1), gamma_dist=constant(0),
                     nu_dist=constant(0), base_seed=0, realizations=1)


def test_high_disorder_chain():
    ch = high_disorder_chain(6, 0.0, uniform(-1, 1), seed=5, i=0)
    assert ch.mu == (0.0,) * 5  # decoupled
    ch2 = high_disorder_chain(6, 0.01, uniform(-1, 1), seed=5, i=0)
    assert ch2.mu == (0.01,) * 5
    # constants consume no draws: matched fields across eps
    assert ch.nu == ch2.nu
    with pytest.raises(ValueError):
        high_disorder_chain(6, -0.1, uniform(-1, 1), seed=5, i=0)


def test_json_round_trip():
    spec = EnsembleSpec(
        n=6, mu_dist=uniform(-1, 1), gamma_dist=constant(0.25),
        nu_dist=uniform(-5, 5), base_seed=99, realizations=12,
    )
    obj = {"n": 6, "mu": {"kind": "uniform", "lo": -1, "hi": 1},
           "gamma": {"kind": "constant", "value": 0.25},
           "nu": {"kind": "uniform", "lo": -5, "hi": 5}, "base_seed": 99, "realizations": 12}
    # entanglement_static reads gamma: its workers decompose M
    parsed = parse_config({"experiment": "entanglement_static", "ensemble": obj,
                           "params": {"ells": [3]}}).ensemble
    assert parsed == spec
    assert type(parsed.mu_dist.lo) is float and type(parsed.gamma_dist.value) is float


def test_uniform_moments_match():
    # empirical mean/variance over >= 1e4 realizations within 5 standard errors
    spec = EnsembleSpec(
        n=4, mu_dist=uniform(0.0, 2.0), gamma_dist=constant(0.0),
        nu_dist=uniform(-5.0, 5.0), base_seed=2024, realizations=10_000,
    )
    nus = np.array([sample_chain(spec, i).nu for i in range(spec.realizations)]).ravel()
    mus = np.array([sample_chain(spec, i).mu for i in range(spec.realizations)]).ravel()
    for vals, dist in ((nus, spec.nu_dist), (mus, spec.mu_dist)):
        m = vals.mean()
        se_mean = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(m - (dist.lo + dist.hi) / 2) <= 5 * se_mean
        v = vals.var(ddof=1)
        # standard error of the sample variance of a uniform: var(v) ~ (mu4 - var^2)/N
        mu4 = np.mean((vals - m) ** 4)
        se_var = np.sqrt((mu4 - v**2) / len(vals))
        assert abs(v - (dist.hi - dist.lo) ** 2 / 12) <= 5 * se_var


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        disorder.make_chain([1.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        disorder.make_chain([1.0], [0.0], [0.0, np.inf])
