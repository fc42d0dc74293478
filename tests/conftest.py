import numpy as np
import pytest

from xylab import disorder
from xylab import experiments as xp


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ensemble_mean(worker, ensemble, params, part=None):
    """Mean over the ensemble, by the library's one reduction, of an
    experiment worker xp._real_*; `part` picks one entry of a worker
    returning a tuple."""
    results = xp.map_realizations(worker, ensemble, params, workers=1)
    if part is not None:
        results = [r[part] for r in results]
    return disorder.aggregate(results)["mean"]


def random_chain(rng, n, anisotropic=True, nu_scale=1.5):
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1) if anisotropic else np.zeros(n - 1)
    nu = rng.uniform(-nu_scale, nu_scale, n)
    return disorder.make_chain(mu, gamma, nu)


@pytest.fixture
def chain_factory(rng):
    return lambda n, anisotropic=True: random_chain(rng, n, anisotropic)
