import numpy as np
import pytest

from xylab import disorder
from xylab import ed_oracle as ed
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


def ed_commutator_sups(chain, pairs, times) -> dict:
    """sup over the time grid of ||[X_j(t), X_k]|| per pair (j, k), on the
    2^n oracle of the chain.  The X operators move into H's eigenbasis
    once; each step costs a phase product, the commutator P - P^* with
    P = X_j(t) X_k (both factors Hermitian) and the eigenvalues of the
    Hermitian i[X_j(t), X_k], whose largest modulus is the norm."""
    evals, evecs = ed.spectral(ed.build_H(chain))
    sites = {s for pair in pairs for s in pair}
    tilde = {s: evecs.conj().T @ ed.site_op(chain.n, s, "X") @ evecs for s in sites}
    sups = dict.fromkeys(pairs, 0.0)
    for t in times:
        phases = np.exp(1j * t * evals)
        rotation = np.outer(phases, phases.conj())
        for j, k in pairs:
            P = (rotation * tilde[j]) @ tilde[k]
            norm = float(np.max(np.abs(np.linalg.eigvalsh(1j * (P - P.conj().T)))))
            sups[(j, k)] = max(sups[(j, k)], norm)
    return sups


def random_chain(rng, n, anisotropic=True, nu_scale=1.5):
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1) if anisotropic else np.zeros(n - 1)
    nu = rng.uniform(-nu_scale, nu_scale, n)
    return disorder.make_chain(mu, gamma, nu)


@pytest.fixture
def chain_factory(rng):
    return lambda n, anisotropic=True: random_chain(rng, n, anisotropic)
