"""Disorder realizations of the chain parameters (mu_j, gamma_j, nu_j):
the distributions and ensembles, and the chains drawn from them.  The
module reads no JSON; config.parse_config builds its Distribution and
EnsembleSpec from a checked config.

Sampling is counter-based: realization i of an ensemble depends only on
(base_seed, i), so realizations can be generated in any order or in
parallel with identical results.  All randomness goes through an
in-package SplitMix64 stream, so fixtures are stable across platforms
and numpy versions.  Per-realization values reduce in index order
through aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: one avalanche round of a 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _uniform_stream(seed: int, count: int) -> np.ndarray:
    """`count` uniforms in [0, 1) from the SplitMix64 stream at `seed`.

    Draw k is the finalizer applied to seed + k * golden-gamma, which is
    exactly the state sequence of the splitmix64 generator.
    """
    if count == 0:
        return np.zeros(0)
    ks = np.arange(1, count + 1, dtype=np.uint64)
    x = np.uint64(seed & _MASK64) + ks * np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class Distribution:
    """Bounded single-parameter distribution: uniform(lo, hi) or constant."""

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind == "uniform":
            if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
                raise ValueError("uniform bounds must be finite")
            if not self.lo < self.hi:
                raise ValueError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "constant":
            if not np.isfinite(self.value):
                raise ValueError("constant value must be finite")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @property
    def abs_max(self) -> float:
        """Largest |value| the distribution can produce."""
        if self.kind == "uniform":
            return max(abs(self.lo), abs(self.hi))
        return abs(self.value)


def uniform(lo: float, hi: float) -> Distribution:
    return Distribution("uniform", lo=lo, hi=hi)


def constant(value: float) -> Distribution:
    return Distribution("constant", value=value)


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble of disordered chains: length, parameter distributions, seeding."""

    n: int
    mu_dist: Distribution
    gamma_dist: Distribution
    nu_dist: Distribution
    base_seed: int
    realizations: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError("base_seed must fit in 64 bits")


def aggregate(values) -> dict:
    """Reduction over the first axis (realizations), entry by entry, to
    {mean, stderr, count}; stderr is the sample standard deviation over
    sqrt(count).  Floats for 1-D input, arrays of the entry shape
    otherwise.  The realizations are moved to a contiguous last axis, so
    every entry is summed pairwise in index order, exactly as its own
    1-D column would be."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("aggregate needs at least one value")
    count = arr.shape[0]
    cols = np.ascontiguousarray(np.moveaxis(arr, 0, -1))
    mean = cols.mean(axis=-1)
    stderr = cols.std(axis=-1, ddof=1) / np.sqrt(count) if count > 1 else np.zeros_like(mean)
    if arr.ndim == 1:
        mean, stderr = float(mean), float(stderr)
    return {"mean": mean, "stderr": stderr, "count": count}


@dataclass(frozen=True)
class ChainSpec:
    """One disorder realization: couplings mu (n-1), anisotropies gamma (n-1),
    fields nu (n)."""

    n: int
    mu: tuple
    gamma: tuple
    nu: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.mu) != self.n - 1 or len(self.gamma) != self.n - 1:
            raise ValueError("mu and gamma must have length n-1")
        if len(self.nu) != self.n:
            raise ValueError("nu must have length n")
        for name, seq in (("mu", self.mu), ("gamma", self.gamma), ("nu", self.nu)):
            if seq and not np.all(np.isfinite(seq)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def isotropic(self) -> bool:
        return all(g == 0.0 for g in self.gamma)

    def mu_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=float)

    def gamma_array(self) -> np.ndarray:
        return np.asarray(self.gamma, dtype=float)

    def nu_array(self) -> np.ndarray:
        return np.asarray(self.nu, dtype=float)


def make_chain(mu, gamma, nu) -> ChainSpec:
    """ChainSpec from raw sequences (quench halves and test fixtures)."""
    nu = tuple(float(v) for v in nu)
    return ChainSpec(
        n=len(nu),
        mu=tuple(float(v) for v in mu),
        gamma=tuple(float(v) for v in gamma),
        nu=nu,
    )


def sample_chain(spec: EnsembleSpec, i: int) -> ChainSpec:
    """Draw realization i of the ensemble.

    The per-realization stream seed is splitmix64(base_seed XOR i);
    entries are drawn in order mu_1..mu_{n-1}, gamma_1..gamma_{n-1},
    nu_1..nu_n, from one stream as long as the non-constant entries.
    Constants consume no stream positions, so comparative ensembles (e.g.
    differing only in a constant eps) see identical random fields.
    """
    if not 0 <= i < spec.realizations:
        raise IndexError(f"realization index {i} outside [0, {spec.realizations})")
    n = spec.n
    fields = ((spec.mu_dist, n - 1), (spec.gamma_dist, n - 1), (spec.nu_dist, n))
    u = _uniform_stream(splitmix64(spec.base_seed ^ i),
                        sum(count for dist, count in fields if dist.kind == "uniform"))
    values, offset = [], 0
    for dist, count in fields:
        if dist.kind == "constant":
            values.append((dist.value,) * count)
        else:
            values.append(tuple((dist.lo + (dist.hi - dist.lo) * u[offset:offset + count]).tolist()))
            offset += count
    return ChainSpec(n, *values)
