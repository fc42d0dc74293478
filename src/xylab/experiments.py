"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Each experiment maps a pure per-realization function over the ensemble
(optionally on a process pool, XYLAB_WORKERS overriding the config) and
reduces results in realization-index order with disorder.aggregate, so
outputs are byte identical across runs and worker counts.  Every
experiment makes one pass per realization: a worker samples and
decomposes its chain once and returns what it measures, and the driver
judges the measurements against the fitted constants.  Summaries echo
the semantic config (not output_dir or workers) with a content hash
and record pass/fail verdicts next to the fitted constants they used.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import ed_oracle as ed
from . import entanglement as ent
from . import transport as tr
from .disorder import ChainSpec, EnsembleSpec, aggregate, sample_chain, uniform
from .eigencorrelator import (
    DecayFit,
    clustering_sup,
    distance_profile,
    dynamic_amplitude_sup,
    eigencorrelator_table,
    fit_decay,
)
from .fock import (
    certify_decay,
    decay_envelope,
    fock_localization_check,
    locate_centers,
    occupation_number,
    pair_overlaps,
    sample_configuration_pairs,
)
from .hamiltonian import (
    BogoliubovDecomposition,
    all_many_body_energies,
    alpha_from_index,
    bogoliubov,
    build_A,
    build_M,
    diagonalize_A,
)
from .quasifree import eigenstate_gamma, evolve_gamma, thermal_gamma

class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass(frozen=True)
class TimeGrid:
    T: float
    dt: float

    def __post_init__(self):
        if not 0 < self.dt <= self.T:
            raise ConfigError(f"time_grid requires 0 < dt <= T, got dt={self.dt}, T={self.T}")

    def times(self) -> np.ndarray:
        steps = int(round(self.T / self.dt))
        return np.arange(steps + 1) * self.dt


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing required field {path}.{key}" if path else f"missing required field {key}")
    return obj[key]


def _integer(value, field: str, minimum: int, maximum: float = math.inf) -> int:
    """An integer config field: a JSON integer, not a bool, in [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        bounds = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{field} must be an integer {bounds}, got {value!r}")
    return value


def _integers(value, field: str, minimum: int, maximum: float = math.inf) -> list:
    """A nonempty JSON array of integers, each checked as by _integer."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{field} must be a nonempty array of integers, got {value!r}")
    return [_integer(v, field, minimum, maximum) for v in value]


def _number(value, field: str, minimum: float = -math.inf, maximum: float = math.inf) -> float:
    """A real config field: a finite JSON number (integer or float), not a
    bool or a string, in [minimum, maximum]."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not (finite and minimum <= value <= maximum):
        bounds = "" if (minimum, maximum) == (-math.inf, math.inf) else f" in [{minimum:g}, {maximum:g}]"
        raise ConfigError(f"{field} must be a finite number{bounds}, got {value!r}")
    return float(value)


def _parse_time_grid(obj: dict, path: str) -> TimeGrid:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object with T and dt")
    return TimeGrid(T=_number(_require(obj, "T", path), f"{path}.T"),
                    dt=_number(_require(obj, "dt", path), f"{path}.dt"))


# Integer params checked at parse time, per experiment: (field, minimum[, maximum]);
# the upper ends of the distance windows (_NULLABLE) may also be null, no limit.
_WINDOW = (("min_distance", 0), ("max_distance", 0))
_FIT_WINDOW = (("fit_min_distance", 0), ("fit_max_distance", 0))
_NULLABLE = ("max_distance", "fit_max_distance")
_COUNT_PARAMS = {
    "eigencorrelator": _WINDOW,
    "lr_bound": _WINDOW,
    "correlations": (*_WINDOW, ("state_seed", 0)),
    "entanglement_static": (("samples", 1), ("label_seed", 0), ("max_distance", 0), *_FIT_WINDOW),
    "transport_particle": _FIT_WINDOW,
    "transport_energy": _FIT_WINDOW,
    "fock": (("pair_count", 1), ("pair_seed", 0), ("r_max", 1), *_FIT_WINDOW),
    "oracle_check": (("n", 1, ed.MAX_SITES), ("seed", 0), ("realizations", 1)),
}

# Fit windows, per experiment: the field of the window's lower end, then the
# fields whose least value (with n - 1) is its upper end, as the drivers clip
# it: the profile stops at max_distance for the static entanglement.
_PROFILE_WINDOW = ("min_distance", "max_distance")
_FIT_WINDOWS = {
    "eigencorrelator": _PROFILE_WINDOW,
    "lr_bound": _PROFILE_WINDOW,
    "correlations": _PROFILE_WINDOW,
    "entanglement_static": ("fit_min_distance", "fit_max_distance", "max_distance"),
    "transport_particle": ("fit_min_distance", "fit_max_distance"),
    "transport_energy": ("fit_min_distance", "fit_max_distance"),
    "fock": ("fit_min_distance", "fit_max_distance"),
}

# Largest configuration cardinality of the fock pairs when params.r_max is absent.
_FOCK_R_MAX = 5

# Params with a fixed set of values, per experiment: (field, values); the
# first value is the default.
_CHOICES = {
    "entanglement_static": ("strategy", ("sampled", "exhaustive")),
    "transport_energy": ("variant", ("isotropic_bound", "anisotropic_flatness")),
}

# Chain sizes of the anisotropic energy flatness when params.sizes is absent.
_FLATNESS_SIZES = [40, 80, 160]


def _check_params(experiment: str, params: dict, ensemble: EnsembleSpec | None) -> None:
    """Reject bad params before any realization runs.  The cuts ells lie
    in [1, n - 1] and block is a bool.  Transport regions are arrays of
    sites on the chain (on its smallest size for the anisotropic energy
    flatness, which has no S2), the energy's S1 is an interval, S2 avoids
    the hull [min S1, max S1], and the initial occupations (eta_value, or
    the anisotropic eta_profile) lie in [0, 1]."""
    for key, *bounds in _COUNT_PARAMS.get(experiment, ()):
        if key in params and not (params[key] is None and key in _NULLABLE):
            _integer(params[key], f"params.{key}", *bounds)
    if experiment in ("entanglement_static", "entanglement_quench"):
        _integers(_require(params, "ells", "params"), "params.ells", 1, ensemble.n - 1)
    if experiment in _FIT_WINDOWS and params.get("variant") != "anisotropic_flatness":
        low, *highs = _FIT_WINDOWS[experiment]
        lo = params.get(low, 1)
        hi = min([ensemble.n - 1] + [params[k] for k in highs if params.get(k) is not None])
        if hi - lo + 1 < 3:
            fields = ", ".join(f"params.{k}" for k in (low, *highs))
            raise ConfigError(f"the fit window [{lo}, {hi}] of {fields} and ensemble.n = "
                              f"{ensemble.n} holds fewer than 3 distances")
    if experiment == "fock":
        r_max = params.get("r_max", _FOCK_R_MAX)
        if r_max > ensemble.n:
            raise ConfigError(f"params.r_max (default {_FOCK_R_MAX}) must be at most "
                              f"ensemble.n = {ensemble.n}, got {r_max}")
    if (experiment in ("eigencorrelator", "lr_bound")
            and not isinstance(params.get("block", False), bool)):
        raise ConfigError(f"params.block must be true or false, got {params['block']!r}")
    if experiment in _CHOICES:
        key, values = _CHOICES[experiment]
        if params.get(key, values[0]) not in values:
            raise ConfigError(f"params.{key} must be one of {', '.join(values)}; "
                              f"got {params[key]!r}")
    if (experiment == "entanglement_static" and params.get("strategy") == "exhaustive"
            and ensemble.n > ent.MAX_EXHAUSTIVE_SITES):
        raise ConfigError(f"params.strategy exhaustive needs ensemble.n <= "
                          f"{ent.MAX_EXHAUSTIVE_SITES}, got {ensemble.n}")
    if experiment not in ("transport_particle", "transport_energy"):
        return
    flatness = experiment == "transport_energy" and params.get("variant") == "anisotropic_flatness"
    sizes = _integers(params.get("sizes", _FLATNESS_SIZES), "params.sizes", 1) if flatness else ()
    n = min(sizes, default=ensemble.n)
    s1 = _integers(_require(params, "s1", "params"), "params.s1", 1, n)
    s2 = [] if flatness else _integers(_require(params, "s2", "params"), "params.s2", 1, n)
    if any(min(s1) <= x <= max(s1) for x in s2):
        raise ConfigError(f"params.s2 must avoid [{min(s1)}, {max(s1)}], the hull of params.s1; "
                          f"got {s2}")
    if experiment == "transport_energy" and max(s1) - min(s1) + 1 != len(set(s1)):
        raise ConfigError(f"params.s1 must be an interval of sites, got {s1}")
    if not flatness:
        _number(params.get("eta_value", 1.0), "params.eta_value", 0.0, 1.0)
        return
    profile = params.get("eta_profile", "ones")
    if profile in ("ones", "half"):
        return
    if not isinstance(profile, list):
        raise ConfigError(f'params.eta_profile must be "ones", "half" or an array, got {profile!r}')
    if {len(profile)} != set(sizes):
        raise ConfigError(f"params.eta_profile has length {len(profile)}; every entry of "
                          f"params.sizes must equal it, got {sizes}")
    for value in profile:
        _number(value, "params.eta_profile entry", 0.0, 1.0)


@dataclass
class ExperimentConfig:
    experiment: str
    ensemble: EnsembleSpec
    time_grid: TimeGrid | None
    params: dict
    output_dir: str
    workers: int
    semantic: dict


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    experiment = _require(obj, "experiment", "")
    if experiment not in _RUNNERS:
        raise ConfigError(
            f"experiment must be one of {', '.join(_RUNNERS)}; got {experiment!r}"
        )
    ensemble = None
    if experiment != "oracle_check":
        ens_obj = _require(obj, "ensemble", "")
        if isinstance(ens_obj, dict):
            for key, minimum in (("n", 1), ("realizations", 1), ("base_seed", 0)):
                if key in ens_obj:
                    _integer(ens_obj[key], f"ensemble.{key}", minimum)
            for name in ("mu", "gamma", "nu"):
                dist = ens_obj.get(name)
                kind = dist.get("kind") if isinstance(dist, dict) else None
                for key in {"uniform": ("lo", "hi"), "constant": ("value",)}.get(kind, ()):
                    if key in dist:
                        _number(dist[key], f"ensemble.{name}.{key}")
        try:
            ensemble = EnsembleSpec.from_json(ens_obj)
        except (KeyError, TypeError, ValueError) as exc:
            field = exc.args[0] if isinstance(exc, KeyError) else exc
            raise ConfigError(f"ensemble is malformed: {field}") from exc
    grid = None
    if "time_grid" in obj:
        grid = _parse_time_grid(obj["time_grid"], "time_grid")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    _check_params(experiment, params, ensemble)
    workers = _integer(obj.get("workers", 1), "workers", 1)
    output_dir = obj.get("output_dir", ".")
    return ExperimentConfig(
        experiment=experiment,
        ensemble=ensemble,
        time_grid=grid,
        params=params,
        output_dir=str(output_dir),
        workers=workers,
        semantic=_semantic(obj),
    )


def _semantic(obj: dict) -> dict:
    """The config fields that decide what is computed; output_dir and
    workers change where and how fast, not what."""
    return {k: obj[k] for k in ("experiment", "ensemble", "params", "time_grid") if k in obj}


def config_hash(obj: dict) -> str:
    """Hash of the semantic part of a config: two runs with equal hashes
    compute the same science."""
    return hashlib.sha256(json.dumps(_semantic(obj), sort_keys=True).encode()).hexdigest()[:16]


def effective_workers(config_workers: int) -> int:
    """The config's worker count, or XYLAB_WORKERS when that is set; the
    variable must be an integer >= 1."""
    env = os.environ.get("XYLAB_WORKERS")
    if not env:
        return config_workers
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"XYLAB_WORKERS must be an integer >= 1, got {env!r}")
    return workers


def pool_size(requested: int, realizations: int, cpus: int | None) -> int:
    """Processes worth starting: no more than the requested workers, the
    realizations to share out, or the CPUs (None counts as one)."""
    return max(1, min(requested, realizations, cpus or 1))


def map_realizations(fn, ensemble: EnsembleSpec, params: dict, workers: int) -> list:
    """fn(ensemble, i, params) for i = 0..realizations-1, results in
    index order regardless of completion order."""
    indices = range(ensemble.realizations)
    workers = pool_size(workers, ensemble.realizations, os.cpu_count())
    if workers <= 1:
        return [fn(ensemble, i, params) for i in indices]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, ensemble, i, params) for i in indices]
        return [f.result() for f in futures]


def write_csv(path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_json(path, obj) -> None:
    """The one JSON artifact format: sorted keys, two-space indent and a
    trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary(path, config: ExperimentConfig, payload: dict) -> None:
    write_json(path, {"experiment": config.experiment, "config": config.semantic,
                      "config_hash": config_hash(config.semantic), **payload})


# ---------------------------------------------------------------------------
# per-realization workers (module level for picklability)


def _decompose(chain, block: bool):
    """M's eigensystem, read off the Bogoliubov W, for block tables; A's
    eigensystem otherwise."""
    return bogoliubov(chain).spectral if block else diagonalize_A(chain)


def _real_eigencorrelator(ensemble, i, params):
    block = params.get("block", False)
    sd = _decompose(sample_chain(ensemble, i), block)
    return distance_profile(eigencorrelator_table(sd, block=block), params.get("max_distance"))


def _real_amplitude(ensemble, i, params):
    block = params.get("block", False)
    sd = _decompose(sample_chain(ensemble, i), block)
    times = np.asarray(params["times"])
    amp = dynamic_amplitude_sup(sd, times, block=block)
    q = eigencorrelator_table(sd, block=block)
    violation = float(np.max(amp - q))
    return distance_profile(amp, params.get("max_distance")), violation


def _real_clustering(ensemble, i, params):
    chain = sample_chain(ensemble, i)
    sd = diagonalize_A(chain)
    rng = np.random.default_rng(params.get("state_seed", 0) + i)
    occ = rng.integers(0, 2, size=chain.n)
    # only the pairs within max_distance reach the profile
    sup = clustering_sup(sd, occ, params["times"], params.get("max_distance"))
    return distance_profile(sup, params.get("max_distance"))


def _real_entanglement_static(ensemble, i, params):
    """(entropy, ps_bound) per cut and the block eigencorrelator profile
    that feeds the area-law fit, from one sample of the chain."""
    chain = sample_chain(ensemble, i)
    bog = bogoliubov(chain)
    out = []
    for ell in params["ells"]:
        rec = ent.max_eigenstate_entropy(
            bog,
            ent.Cut(ell),
            strategy=params.get("strategy", "sampled"),
            samples=params.get("samples", 200),
            seed=params.get("label_seed", 0) + i,
        )
        out.append((rec.entropy, rec.ps_bound))
    table = eigencorrelator_table(bog.spectral, block=True)
    return out, distance_profile(table, params.get("max_distance"))


def _real_quench(ensemble, i, params):
    chain = sample_chain(ensemble, i)
    times = np.asarray(params["times"])
    sd = bogoliubov(chain).spectral
    sups = []
    for ell in params["ells"]:
        series = ent.quench_entropy(
            chain,
            ent.Cut(ell),
            np.zeros(ell, dtype=int),
            np.zeros(chain.n - ell, dtype=int),
            times,
            sd_M=sd,
        )
        sups.append(float(np.max(series)))
    return sups


def _real_transport(ensemble, i, params):
    """One decomposition of the chain serves both the eigencorrelator
    profile that feeds the fit and the transport series."""
    chain = sample_chain(ensemble, i)
    sd = diagonalize_A(chain)
    profile = distance_profile(eigencorrelator_table(sd), params.get("fit_max_distance"))
    series_of = {"particle": tr.particle_number_series, "energy": tr.energy_series_isotropic}
    series = series_of[params["observable"]](chain, params["s1"], params["eta"], params["times"], sd=sd)
    return profile, series


def _real_energy_fluctuation(ensemble, i, params):
    """The anisotropic energy-fluctuation series and the mean energy of
    one sample of the chain."""
    chain = sample_chain(ensemble, i)
    eta = params["eta"]
    return (tr.energy_fluctuation_series(chain, params["s1"], eta, params["times"]),
            tr.mean_energy(chain, eta))


def _real_fock(ensemble, i, params):
    """What fock measures of one decomposition of the chain, none of it
    dependent on the fit: the eigencorrelator profile that feeds the fit,
    the center matching, the decay envelope around the centers and the
    overlaps of the sampled pairs."""
    sd = diagonalize_A(sample_chain(ensemble, i))
    centers = locate_centers(sd, params["alpha"])
    return (distance_profile(eigencorrelator_table(sd), params.get("fit_max_distance")),
            centers.matched, centers.fallback_count, decay_envelope(sd, centers),
            pair_overlaps(sd.eigenvectors, params["pairs"]))


# ---------------------------------------------------------------------------
# experiment drivers


def _fit_block(fit: DecayFit) -> dict:
    return {"C": fit.C, "eta": fit.eta, "r_squared": fit.r_squared}


def _write_table(path, key: str, labels, statistics: tuple, agg: dict, strategy: str) -> None:
    """The labelled table (key, statistic, mean, stderr, count, strategy)
    of an aggregate whose entries are indexed by (label, statistic): one
    row per label and statistic, in that order."""
    shape = (len(labels), len(statistics))
    mean, stderr = np.reshape(agg["mean"], shape), np.reshape(agg["stderr"], shape)
    write_csv(path, [key, "statistic", "mean", "stderr", "count", "strategy"],
              [(label, stat, mean[i, j], stderr[i, j], agg["count"], strategy)
               for i, label in enumerate(labels) for j, stat in enumerate(statistics)])


def _flat_within_2sigma(stats) -> bool:
    """The flatness verdict over (mean, stderr) pairs: no two means differ
    by more than twice their combined standard error."""
    return not any(abs(ma - mb) > 2.0 * np.hypot(sa, sb)
                   for (ma, sa), (mb, sb) in combinations(stats, 2))


def _run_profile(config: ExperimentConfig, outdir: Path, worker, csv_name: str,
                 profile_of=lambda r: r) -> tuple:
    """Map worker over the ensemble (with the time grid as params.times),
    write the per-distance statistics of the realizations' profiles to
    csv_name and fit the decay of their mean.  Returns the fit, its
    summary block and the worker results."""
    p = dict(config.params)
    if config.time_grid is not None:
        p["times"] = config.time_grid.times()
    results = map_realizations(worker, config.ensemble, p, config.workers)
    agg = aggregate(profile_of(r) for r in results)
    write_csv(outdir / csv_name, ["distance", "mean", "stderr", "count"],
              ((d, m, s, agg["count"]) for d, (m, s) in enumerate(zip(agg["mean"], agg["stderr"]))))
    fit = fit_decay(agg["mean"], p.get("min_distance", 1), p.get("max_distance"))
    return fit, {**_fit_block(fit), "min_distance": fit.min_distance}, results


def run_eigencorrelator(config: ExperimentConfig, outdir: Path) -> dict:
    fit, block, _ = _run_profile(config, outdir, _real_eigencorrelator, "eigencorrelator.csv")
    return {
        "fit": block,
        "verdicts": {
            "log_linear": bool(fit.r_squared >= config.params.get("r2_min", 0.95)),
            "eta_positive": bool(fit.eta > 0),
        },
    }


def run_lr_bound(config: ExperimentConfig, outdir: Path) -> dict:
    fit, block, results = _run_profile(config, outdir, _real_amplitude, "amplitude.csv",
                                       profile_of=lambda r: r[0])
    max_violation = max(r[1] for r in results)
    return {
        "time_grid": {"T": config.time_grid.T, "dt": config.time_grid.dt},
        "fit": block,
        "max_amplitude_over_eigencorrelator": max_violation,
        "verdicts": {
            "dominated_by_eigencorrelator": bool(max_violation <= 1e-9),
            "eta_positive": bool(fit.eta > 0),
        },
    }


def run_correlations(config: ExperimentConfig, outdir: Path) -> dict:
    fit, block, _ = _run_profile(config, outdir, _real_clustering, "clustering.csv")
    return {"fit": block, "verdicts": {"clustering_rate_positive": bool(fit.eta > 0)}}


def _mean_fit(profiles: list, p: dict) -> DecayFit:
    """Eigencorrelator fit of the mean of per-realization profiles over the
    params' fit window, used for bound checks."""
    return fit_decay(aggregate(profiles)["mean"], p.get("fit_min_distance", 1),
                     p.get("fit_max_distance"))


def run_entanglement_static(config: ExperimentConfig, outdir: Path) -> dict:
    """One pass over the ensemble yields the entropies, the ps_bounds and
    the block eigencorrelator profiles for the area-law fit."""
    p = config.params
    per_real = map_realizations(_real_entanglement_static, config.ensemble, p, config.workers)
    agg = aggregate(r[0] for r in per_real)  # entry (ell, [entropy, ps_bound])
    _write_table(outdir / "entanglement_static.csv", "ell", p["ells"], ("max_entropy", "ps_bound"),
                 agg, p.get("strategy", "sampled"))
    fit = _mean_fit([r[1] for r in per_real], p)
    bound = ent.area_law_constant(fit)
    entropies = agg["mean"][:, 0]
    return {
        "fit": _fit_block(fit),
        "area_law_bound": bound,
        "verdicts": {"flat_in_ell": _flat_within_2sigma(zip(entropies, agg["stderr"][:, 0])),
                     "below_fitted_bound": bool(np.all(entropies <= p.get("slack", 2.0) * bound))},
    }


def run_entanglement_quench(config: ExperimentConfig, outdir: Path) -> dict:
    p = dict(config.params)
    p["times"] = config.time_grid.times()
    agg = aggregate(map_realizations(_real_quench, config.ensemble, p, config.workers))
    _write_table(outdir / "entanglement_quench.csv", "ell", p["ells"], ("sup_entropy",), agg,
                 "vacuum_pair")
    return {"verdicts": {"flat_in_ell": _flat_within_2sigma(zip(agg["mean"], agg["stderr"]))}}


def _run_transport_isotropic(config: ExperimentConfig, outdir: Path, observable: str) -> dict:
    """Particle or isotropic energy transport: one worker per realization
    returns both the profile for the fit and the series, and the driver
    judges the mean supremum (of the particle numbers, or of the energy
    magnitudes) against the bound at d = dist(S1, S2)."""
    p = config.params
    s1 = tr.Region.of(p["s1"])
    s2 = tr.Region.of(p["s2"])
    eta = np.zeros(config.ensemble.n)
    eta[np.array(s2.sites) - 1] = p.get("eta_value", 1.0)
    times = config.time_grid.times()
    wp = {"observable": observable, "s1": s1, "eta": eta, "times": times,
          "fit_max_distance": p.get("fit_max_distance")}
    results = map_realizations(_real_transport, config.ensemble, wp, config.workers)
    fit = _mean_fit([r[0] for r in results], p)
    series = [r[1] for r in results]
    d = tr.region_distance(s1, s2)
    if observable == "particle":
        bound = tr.particle_transport_bound(fit, d)
        sups = aggregate(float(np.max(v)) for v in series)
    else:
        bound = tr.energy_transport_bound(fit, d, tr.matrix_norm_bound(config.ensemble))
        sups = aggregate(float(np.max(np.abs(v))) for v in series)
    mean = aggregate(series)["mean"]
    passed = bool(sups["mean"] <= p.get("slack", 2.0) * bound)
    write_csv(outdir / f"{observable}_transport.csv", ["t", "value"],
              zip(times.tolist(), mean.tolist()))
    return {
        "fit": _fit_block(fit),
        "baseline": float(mean[0]),
        "sup": sups["mean"],
        "bound": bound,
        "pass": passed,
        "verdicts": {f"{observable}_bound": passed},
    }


def run_transport_particle(config: ExperimentConfig, outdir: Path) -> dict:
    return _run_transport_isotropic(config, outdir, "particle")


def run_transport_energy(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.params
    if p.get("variant", "isotropic_bound") == "isotropic_bound":
        return _run_transport_isotropic(config, outdir, "energy")
    # one ensemble per size; one worker per realization samples its chain once
    sizes = p.get("sizes", _FLATNESS_SIZES)
    s1 = tr.Region.of(p["s1"])
    times = config.time_grid.times()
    base = config.ensemble
    eta = p.get("eta_profile", "ones")  # "ones", "half" or one entry per site, checked at parse time
    eta = {"ones": 1.0, "half": 0.5}[eta] if isinstance(eta, str) else np.asarray(eta, dtype=float)
    per_size = [
        map_realizations(_real_energy_fluctuation, replace(base, n=n, base_seed=base.base_seed + n),
                         {"s1": s1, "eta": np.full(n, eta), "times": times}, config.workers)
        for n in sizes
    ]
    # realization-major stacks: entry (i, k) is realization i at sizes[k]
    sups = aggregate(np.transpose([[np.max(np.abs(s)) for s, _ in res] for res in per_size]))
    energies = aggregate(np.transpose([[e for _, e in res] for res in per_size]))["mean"].tolist()
    _write_table(outdir / "energy_fluctuation.csv", "n", sizes, ("sup_energy_fluctuation",), sups,
                 "profile")
    grows = abs(energies[-1]) > 2.0 * abs(energies[0])
    return {
        "mean_sup_by_n": dict(zip(map(str, sizes), sups["mean"].tolist())),
        "stderr_sup_by_n": dict(zip(map(str, sizes), sups["stderr"].tolist())),
        "mean_energy_by_n": dict(zip(map(str, sizes), energies)),
        "verdicts": {"flat_in_n": _flat_within_2sigma(zip(sups["mean"], sups["stderr"])),
                     "total_energy_grows": bool(grows)},
    }


def run_fock(config: ExperimentConfig, outdir: Path) -> dict:
    """One pass: the workers measure, and the driver judges the stacked
    envelopes and overlaps against the thresholds of the fit."""
    p = config.params
    n = config.ensemble.n
    tau = p.get("tau", 0.5)
    alpha = p.get("alpha", 1.25)
    pairs = sample_configuration_pairs(n, tau, p.get("pair_count", 100),
                                       seed=p.get("pair_seed", 0), r_max=p.get("r_max", _FOCK_R_MAX))
    measured = map_realizations(
        _real_fock, config.ensemble,
        {"alpha": alpha, "pairs": pairs, "fit_max_distance": p.get("fit_max_distance")},
        config.workers)
    profiles, matched, fallbacks, envelopes, overlaps = zip(*measured)
    fit = _mean_fit(profiles, p)
    eta = p.get("eta", 0.5 * fit.eta)
    eta0 = p.get("eta0", 0.25 * eta)
    certified = certify_decay(np.stack(envelopes), eta, tau)
    passed = fock_localization_check(np.stack(overlaps), pairs, n, fit, tau, eta0, eta=eta)
    agg = aggregate(zip(matched, fallbacks, certified, passed))
    matched, _, certified, passed = agg["mean"].tolist()
    payload = {
        "alpha": alpha,
        "tau": tau,
        "eta": eta,
        "matched_fraction": matched,
        "certified_fraction": certified,
        "overlap_pass_fraction": passed,
        "fallback_total": sum(fallbacks),
    }
    write_json(outdir / "fock_report.json", payload)
    payload["fit"] = _fit_block(fit)
    payload["verdicts"] = {
        "matching": bool(payload["matched_fraction"] >= p.get("matched_min", 0.99)),
        "certification": bool(payload["certified_fraction"] >= p.get("certified_min", 0.95)),
        "overlap_bound": bool(payload["overlap_pass_fraction"] >= p.get("overlap_min", 0.95)),
    }
    return payload


# ---------------------------------------------------------------------------
# oracle identity suite


def oracle_suite(n: int = 6, seed: int = 42, realizations: int = 5) -> dict:
    """Brute-force identity checks on small random chains; returns one
    boolean per check plus the worst deviations seen.  The Jordan-Wigner
    tables are built once; per realization, H, its eigensystem, the
    isotropic H and the Bogoliubov decomposition are built once and shared
    by the checks."""
    if n > ed.MAX_SITES:
        raise ValueError(f"oracle suite capped at n={ed.MAX_SITES}")
    ens = EnsembleSpec(n=n, mu_dist=uniform(-1.0, 1.0), gamma_dist=uniform(-0.7, 0.7),
                       nu_dist=uniform(-1.5, 1.5), base_seed=seed, realizations=realizations)
    jw = ed.all_c(n)
    errors = []  # one dict of errors per realization
    for i in range(realizations):
        chain = sample_chain(ens, i)
        iso = ChainSpec(n=n, mu=chain.mu, gamma=(0.0,) * (n - 1), nu=chain.nu,
                        realization_index=i)
        H = ed.build_H(chain)
        eig = ed.spectral(H)
        H_iso = ed.build_H(iso)
        bog = bogoliubov(chain)
        X_iso = np.zeros((2 * n, 2 * n))
        X_iso[::2, ::2] = 2.0 * build_A(iso)
        errors.append({
            "spectrum": float(np.max(np.abs(np.sort(all_many_body_energies(bog)) - eig[0]))),
            # H = sum_pq M_pq o_p^* o_q and H_iso = sum(nu) + 2 sum_jk A_jk c_j^* c_k,
            # 2A sitting on the (c_j^*, c_k) entries of the interleaved X_iso
            "quadratic_identity": float(np.max(np.abs(H - _quadratic_form(build_M(chain), jw)))),
            "isotropic_identity": float(np.max(np.abs(
                H_iso - np.sum(iso.nu) * np.eye(2**n) - _quadratic_form(X_iso, jw)))),
            "occupation": _check_occupation(iso, H_iso),
            **_check_states(bog, eig, jw),
        })
    worst = {"car": _check_car(jw), **{k: max(e[k] for e in errors) for k in errors[0]}}
    tolerances = {
        "spectrum": 1e-8, "quadratic_identity": 1e-10, "isotropic_identity": 1e-10,
        "car": 1e-12, "eigenstate_gamma": 1e-8, "thermal_gamma": 1e-8,
        "entropy": 1e-7, "occupation": 1e-8, "evolved_gamma": 1e-8,
    }
    checks = {k: bool(worst[k] <= tolerances[k]) for k in worst}
    return {
        "n": n, "seed": seed, "realizations": realizations,
        "max_errors": worst, "tolerances": tolerances, "checks": checks,
        "all_pass": bool(all(checks.values())),
    }


def _quadratic_form(X: np.ndarray, jw: ed.JordanWigner) -> np.ndarray:
    """sum_pq X_pq o_p^* o_q as a dense real matrix: each nonzero X_pq
    scatters the 2^n entries of o_{p^1} o_q (o_p^* = o_{p^1})."""
    dim = jw.tgt.shape[1]
    out = np.zeros((dim, dim))
    for p, q in zip(*np.nonzero(X)):
        tgt, sgn = jw.product(p ^ 1, q)
        out[tgt, np.arange(dim)] += X[p, q] * sgn
    return out


def _check_car(jw: ed.JordanWigner) -> float:
    """Worst entry of {o_p, o_q} - delta_{q, p^1} over the interleaved
    pairs p <= q: {c_j, c_k^*} = delta_jk, {c_j, c_k} = 0 and adjoints.
    Column s holds o_p o_q e_s, o_q o_p e_s and -delta e_s at up to three
    targets; each target's entry sums the terms that land on it."""
    m, dim = jw.tgt.shape
    s = np.arange(dim)
    worst = 0.0
    for p in range(m):
        qs = np.arange(p, m)
        t1, v1 = jw.product(p, qs)
        t2, v2 = jw.product(qs, p)
        d = np.where(qs == p ^ 1, -1.0, 0.0)[:, None]
        for t in (t1, t2, s):
            entry = v1 * (t1 == t) + v2 * (t2 == t) + d * (s == t)
            worst = max(worst, float(np.max(np.abs(entry))))
    return worst


def _check_states(bog: BogoliubovDecomposition, eig: tuple, jw: ed.JordanWigner) -> dict:
    """Errors of the eigenstate, evolved and thermal correlation matrices
    and of the cut entropies (every cut 1 <= ell < n of (1, n // 2, n - 1))
    of the free-fermion layer against the oracle eigensystem
    eig = (evals, evecs) of H."""
    n = bog.n
    evals, evecs = eig
    labels = [0, 1, (1 << n) - 1] if n > 3 else list(range(2**n))
    idxs, flags = ed.match_eigenstates(all_many_body_energies(bog)[labels], evals)
    sdM = bog.spectral
    g_err = s_err = e_err = 0.0
    cuts = [ell for ell in (1, n // 2, n - 1) if 1 <= ell < n]
    for a, k, degenerate in zip(labels, idxs, flags):
        if degenerate:
            continue
        alpha = alpha_from_index(a, n)
        cm = eigenstate_gamma(bog, alpha)
        psi = evecs[:, k]
        g_ed = ed.correlation_blocks(psi, jw)
        g_err = max(g_err, float(np.max(np.abs(cm.gamma - g_ed))))
        for ell in cuts:
            s_free = ent.entropy_from_gamma(cm, ent.Cut(ell))
            # both sides of a pure state's cut share one spectrum: reduce onto
            # the smaller side, swapping psi's two blocks when that is the right
            small = psi if 2 * ell <= n else psi.reshape(2**ell, -1).T.ravel()
            s_ed = ed.von_neumann_entropy(ed.reduced_density(small, n, min(ell, n - ell)))
            s_err = max(s_err, abs(s_free - s_ed))
        cmt = evolve_gamma(cm, sdM, 0.7)
        psit = ed.schroedinger_evolve_state(psi, eig, 0.7)
        e_err = max(e_err, float(np.max(np.abs(cmt.gamma - ed.correlation_blocks(psit, jw)))))
    beta = 0.8
    g_th = thermal_gamma(sdM, beta)
    rho = ed.thermal_state(eig, beta)
    t_err = float(np.max(np.abs(g_th.gamma - ed.correlation_blocks(rho, jw))))
    return {"eigenstate_gamma": g_err, "thermal_gamma": t_err, "entropy": s_err,
            "evolved_gamma": e_err}


def _check_occupation(chain: ChainSpec, H: np.ndarray) -> float:
    """Site occupations of mode configurations vs the oracle's <n_x>
    (|psi|^2 on the bit mask of x), on the particle-conserving chain H."""
    n = chain.n
    evals, evecs = ed.spectral(H)
    sdA = diagonalize_A(chain)
    masks = np.array([ed.occupation_mask(n, x) for x in range(1, n + 1)])
    o_err = 0.0
    labels = [1, 3, (1 << n) - 1] if n > 3 else list(range(1, 2**n))
    for a in labels:
        k_modes = tuple(int(j) + 1 for j in np.nonzero(alpha_from_index(a, n))[0])
        e_free = 2.0 * np.sum(sdA.eigenvalues[np.array(k_modes) - 1]) + np.sum(chain.nu)
        j_idx, j_flags = ed.match_eigenstates([e_free], evals)
        if j_flags[0]:
            continue
        occ_ed = masks @ np.abs(evecs[:, j_idx[0]]) ** 2
        for x in range(1, n + 1):
            occ_free = occupation_number(sdA.eigenvectors, k_modes, x)
            o_err = max(o_err, abs(occ_free - occ_ed[x - 1]))
    return o_err


def run_oracle_check(config: ExperimentConfig, outdir: Path) -> dict:
    # parse_config checked the params; absent ones take oracle_suite's defaults
    result = oracle_suite(**{k: v for k, v in config.params.items()
                             if k in ("n", "seed", "realizations")})
    write_json(outdir / "oracle_check.json", result)
    result["verdicts"] = dict(result["checks"])
    return result


# Each experiment's driver and whether it needs a time_grid.
_RUNNERS = {
    "eigencorrelator": (run_eigencorrelator, False),
    "lr_bound": (run_lr_bound, True),
    "correlations": (run_correlations, True),
    "entanglement_static": (run_entanglement_static, False),
    "entanglement_quench": (run_entanglement_quench, True),
    "transport_particle": (run_transport_particle, True),
    "transport_energy": (run_transport_energy, True),
    "fock": (run_fock, False),
    "oracle_check": (run_oracle_check, False),
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; writes artifacts and the summary JSON into
    config.output_dir and returns the summary payload."""
    driver, needs_grid = _RUNNERS[config.experiment]
    if needs_grid and config.time_grid is None:
        raise ConfigError(f"experiment {config.experiment} requires time_grid")
    config = replace(config, workers=effective_workers(config.workers))
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = driver(config, outdir)
    write_summary(outdir / "summary.json", config, payload)
    return payload
