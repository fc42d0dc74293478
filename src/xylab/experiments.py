"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Each experiment maps a pure per-realization function over the ensemble
(with workers, forked children take a contiguous chunk each and the idle
parent collects) and reduces results in realization-index order with
disorder.aggregate, so outputs are byte identical across runs and worker
counts.  A worker's failure names the experiment, the realization and
the ensemble seed that replay it.  At import the module sets the
process's allocator policy (glibc's mallopt), so freed kernel
temporaries stay mapped for the next realization.  Every experiment
makes one pass per realization: a worker samples and decomposes its
chain once and returns what it measures, and the driver judges the
measurements against the fitted constants.  Summaries echo the semantic
config (not output_dir or workers) with a content hash and record
pass/fail verdicts next to the fitted constants they used.
"""

from __future__ import annotations

import ctypes
import json
import os
import pickle
import signal
import traceback
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import entanglement as ent
from . import transport as tr
from .certify import oracle_suite
# parse_config and ConfigError are this module's API too: the CLI and the
# benchmark harness call them through it
from .config import PARAMS, ConfigError, ExperimentConfig, config_hash, parse_config
from .disorder import EnsembleSpec, aggregate, sample_chain
from .eigencorrelator import (
    DecayFit,
    clustering_sup,
    distance_profile,
    dynamic_amplitude_sup,
    eigencorrelator_profile,
    eigencorrelator_table,
    fit_decay,
)
from .fock import (
    certify_decay,
    decay_envelope,
    fock_localization_check,
    locate_centers,
    pair_overlaps,
    sample_configuration_pairs,
)
from .hamiltonian import bogoliubov, diagonalize_A


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory_mapped() -> None:
    """The process's allocator policy, set once at import: blocks up to
    32 MiB come from the heap, and the heap keeps up to 64 MiB of free top
    before it returns memory.  With glibc's defaults, every freed
    megabyte-sized kernel temporary is unmapped and its successor faults
    its pages back in (about 2 x 10^4 minor faults in the forked children
    of a 16-realization eigencorrelator map at n = 200).  The trim threshold is set with the mmap one
    because pinning either turns glibc's dynamic thresholds off, which
    would leave the trim threshold at 128 KiB.  Forked children inherit
    the policy.  Skipped where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_mapped()


def pool_size(requested: int, realizations: int, cpus: int | None) -> int:
    """Processes worth starting: no more than the requested workers, the
    realizations to share out, or the CPUs (None counts as one)."""
    return max(1, min(requested, realizations, cpus or 1))


class RealizationError(RuntimeError):
    """A worker failed on one realization; the message names the
    realization index and the ensemble (n, base_seed) that replay it, and
    run puts the experiment in front."""


def _measure(fn, ensemble: EnsembleSpec, i: int, params: dict):
    """fn(ensemble, i, params), a failure re-raised as a RealizationError."""
    try:
        return fn(ensemble, i, params)
    except Exception as exc:
        raise RealizationError(
            f"realization {i} (n={ensemble.n}, base_seed {ensemble.base_seed}) failed: "
            f"{type(exc).__name__}: {exc}") from exc


def _chunk_failed(ensemble: EnsembleSpec, indices: range, why: str) -> str:
    return (f"realizations {indices[0]}-{indices[-1]} (n={ensemble.n}, "
            f"base_seed {ensemble.base_seed}) failed: {why}")


def _run_chunk(fn, ensemble: EnsembleSpec, indices: range, params: dict, fd: int):
    """A forked child's whole life: (ok, payload) for its chunk pickled to
    bytes, written to fd, then os._exit.  Results that do not pickle, and
    a SystemExit or other BaseException that _measure lets through, come
    back as a failure of the chunk that names the exception."""
    try:
        try:
            payload = True, [_measure(fn, ensemble, i, params) for i in indices]
        except RealizationError as exc:
            payload = False, (str(exc), traceback.format_exc())
        except BaseException as exc:
            why = f"{type(exc).__name__}: {exc}"
            payload = False, (_chunk_failed(ensemble, indices, why), traceback.format_exc())
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            why = f"their results do not pickle: {type(exc).__name__}: {exc}"
            data = pickle.dumps((False, (_chunk_failed(ensemble, indices, why),
                                         traceback.format_exc())))
        with open(fd, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def map_realizations(fn, ensemble: EnsembleSpec, params: dict, workers: int) -> list:
    """fn(ensemble, i, params) for i = 0..realizations-1, results in index
    order.  With more workers the idle parent forks one child per chunk of
    ceil(realizations / workers) indices and reads their pickled results
    back in chunk order.  The children inherit every loaded module, scipy's
    LAPACK extension among them, whatever multiprocessing's default start
    method (forkserver on Linux from Python 3.14); without os.fork, serial."""
    realizations = ensemble.realizations
    workers = pool_size(workers, realizations, os.cpu_count() if hasattr(os, "fork") else 1)
    if workers <= 1:
        return [_measure(fn, ensemble, i, params) for i in range(realizations)]
    step = -(-realizations // workers)  # ceil
    chunks = [range(s, min(s + step, realizations)) for s in range(0, realizations, step)]
    pipes, pids = [], []  # read ends in chunk order; children not yet reaped
    try:
        for indices in chunks:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            if (pid := os.fork()) == 0:
                _run_chunk(fn, ensemble, indices, params, w)
            pids.append(pid)
            os.close(w)  # before the next fork, so no later child holds this pipe open
        results = []
        for pipe, pid, indices in zip(pipes, list(pids), chunks):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code or not data:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RealizationError(_chunk_failed(ensemble, indices,
                                                     f"their worker process died ({how})"))
            ok, payload = pickle.loads(data)
            if not ok:
                raise RealizationError(payload[0]) from RuntimeError(payload[1])
            results += payload
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
# per-realization workers: pure functions of (ensemble, index, params),
# run in forked children that pickle only their results


def _decompose(chain, block: bool):
    """The Bogoliubov decomposition for the block form, A's eigensystem otherwise."""
    return bogoliubov(chain) if block else diagonalize_A(chain)


def _real_eigencorrelator(ensemble, i, params):
    dec = _decompose(sample_chain(ensemble, i), params["block"])
    return eigencorrelator_profile(dec, params["max_distance"])


def _real_amplitude(ensemble, i, params):
    dec = _decompose(sample_chain(ensemble, i), params["block"])
    amp = dynamic_amplitude_sup(dec, np.asarray(params["times"]))
    violation = float(np.max(amp - eigencorrelator_table(dec)))
    return distance_profile(amp, params["max_distance"]), violation


def _real_clustering(ensemble, i, params):
    chain = sample_chain(ensemble, i)
    sd = diagonalize_A(chain)
    rng = np.random.default_rng(params["state_seed"] + i)
    occ = rng.integers(0, 2, size=chain.n)
    # only the pairs within max_distance reach the profile
    sup = clustering_sup(sd, occ, params["times"], params["max_distance"])
    return distance_profile(sup, params["max_distance"])


def _real_entanglement_static(ensemble, i, params):
    """(entropy, ps_bound) per cut and the block eigencorrelator profile
    that feeds the area-law fit, from one sample of the chain."""
    bog = bogoliubov(sample_chain(ensemble, i))
    # the exhaustive strategy reads neither samples nor label_seed, and its params hold neither
    draw = ({} if params["strategy"] == "exhaustive" else
            {"samples": params["samples"], "seed": params["label_seed"] + i})
    out = [ent.max_eigenstate_entropy(bog, ell, params["strategy"], **draw) for ell in params["ells"]]
    return out, eigencorrelator_profile(bog, params["max_distance"])


def _real_quench(ensemble, i, params):
    chain = sample_chain(ensemble, i)
    times = np.asarray(params["times"])
    bog = bogoliubov(chain)
    sups = []
    for ell in params["ells"]:
        series = ent.quench_entropy(chain, ell, np.zeros(ell, dtype=int),
                                    np.zeros(chain.n - ell, dtype=int), times, bog)
        sups.append(float(np.max(series)))
    return sups


def _real_transport(ensemble, i, params):
    """One decomposition of the chain serves both the eigencorrelator
    profile that feeds the fit and the transport series."""
    chain = sample_chain(ensemble, i)
    sd = diagonalize_A(chain)
    profile = eigencorrelator_profile(sd, params["fit_max_distance"])
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
    return (eigencorrelator_profile(sd, params["fit_max_distance"]),
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
    fit = fit_decay(agg["mean"], p["min_distance"], p["max_distance"])
    return fit, {**_fit_block(fit), "min_distance": fit.min_distance}, results


def run_eigencorrelator(config: ExperimentConfig, outdir: Path) -> dict:
    fit, block, _ = _run_profile(config, outdir, _real_eigencorrelator, "eigencorrelator.csv")
    return {
        "fit": block,
        "verdicts": {
            "log_linear": bool(fit.r_squared >= config.params["r2_min"]),
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
    return fit_decay(aggregate(profiles)["mean"], p["fit_min_distance"], p["fit_max_distance"])


def run_entanglement_static(config: ExperimentConfig, outdir: Path) -> dict:
    """One pass over the ensemble yields the entropies, the ps_bounds and
    the block eigencorrelator profiles for the area-law fit."""
    p = config.params
    per_real = map_realizations(_real_entanglement_static, config.ensemble, p, config.workers)
    agg = aggregate(r[0] for r in per_real)  # entry (ell, [entropy, ps_bound])
    _write_table(outdir / "entanglement_static.csv", "ell", p["ells"], ("max_entropy", "ps_bound"),
                 agg, p["strategy"])
    fit = _mean_fit([r[1] for r in per_real], p)
    bound = ent.area_law_constant(fit)
    entropies = agg["mean"][:, 0]
    return {
        "fit": _fit_block(fit),
        "area_law_bound": bound,
        "verdicts": {"flat_in_ell": _flat_within_2sigma(zip(entropies, agg["stderr"][:, 0])),
                     "below_fitted_bound": bool(np.all(entropies <= p["slack"] * bound))},
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
    s1, s2 = sorted(set(p["s1"])), sorted(set(p["s2"]))
    eta = np.zeros(config.ensemble.n)
    eta[np.array(s2) - 1] = p["eta_value"]
    times = config.time_grid.times()
    wp = {"observable": observable, "s1": s1, "eta": eta, "times": times,
          "fit_max_distance": p["fit_max_distance"]}
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
    passed = bool(sups["mean"] <= p["slack"] * bound)
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
    if p["variant"] == "isotropic_bound":
        return _run_transport_isotropic(config, outdir, "energy")
    # one ensemble per size; one worker per realization samples its chain once
    sizes = p["sizes"]
    s1 = sorted(set(p["s1"]))
    times = config.time_grid.times()
    base = config.ensemble
    eta = p["eta_profile"]  # "ones", "half" or one entry per site
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
    n, tau, alpha = config.ensemble.n, p["tau"], p["alpha"]
    pairs = sample_configuration_pairs(n, tau, p["pair_count"], seed=p["pair_seed"],
                                       r_max=p["r_max"])
    measured = map_realizations(_real_fock, config.ensemble, {
        "alpha": alpha, "pairs": pairs, "fit_max_distance": p["fit_max_distance"]}, config.workers)
    profiles, matched, fallbacks, envelopes, overlaps = zip(*measured)
    fit = _mean_fit(profiles, p)
    eta = 0.5 * fit.eta if p["eta"] is None else p["eta"]
    eta0 = 0.25 * eta if p["eta0"] is None else p["eta0"]
    certified = certify_decay(np.stack(envelopes), eta, tau)
    passed = fock_localization_check(np.stack(overlaps), pairs, n, fit, tau, eta0, eta)
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
        "matching": bool(payload["matched_fraction"] >= p["matched_min"]),
        "certification": bool(payload["certified_fraction"] >= p["certified_min"]),
        "overlap_bound": bool(payload["overlap_pass_fraction"] >= p["overlap_min"]),
    }
    return payload


# ---------------------------------------------------------------------------
# oracle identity suite


def run_oracle_check(config: ExperimentConfig, outdir: Path) -> dict:
    result = oracle_suite(**config.params)
    write_json(outdir / "oracle_check.json", result)
    result["verdicts"] = dict(result["checks"])
    return result


# Each experiment of the params table runs as run_<experiment>.
_RUNNERS = {experiment: globals()[f"run_{experiment}"] for experiment in PARAMS}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; writes artifacts and the summary JSON into
    config.output_dir and returns the summary payload."""
    runner = _RUNNERS[config.experiment]
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        payload = runner(config, outdir)
    except RealizationError as exc:
        raise RealizationError(f"{config.experiment}: {exc}") from exc
    write_summary(outdir / "summary.json", config, payload)
    return payload
