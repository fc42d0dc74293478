"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Each experiment maps a pure per-realization function over the ensemble
(with workers, forked children take a contiguous chunk each and the idle
parent collects; XYLAB_WORKERS overrides the config) and reduces results
in realization-index order with disorder.aggregate, so outputs are byte
identical across runs and worker counts.  A worker's failure names the
experiment, the realization and the ensemble seed that replay it.
Every experiment makes one pass per realization: a worker samples and
decomposes its chain once and returns what it measures, and the driver
judges the measurements against the fitted constants.  Summaries echo
the semantic config (not output_dir or workers) with a content hash
and record pass/fail verdicts next to the fitted constants they used.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import traceback
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import ed_oracle as ed
from . import entanglement as ent
from . import transport as tr
# parse_config and ConfigError are this module's API too: the CLI and the
# benchmark harness call them through it
from .config import PARAMS, ConfigError, ExperimentConfig, config_hash, parse_config
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
from .quasifree import eigenstate_gamma, evolve_gamma, profile_gamma, thermal_gamma


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


def _run_chunk(fn, ensemble: EnsembleSpec, indices: range, params: dict, fd: int):
    """A forked child's whole life: (ok, payload) for its chunk pickled to fd, then os._exit."""
    try:
        try:
            payload = True, [_measure(fn, ensemble, i, params) for i in indices]
        except RealizationError as exc:
            payload = False, (str(exc), traceback.format_exc())
        with open(fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
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
                raise RealizationError(f"realizations {indices[0]}-{indices[-1]} (n={ensemble.n}, "
                                       f"base_seed {ensemble.base_seed}) failed: their worker "
                                       f"process died ({how})")
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
# per-realization workers (module level for picklability)


def _decompose(chain, block: bool):
    """M's eigensystem, read off the Bogoliubov W, for block tables; A's
    eigensystem otherwise."""
    return bogoliubov(chain).spectral if block else diagonalize_A(chain)


def _real_eigencorrelator(ensemble, i, params):
    block = params["block"]
    sd = _decompose(sample_chain(ensemble, i), block)
    return distance_profile(eigencorrelator_table(sd, block=block), params["max_distance"])


def _real_amplitude(ensemble, i, params):
    block = params["block"]
    sd = _decompose(sample_chain(ensemble, i), block)
    times = np.asarray(params["times"])
    amp = dynamic_amplitude_sup(sd, times, block=block)
    q = eigencorrelator_table(sd, block=block)
    violation = float(np.max(amp - q))
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
    chain = sample_chain(ensemble, i)
    bog = bogoliubov(chain)
    out = [ent.max_eigenstate_entropy(bog, ell, strategy=params["strategy"],
                                      samples=params["samples"], seed=params["label_seed"] + i)
           for ell in params["ells"]]
    table = eigencorrelator_table(bog.spectral, block=True)
    return out, distance_profile(table, params["max_distance"])


def _real_quench(ensemble, i, params):
    chain = sample_chain(ensemble, i)
    times = np.asarray(params["times"])
    sd = bogoliubov(chain).spectral
    sups = []
    for ell in params["ells"]:
        series = ent.quench_entropy(chain, ell, np.zeros(ell, dtype=int),
                                    np.zeros(chain.n - ell, dtype=int), times, sd_M=sd)
        sups.append(float(np.max(series)))
    return sups


def _real_transport(ensemble, i, params):
    """One decomposition of the chain serves both the eigencorrelator
    profile that feeds the fit and the transport series."""
    chain = sample_chain(ensemble, i)
    sd = diagonalize_A(chain)
    profile = distance_profile(eigencorrelator_table(sd), params["fit_max_distance"])
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
    return (distance_profile(eigencorrelator_table(sd), params["fit_max_distance"]),
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


def oracle_suite(n: int, seed: int, realizations: int) -> dict:
    """Brute-force identity checks on small random chains; returns one
    boolean per check plus the worst deviations seen.  The Jordan-Wigner
    tables are built once; per realization, H, its eigensystem, the
    isotropic H and the Bogoliubov decomposition are built once and shared
    by the checks."""
    ens = EnsembleSpec(n=n, mu_dist=uniform(-1.0, 1.0), gamma_dist=uniform(-0.7, 0.7),
                       nu_dist=uniform(-1.5, 1.5), base_seed=seed, realizations=realizations)
    jw = ed.all_c(n)
    errors = []  # one dict of errors per realization
    for i in range(realizations):
        chain = sample_chain(ens, i)
        iso = ChainSpec(n=n, mu=chain.mu, gamma=(0.0,) * (n - 1), nu=chain.nu)
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
    """Errors of the eigenstate, thermal and evolved (from a basis product
    state) correlation matrices and of the cut entropies (every cut
    1 <= ell < n of (1, n // 2, n - 1)) of the free-fermion layer against
    the oracle eigensystem eig = (evals, evecs) of H."""
    n = bog.n
    evals, evecs = eig
    labels = [0, 1, (1 << n) - 1] if n > 3 else list(range(2**n))
    idxs, flags = ed.match_eigenstates(all_many_body_energies(bog)[labels], evals)
    sdM = bog.spectral
    g_err = s_err = 0.0
    cuts = [ell for ell in (1, n // 2, n - 1) if 1 <= ell < n]
    for a, k, degenerate in zip(labels, idxs, flags):
        if degenerate:
            continue
        alpha = alpha_from_index(a, n)
        gamma = eigenstate_gamma(bog, alpha)
        psi = evecs[:, k]
        g_ed = ed.correlation_blocks(psi, jw)
        g_err = max(g_err, float(np.max(np.abs(gamma - g_ed))))
        for ell in cuts:
            s_free = ent.entropy_from_gamma(gamma, ell)
            # both sides of a pure state's cut share one spectrum: reduce onto
            # the smaller side, swapping psi's two blocks when that is the right
            small = psi if 2 * ell <= n else psi.reshape(2**ell, -1).T.ravel()
            s_ed = ed.von_neumann_entropy(ed.reduced_density(small, n, min(ell, n - ell)))
            s_err = max(s_err, abs(s_free - s_ed))
    # an eigenstate's gamma commutes with M and would not move, so the
    # evolution starts from the basis state with sites 1, 3, 5, ... occupied,
    # whose currents the dynamics creates (site 1 is the top bit; 0 is up)
    occupied = np.arange(n) % 2 == 0
    psi0 = np.zeros(2**n)
    psi0[int("".join("0" if o else "1" for o in occupied), 2)] = 1.0
    gt = evolve_gamma(profile_gamma(occupied), sdM, 0.7)
    psit = ed.schroedinger_evolve_state(psi0, eig, 0.7)
    e_err = float(np.max(np.abs(gt - ed.correlation_blocks(psit, jw))))
    beta = 0.8
    g_th = thermal_gamma(sdM, beta)
    rho = ed.thermal_state(eig, beta)
    t_err = float(np.max(np.abs(g_th - ed.correlation_blocks(rho, jw))))
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
    config = replace(config, workers=effective_workers(config.workers))
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        payload = runner(config, outdir)
    except RealizationError as exc:
        raise RealizationError(f"{config.experiment}: {exc}") from exc
    write_summary(outdir / "summary.json", config, payload)
    return payload
