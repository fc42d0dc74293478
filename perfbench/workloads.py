"""Experiment configs of the three benchmark workloads.

Every config is generated from the workload seed: job k of a workload
gets ``base_seed = 1000 * seed + k`` (oracle: ``seed`` param the same
way), so one seed names one set of inputs.  Sizes follow the acceptance
tests; the realization counts set the run length.  ``tiny=True`` shrinks
every job to a few sites and realizations, for the benchmark's own
tests.
"""

from __future__ import annotations

WORKLOADS = ("static", "dynamics", "oracle")

# Workers per workload: `static` runs the process pool (2 = nproc of the
# reference box), the others run inline.
WORKERS = {"static": 2, "dynamics": 1, "oracle": 1}


def _ens(n, realizations, base_seed, mu=0.05, gamma=None, nu=(-1.0, 1.0)):
    return {
        "n": n,
        "mu": {"kind": "constant", "value": mu},
        "gamma": gamma or {"kind": "constant", "value": 0.0},
        "nu": {"kind": "uniform", "lo": nu[0], "hi": nu[1]},
        "base_seed": base_seed,
        "realizations": realizations,
    }


_ANISO = {"kind": "uniform", "lo": -0.5, "hi": 0.5}


def _sizer(tiny: bool):
    """pick(full, small): the full-size value, or the small one for tests."""
    return lambda full, small: small if tiny else full


def _grid(T: float, dt: float) -> dict:
    return {"T": T, "dt": dt}


_TINY_GRID = _grid(2.0, 0.5)


def _static(seed: int, tiny: bool) -> list:
    pick = _sizer(tiny)
    n200, n60 = pick(200, 24), pick(60, 16)
    # Fit windows end where the profiles are still far above round-off, so
    # the fitted constants are stable to 1e-8 under reassociation.
    dmax = pick(12, 8)
    return [
        ("eigencorrelator", "eigencorrelator", {
            "ensemble": _ens(n200, pick(160, 2), 1000 * seed + 0),
            "params": {"min_distance": 2, "max_distance": dmax},
        }),
        ("eigencorrelator_block", "eigencorrelator", {
            "ensemble": _ens(n200, pick(16, 2), 1000 * seed + 1, gamma=_ANISO),
            "params": {"block": True, "min_distance": 2, "max_distance": dmax},
        }),
        ("entanglement_static", "entanglement_static", {
            "ensemble": _ens(n60, pick(12, 2), 1000 * seed + 2),
            "params": {"ells": pick([10, 30], [4, 8]), "strategy": "sampled",
                       "samples": pick(200, 20), "label_seed": 1000 * seed,
                       "max_distance": dmax, "fit_min_distance": 2, "fit_max_distance": dmax},
        }),
        ("fock", "fock", {
            "ensemble": _ens(n200, pick(16, 2), 1000 * seed + 3),
            "params": {"alpha": 1.25, "tau": 0.5, "pair_count": pick(100, 10),
                       "pair_seed": 1000 * seed + 3, "max_distance": dmax,
                       "fit_min_distance": 2, "fit_max_distance": dmax},
        }),
    ]


def _dynamics(seed: int, tiny: bool) -> list:
    pick = _sizer(tiny)
    n60, n100 = pick(60, 16), pick(100, 24)
    dmax = pick(12, 8)
    # s1 in the middle, s2 the two outer thirds (acceptance 08 at n=100)
    third = pick(30, 4)
    s2 = list(range(1, third + 1)) + list(range(n100 - third, n100 + 1))
    transport = {"s1": [n100 // 2], "s2": s2, "max_distance": dmax,
                 "fit_min_distance": 2, "fit_max_distance": dmax}
    return [
        ("lr_bound", "lr_bound", {
            "ensemble": _ens(n60, pick(12, 2), 1000 * seed + 0, mu=1.0, nu=(-5.0, 5.0)),
            "time_grid": pick(_grid(50.0, 0.25), _TINY_GRID),
            "params": {"min_distance": 1, "max_distance": dmax},
        }),
        ("entanglement_quench", "entanglement_quench", {
            "ensemble": _ens(n60, 2, 1000 * seed + 1),
            "time_grid": pick(_grid(30.0, 0.5), _TINY_GRID),
            "params": {"ells": pick([10, 30], [4, 8])},
        }),
        ("transport_particle", "transport_particle", {
            "ensemble": _ens(n100, pick(32, 2), 1000 * seed + 2),
            "time_grid": pick(_grid(50.0, 0.5), _TINY_GRID),
            "params": dict(transport),
        }),
        ("transport_energy", "transport_energy", {
            "ensemble": _ens(n100, pick(24, 2), 1000 * seed + 3),
            "time_grid": pick(_grid(50.0, 0.5), _TINY_GRID),
            "params": dict(transport),
        }),
        ("transport_energy_aniso", "transport_energy", {
            "ensemble": _ens(n60, 2, 1000 * seed + 4, gamma=_ANISO, nu=(0.5, 1.5)),
            "time_grid": pick(_grid(30.0, 0.5), _TINY_GRID),
            "params": {"variant": "anisotropic_flatness", "sizes": pick([40, 80, 160], [12, 16]),
                       "s1": list(range(1, pick(11, 5))), "eta_profile": "ones"},
        }),
        ("correlations", "correlations", {
            "ensemble": _ens(n60, pick(16, 2), 1000 * seed + 5, mu=1.0, nu=(-5.0, 5.0)),
            "time_grid": pick(_grid(20.0, 0.5), _TINY_GRID),
            "params": {"min_distance": 1, "max_distance": dmax, "state_seed": 1000 * seed + 5},
        }),
    ]


def _oracle(seed: int, tiny: bool) -> list:
    pick = _sizer(tiny)
    return [
        ("oracle_check", "oracle_check", {
            "params": {"n": pick(7, 4), "seed": 1000 * seed, "realizations": pick(2, 1)},
        }),
    ]


_JOB_LISTS = {"static": _static, "dynamics": _dynamics, "oracle": _oracle}


def job_configs(workload: str, seed: int, outdir: str, tiny: bool = False,
                workers: int | None = None) -> list:
    """[(job name, config dict)] of one workload, in run order; each job
    writes into ``outdir/<job name>``."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    jobs = []
    for name, experiment, body in _JOB_LISTS[workload](seed, tiny):
        cfg = {"experiment": experiment, **body,
               "output_dir": f"{outdir}/{name}",
               "workers": WORKERS[workload] if workers is None else workers}
        jobs.append((name, cfg))
    return jobs


def realizations_run(config: dict) -> int:
    """Chains a config samples and decomposes: realizations times the
    number of chain sizes (oracle_check: its own realization count)."""
    if config["experiment"] == "oracle_check":
        return config["params"]["realizations"]
    sizes = config["params"].get("sizes") if config["params"].get("variant") == "anisotropic_flatness" else None
    return config["ensemble"]["realizations"] * (len(sizes) if sizes else 1)


def warmup_configs(jobs: list) -> list:
    """The same jobs cut to at most two realizations (one oracle
    realization), so every code path, lazy import and pool start runs
    once before timing."""
    out = []
    for name, cfg in jobs:
        w = {**cfg, "output_dir": cfg["output_dir"] + "_warmup"}
        if "ensemble" in cfg:
            w["ensemble"] = {**cfg["ensemble"], "realizations": min(2, cfg["ensemble"]["realizations"])}
        else:
            w["params"] = {**cfg["params"], "realizations": 1}
        out.append((name, w))
    return out
