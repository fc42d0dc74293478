"""xylab benchmark: run one workload through the public experiment API.

    python3 perfbench/run.py --workload static --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the ``xylab`` sources are imported from
``src/``.  Workloads are ``static``, ``dynamics`` and ``oracle`` (see
perfbench/README.md); ``--workload all`` runs the three, each in a fresh
process, and prints every metric.

One run:
1. pins BLAS/OpenMP threads to 1 and clears XYLAB_WORKERS, before numpy
   is imported;
2. sets itself up: imports, config parsing, warm-up;
3. repeats the workload's jobs until ``--seconds`` is spent, checking
   every job's outputs after each pass, and times SETUP_PROBES fresh
   set-up processes spread over that time (``setup_s``); a fixed
   calibration kernel (calibrate.py) is timed between any two of these;
4. with ``--trace 0`` reports the median pass and probe, rescaled to
   the reference host speed by the median kernel time around them; with
   ``--trace 1`` it forces one worker, alternates untraced and traced
   passes, and reports per-module calls, self time and work counts.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(jobs run), ``failed`` (jobs whose outputs failed a check) and
``metrics``.  A full record, environment included, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# stdlib-only modules of the benchmark; numpy, xylab and calibrate (which
# loads numpy) are imported after the thread variables are pinned
import check
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10
WORKLOADS = workloads.WORKLOADS

# Per-module functions whose calls and self time the traced run reports.
TRACED = {
    "disorder": ["sample_chain"],
    "hamiltonian": ["diagonalize_A", "diagonalize", "bogoliubov"],
    "eigencorrelator": ["eigencorrelator_table", "dynamic_amplitude_sup", "distance_profile",
                        "fit_decay"],
    "quasifree": ["evolve_gamma", "eigenstate_gamma", "thermal_gamma", "quench_initial_gamma",
                  "growth_series"],
    "entanglement": ["max_eigenstate_entropy", "quench_entropy", "entropy_from_gamma", "ps_bound"],
    "transport": ["particle_number_series", "energy_series_isotropic",
                  "energy_fluctuation_series", "mean_energy"],
    "fock": ["locate_centers", "certify_decay", "fock_localization_check",
             "sample_configuration_pairs"],
    "ed_oracle": ["build_H", "all_c", "correlation_blocks", "thermal_state", "spectral",
                  "reduced_density", "schroedinger_evolve_state", "match_eigenstates"],
    "experiments": ["map_realizations", "oracle_suite", "write_csv", "write_summary"],
}
# End-to-end metrics of BENCHMARK.json, in the result line of an untraced
# run; the per-job times job_s.<job> are printed and recorded next to them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Exact work counts of the traced run, with their units.
COUNTS = {
    "hamiltonian.decompositions_per_realization": "ratio",
    "hamiltonian.dense_dim3_sum": "count",
    "eigencorrelator.time_steps": "count",
    "transport.time_steps": "count",
    "fock.slater_overlap.calls": "count",
    "experiments.artifact_bytes": "bytes",
}


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("XYLAB_WORKERS", None)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="xylab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, parse and warm up, then exit (one setup_s sample)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


class Bench:
    """One workload's parsed jobs, their output directories and reference.
    `trace` forces one worker on every job."""

    def __init__(self, workload: str, seed: int, workdir: Path, trace: bool,
                 tiny: bool = False, reference: Path | None = None):
        from xylab import experiments

        self.xp = experiments
        self.seed = seed
        raw = workloads.job_configs(workload, seed, str(workdir), tiny=tiny,
                                    workers=1 if trace else None)
        self.jobs = [(name, experiments.parse_config(cfg)) for name, cfg in raw]
        # processes a pass keeps busy, and so the calibration kernel's
        self.workers = max(cfg.workers for _, cfg in self.jobs)
        self.warmup = [(name, experiments.parse_config(cfg))
                       for name, cfg in workloads.warmup_configs(raw)]
        self.realizations = sum(workloads.realizations_run(cfg) for _, cfg in raw)
        self.reference = check.load_reference(reference or REFERENCE / f"{workload}.json")

    def warm_up(self) -> None:
        for _, cfg in self.warmup:
            try:
                self.xp.run(cfg)
            except Exception:  # the timed passes record the failure
                pass

    def run_pass(self, tracer=None) -> dict:
        """Run every job once; returns wall and per-job seconds and the
        problems found in each job's outputs."""
        for _, cfg in self.jobs:
            shutil.rmtree(cfg.output_dir, ignore_errors=True)
        job_s, errors = {}, {}
        t0 = time.perf_counter()
        for name, cfg in self.jobs:
            if tracer is not None:
                tracer.job = name
            ts = time.perf_counter()
            try:
                self.xp.run(cfg)
            except Exception as exc:  # reported as a failed job, the run goes on
                errors[name] = [f"{type(exc).__name__}: {exc}"]
            job_s[name] = time.perf_counter() - ts
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "job_s": job_s, "problems": self.check_outputs(errors)}

    def check_outputs(self, errors: dict) -> dict:
        seed_ref = self.reference.get(str(self.seed))
        any_ref = seed_ref or next(iter(self.reference.values()), {})
        problems = {}
        for name, cfg in self.jobs:
            found = errors.get(name) or check.check_job(
                cfg.experiment, cfg.output_dir, any_ref.get(name), values=seed_ref is not None)
            if found:
                problems[name] = found
        return problems

    def outputs(self) -> dict:
        return {name: check.read_outputs(cfg.output_dir) for name, cfg in self.jobs}

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for _, cfg in self.jobs
                   for p in Path(cfg.output_dir).iterdir() if p.is_file())


def setup(workload: str, seed: int, workdir: Path, trace: bool) -> Bench:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import xylab

    if Path(xylab.__file__).resolve().parent != (SRC / "xylab").resolve():
        raise SystemExit(f"perfbench: imported xylab from {xylab.__file__}, not from {SRC}")
    bench = Bench(workload, seed, workdir, trace)
    bench.warm_up()
    return bench


def setup_probe(args):
    """A function timing one fresh set-up process of this run's workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]

    def probe() -> float:
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls, rounding the time up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return probe


# ---------------------------------------------------------------------------
# measurement


def measure(bench: Bench, seconds: float, trace: bool, probe=None):
    """Repeat passes until `seconds` are spent (at least one pass; with
    tracing, each pass is followed by a traced one).  `probe`, if given,
    runs SETUP_PROBES times, spread evenly over the run.  Every pass and
    probe records `cal_s`, the calibration kernel's time around it."""
    from calibrate import Calibration

    cal = Calibration(bench.workers)
    passes, traced, setup_samples = [], [], []
    tracer = Tracer() if trace else None
    probes = SETUP_PROBES if probe else 0

    def timed_probe():
        raw, cal_s = cal.around(probe)
        setup_samples.append({"raw_s": raw, "cal_s": cal_s})

    def traced_pass():
        with tracer:
            return bench.run_pass(tracer)

    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if len(setup_samples) < probes and t_pass - t_begin >= len(setup_samples) * seconds / probes:
            timed_probe()
        rec, cal_s = cal.around(bench.run_pass)
        rec["cal_s"] = cal_s
        passes.append(rec)
        if tracer is not None:
            first, before = len(tracer.spans), Counter(tracer.counts)
            rec, cal_s = cal.around(traced_pass)
            rec["cal_s"] = cal_s
            rec["stats"] = tracer.stats(first)
            rec["counts"] = dict(tracer.counts - before)
            rec["counts"]["experiments.artifact_bytes"] = bench.artifact_bytes()
            traced.append(rec)
        now = time.perf_counter()
        if now - t_begin + (now - t_pass) > seconds:
            break
    while len(setup_samples) < probes:
        timed_probe()
    return passes, traced, setup_samples, tracer


def _at_reference(bench: Bench, samples: list, seconds) -> float:
    """Median of seconds(sample) over `samples`, rescaled to the reference
    host speed by the median calibration time around them.  Pass and
    kernel interleave, so the ratio of the two medians follows the host's
    speed through the run; it was steadier between runs than the median
    of per-sample ratios, which adds the kernel's own jitter to each
    sample."""
    from calibrate import REFERENCE_S

    return (statistics.median(seconds(x) for x in samples) * REFERENCE_S[bench.workers]
            / statistics.median(x["cal_s"] for x in samples))


def end_to_end(bench: Bench, passes: list, setup_samples: list) -> dict:
    """Median pass and median set-up probe of the run, each in seconds at
    the reference host speed (see calibrate.py and the README), the same
    medians as measured, and the peak RSS."""
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {"wall_s": (_at_reference(bench, passes, lambda p: p["wall_s"]), "s")}
    for name, _ in bench.jobs:
        metrics[f"job_s.{name}"] = (_at_reference(bench, passes, lambda p: p["job_s"][name]), "s")
    metrics["setup_s"] = (_at_reference(bench, setup_samples, lambda x: x["raw_s"]), "s")
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, END_TO_END["peak_rss_mb"])
    metrics["wall_measured_s"] = (statistics.median(p["wall_s"] for p in passes), "s")
    metrics["setup_measured_s"] = (statistics.median(x["raw_s"] for x in setup_samples), "s")
    metrics["calibration_s"] = (statistics.median(p["cal_s"] for p in passes), "s")
    return metrics


def _work_count(name: str, stats: dict, counts: dict, realizations: int):
    if name == "hamiltonian.decompositions_per_realization":
        return counts.get("hamiltonian.decompositions", 0) / realizations
    if name.endswith(".calls"):
        return stats.get(name[:-len(".calls")], (0, 0.0))[0]
    return counts.get(name, 0)


def per_layer(bench: Bench, passes: list, traced: list, problems: list) -> dict:
    stats = [rec["stats"] for rec in traced]
    counts = [rec["counts"] for rec in traced]
    metrics = {}
    for module, fns in TRACED.items():
        for fn in fns:
            name = f"{module}.{fn}"
            calls = [s.get(name, (0, 0.0))[0] for s in stats]
            if len(set(calls)) > 1:
                problems.append(f"{name}: calls differ between traced passes: {calls}")
            metrics[f"{name}.calls"] = (calls[0], "count")
            metrics[f"{name}.self_s"] = (
                _at_reference(bench, traced, lambda r: r["stats"].get(name, (0, 0.0))[1]), "s")
    for name, unit in COUNTS.items():
        values = [_work_count(name, s, c, bench.realizations) for s, c in zip(stats, counts)]
        if len(set(values)) > 1:
            problems.append(f"{name}: differs between traced passes: {values}")
        metrics[name] = (values[0], unit)
    overhead = (_at_reference(bench, traced, lambda r: r["wall_s"])
                / _at_reference(bench, passes, lambda p: p["wall_s"]) - 1.0)
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# reporting


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "xylab_workers_env": os.environ.get("XYLAB_WORKERS"),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def tally(passes: list, traced: list, problems: list) -> tuple:
    """(jobs attempted, jobs or run-level checks failed)."""
    runs = passes + traced
    attempted = sum(len(p["job_s"]) for p in runs)
    return attempted, sum(len(p["problems"]) for p in runs) + len(problems)


def report(args, passes, traced, metrics, problems) -> dict:
    attempted, failed = tally(passes, traced, problems)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(passes)}{f'+{len(traced)} traced' if traced else ''}")
    if args.trace:
        print("  trace: workers forced to 1 on every job, so all spans stay in one process")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':52s} {failed / attempted:>14.6g} ratio ({failed}/{attempted} jobs)")
    for k, p in enumerate(passes + traced):
        for name, msgs in p["problems"].items():
            print(f"  FAIL pass {k} {name}: {'; '.join(msgs[:3])}")
    for msg in problems:
        print(f"  FAIL {msg}")
    shown = metrics if args.trace else {k: metrics[k] for k in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report."""
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, timeout=600).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xylab" / "__init__.py").is_file():
        print(f"perfbench: no xylab sources at {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        bench = setup(args.workload, args.seed, workdir, bool(args.trace))
        if args.setup_only:
            return 0
        passes, traced, setup_samples, tracer = measure(
            bench, args.seconds, bool(args.trace), probe=None if args.trace else setup_probe(args))
        problems = []
        if args.trace:
            metrics = per_layer(bench, passes, traced, problems)
        else:
            metrics = end_to_end(bench, passes, setup_samples)
        result = report(args, passes, traced, metrics, problems)
        RESULTS.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"environment": environment(args), "result": result,
                  "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
                  "setup_samples": setup_samples,
                  "passes": [{k: v for k, v in p.items() if k != "stats"} for p in passes + traced]}
        (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        if tracer is not None:
            tracer.write(RESULTS / f"{tag}.spans.json")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
