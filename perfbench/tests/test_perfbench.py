"""The benchmark's own checks, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import calibrate
import check
import run

ROOT = Path(run.ROOT)

# Workloads on which each traced function must run.
RUNS_ON = {
    "disorder.sample_chain": {"static", "dynamics", "oracle"},
    "hamiltonian.diagonalize_A": {"static", "dynamics", "oracle"},
    "hamiltonian.diagonalize": {"static", "dynamics", "oracle"},
    "hamiltonian.bogoliubov": {"static", "dynamics", "oracle"},
    "eigencorrelator.eigencorrelator_table": {"static", "dynamics"},
    "eigencorrelator.dynamic_amplitude_sup": {"dynamics"},
    "eigencorrelator.distance_profile": {"static", "dynamics"},
    "eigencorrelator.fit_decay": {"static", "dynamics"},
    "quasifree.evolve_gamma": {"dynamics", "oracle"},
    "quasifree.eigenstate_gamma": {"static", "dynamics", "oracle"},
    "quasifree.thermal_gamma": {"oracle"},
    "quasifree.quench_initial_gamma": {"dynamics"},
    "quasifree.growth_series": {"static"},
    "entanglement.max_eigenstate_entropy": {"static"},
    "entanglement.quench_entropy": {"dynamics"},
    "entanglement.entropy_from_gamma": {"dynamics", "oracle"},
    "entanglement.ps_bound": {"static"},
    "transport.particle_number_series": {"dynamics"},
    "transport.energy_series_isotropic": {"dynamics"},
    "transport.energy_fluctuation_series": {"dynamics"},
    "transport.mean_energy": {"dynamics"},
    "fock.locate_centers": {"static"},
    "fock.certify_decay": {"static"},
    "fock.fock_localization_check": {"static"},
    "fock.sample_configuration_pairs": {"static"},
    **{f"ed_oracle.{fn}": {"oracle"} for fn in run.TRACED["ed_oracle"]},
    "experiments.map_realizations": {"static", "dynamics"},
    "experiments.oracle_suite": {"oracle"},
    "experiments.write_csv": {"static", "dynamics"},
    "experiments.write_summary": {"static", "dynamics", "oracle"},
}
COUNT_RUNS_ON = {
    "eigencorrelator.time_steps": {"dynamics"},
    "transport.time_steps": {"dynamics"},
    "fock.slater_overlap.calls": {"static"},
}


def tiny_bench(tmp_path, workload, trace=False, reference=None):
    bench = run.Bench(workload, 0, tmp_path / "work", trace, tiny=True,
                      reference=reference or tmp_path / "none.json")
    bench.warm_up()
    return bench


def record(tmp_path, workload, seed_outputs) -> Path:
    path = tmp_path / f"{workload}-ref.json"
    check.write_reference(path, {0: seed_outputs})
    return path


def file_bytes(bench) -> dict:
    return {f"{name}/{p.name}": p.read_bytes() for name, cfg in bench.jobs
            for p in sorted(Path(cfg.output_dir).iterdir())}


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {f"{fn}.{kind}": unit for fn in RUNS_ON for kind, unit in (("calls", "count"), ("self_s", "s"))}
    expected.update(run.COUNTS)
    expected["trace_overhead_frac"] = "ratio"
    assert per_layer == expected
    assert set(RUNS_ON) == {f"{m}.{fn}" for m, fns in run.TRACED.items() for fn in fns}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_where_its_layer_runs(tmp_path, workload):
    bench = tiny_bench(tmp_path, workload)
    passes, _, _, _ = run.measure(bench, 0.0, trace=False)
    reference_s = calibrate.REFERENCE_S[bench.workers]
    e2e = run.end_to_end(bench, passes, setup_samples=[{"raw_s": 1.0, "cal_s": reference_s / 2}])
    assert e2e["setup_s"][0] == 2.0  # measured while the host ran at half its reference speed
    assert set(e2e) == (set(run.END_TO_END) | {f"job_s.{name}" for name, _ in bench.jobs}
                        | {"wall_measured_s", "setup_measured_s", "calibration_s"})
    assert all(p["cal_s"] > 0 for p in passes)
    assert all(value > 0 for value, _ in e2e.values())

    traced_bench = tiny_bench(tmp_path, workload, trace=True)
    layers = []
    for _ in range(2):
        problems = []
        passes, traced, _, _ = run.measure(traced_bench, 0.0, trace=True)
        layers.append(run.per_layer(traced_bench, passes, traced, problems))
        assert problems == []
    metrics = layers[0]
    for fn, workloads in RUNS_ON.items():
        assert (metrics[f"{fn}.calls"][0] > 0) == (workload in workloads), fn
        assert (metrics[f"{fn}.self_s"][0] > 0) == (workload in workloads), fn
    for name, workloads in COUNT_RUNS_ON.items():
        assert (metrics[name][0] > 0) == (workload in workloads), name
    assert metrics["hamiltonian.decompositions_per_realization"][0] >= 1
    assert metrics["experiments.artifact_bytes"][0] > 0
    # exact work counts repeat between two traced runs of the same code
    exact = [name for name, (_, unit) in metrics.items() if unit != "s" and name != "trace_overhead_frac"]
    assert {n: layers[0][n] for n in exact} == {n: layers[1][n] for n in exact}


def _bindings():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if mod is not None and (name == "xylab" or name.startswith("xylab."))
            for attr, obj in vars(mod).items() if isinstance(obj, types.FunctionType)}


@pytest.mark.parametrize("workload", ["static", "oracle"])
def test_tracing_restores_bindings_and_outputs(tmp_path, workload):
    from spans import Tracer

    bench = tiny_bench(tmp_path, workload)
    bench.run_pass()
    before_bytes = file_bytes(bench)
    before = _bindings()
    from xylab import experiments, hamiltonian

    original = hamiltonian.bogoliubov
    tracer = Tracer()
    with tracer:
        # both the module attribute and the `from .hamiltonian import` binding
        assert hamiltonian.bogoliubov.__wrapped__ is original
        assert experiments.bogoliubov is hamiltonian.bogoliubov
        bench.run_pass(tracer)
    assert tracer.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    bench.run_pass()
    assert file_bytes(bench) == before_bytes


def test_reference_check_and_corruption(tmp_path):
    bench = tiny_bench(tmp_path, "dynamics")
    bench.run_pass()
    outputs = bench.outputs()
    ref = record(tmp_path, "dynamics", outputs)

    good = tiny_bench(tmp_path, "dynamics", reference=ref)
    passes, _, _, _ = run.measure(good, 0.0, trace=False)
    assert run.tally(passes, [], []) == (len(good.jobs), 0)

    row = outputs["transport_particle"]["particle_transport.csv"]["rows"][3]
    row[1] = row[1] * (1 + 1e-6) + 1e-6
    bad = tiny_bench(tmp_path, "dynamics", reference=record(tmp_path, "dynamics", outputs))
    passes, _, _, _ = run.measure(bad, 0.0, trace=False)
    attempted, failed = run.tally(passes, [], [])
    assert failed / attempted > 0
    assert list(passes[0]["problems"]) == ["transport_particle"]


def test_invariants_hold_without_reference(tmp_path):
    bench = tiny_bench(tmp_path, "oracle")
    summary = bench.jobs[0][1].output_dir + "/summary.json"
    bench.run_pass()
    data = json.loads(Path(summary).read_text())
    assert check._invariants("oracle_check", check.read_outputs(Path(summary).parent)) == []
    data["max_errors"]["car"] = 1.0
    Path(summary).write_text(json.dumps(data))
    assert check._invariants("oracle_check", check.read_outputs(Path(summary).parent))


def test_values_within_tolerance_pass():
    ref = {"a.csv": {"header": ["x", "v"], "rows": [[0, 1.0], [1, 1e-12]]}, "summary.json": {"ok": True}}
    near = {"a.csv": {"header": ["x", "v"], "rows": [[0, 1.0 + 5e-9], [1, 2e-12]]}, "summary.json": {"ok": True}}
    problems = []
    check._compare(near, ref, "", True, problems)
    assert problems == []
    far = {"a.csv": {"header": ["x", "v"], "rows": [[0, 1.0 + 5e-8], [1, 1e-12]]}, "summary.json": {"ok": False}}
    check._compare(far, ref, "", True, problems)
    assert len(problems) == 2
    problems = []
    check._compare(far, ref, "", False, problems)  # another seed: shape only
    assert problems == []


def test_stripped_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
