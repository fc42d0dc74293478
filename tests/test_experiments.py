import ast
import json
import os
import signal
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from xylab import cli
from xylab import ed_oracle as ed
from xylab import entanglement as ent
from xylab import experiments as xp
from xylab import fock
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab import transport as tr
from xylab.config import DEFAULTS, PARAMS, TimeGrid
from xylab.disorder import sample_chain

from conftest import dense_op, kron_jordan_wigner_c


def ensemble_json(n=16, realizations=4, seed=11, eps=0.1):
    return {
        "n": n,
        "mu": {"kind": "constant", "value": eps},
        "gamma": {"kind": "constant", "value": 0.0},
        "nu": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
        "base_seed": seed,
        "realizations": realizations,
    }


def test_time_grid():
    grid = TimeGrid(T=1.0, dt=0.25)
    assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(xp.ConfigError):
        TimeGrid(T=1.0, dt=0.0)
    with pytest.raises(xp.ConfigError):
        TimeGrid(T=1.0, dt=2.0)


def test_aggregate():
    assert xp.aggregate([5.0]) == {"mean": 5.0, "stderr": 0.0, "count": 1}
    agg = xp.aggregate([1.0, 3.0])
    assert agg["mean"] == 2.0 and agg["stderr"] == pytest.approx(1.0) and agg["count"] == 2
    with pytest.raises(ValueError):
        xp.aggregate([])
    # a stack reduces entry by entry, bitwise as each entry's own column
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((37, 6)) * np.logspace(-6, 6, 6)
    agg = xp.aggregate(stack)
    assert agg["count"] == 37
    for d in range(stack.shape[1]):
        col = xp.aggregate(stack[:, d])
        assert agg["mean"][d] == col["mean"] and agg["stderr"][d] == col["stderr"]
    one = xp.aggregate(stack[:1])
    assert one["count"] == 1
    assert np.array_equal(one["mean"], stack[0]) and np.array_equal(one["stderr"], np.zeros(6))
    cube = rng.standard_normal((9, 4, 2))
    agg3 = xp.aggregate(cube)
    assert agg3["mean"].shape == agg3["stderr"].shape == (4, 2)
    for k in range(4):
        for j in range(2):
            col = xp.aggregate(cube[:, k, j])
            assert agg3["mean"][k, j] == col["mean"] and agg3["stderr"][k, j] == col["stderr"]


def test_parse_config_errors():
    with pytest.raises(xp.ConfigError, match="experiment"):
        xp.parse_config({"ensemble": ensemble_json()})
    with pytest.raises(xp.ConfigError, match="ensemble"):
        xp.parse_config({"experiment": "eigencorrelator"})
    with pytest.raises(xp.ConfigError, match="ensemble"):
        xp.parse_config({"experiment": "eigencorrelator",
                         "ensemble": {"n": 4, "mu": {"kind": "zeta"}}})
    with pytest.raises(xp.ConfigError, match="time_grid.dt"):
        xp.parse_config({"experiment": "eigencorrelator", "ensemble": ensemble_json(),
                         "time_grid": {"T": 1.0}})
    with pytest.raises(xp.ConfigError, match="workers"):
        xp.parse_config({"experiment": "eigencorrelator", "ensemble": ensemble_json(),
                         "workers": 0})
    with pytest.raises(xp.ConfigError, match="time_grid"):
        cfg = xp.parse_config({"experiment": "transport_particle",
                               "ensemble": ensemble_json(),
                               "params": {"s1": [8], "s2": [1, 16]}})
        xp.run(cfg)


def test_eigencorrelator_run_and_determinism(tmp_path):
    out = tmp_path / "a"
    base = {
        "experiment": "eigencorrelator",
        "ensemble": ensemble_json(),
        "params": {"min_distance": 1, "max_distance": 10},
        "output_dir": str(out),
    }
    payload1 = xp.run(xp.parse_config(base))
    csv_first = (out / "eigencorrelator.csv").read_bytes()
    summary_first = (out / "summary.json").read_bytes()
    payload2 = xp.run(xp.parse_config(base))
    assert payload1["fit"]["eta"] > 0
    assert payload1 == payload2
    assert (out / "eigencorrelator.csv").read_bytes() == csv_first
    assert (out / "summary.json").read_bytes() == summary_first
    header = csv_first.decode().splitlines()[0]
    assert header == "distance,mean,stderr,count"


def test_workers_do_not_change_output(tmp_path):
    base = {
        "experiment": "eigencorrelator",
        "ensemble": ensemble_json(),
        "params": {"min_distance": 1, "max_distance": 10},
    }
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    xp.run(xp.parse_config({**base, "output_dir": str(serial), "workers": 1}))
    xp.run(xp.parse_config({**base, "output_dir": str(parallel), "workers": 3}))
    _assert_same_files(serial, parallel)


def _assert_same_files(a: Path, b: Path):
    """Directories a and b hold the same files, summary.json among them,
    byte for byte."""
    names = sorted(f.name for f in a.iterdir())
    assert "summary.json" in names and names == sorted(f.name for f in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_lr_bound_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "lr_bound",
        "ensemble": ensemble_json(n=12, realizations=3),
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": {"block": True, "min_distance": 1, "max_distance": 8},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["verdicts"]["dominated_by_eigencorrelator"]


def test_transport_particle_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "transport_particle",
        "ensemble": ensemble_json(n=24, realizations=3, eps=0.05),
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": {"s1": [12], "s2": list(range(1, 5)) + list(range(21, 25)),
                   "fit_min_distance": 2, "fit_max_distance": 10},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["baseline"] == pytest.approx(0.0, abs=1e-12)
    assert payload["pass"]
    lines = (tmp_path / "particle_transport.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 12  # header + 11 grid points


def test_correlations_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "correlations",
        "ensemble": ensemble_json(n=24, realizations=4, eps=0.1),
        "time_grid": {"T": 8.0, "dt": 0.5},
        "params": {"min_distance": 2, "max_distance": 12, "state_seed": 5},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["verdicts"]["clustering_rate_positive"]
    assert payload["fit"]["eta"] > 0
    assert (tmp_path / "clustering.csv").exists()


def test_entanglement_static_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "entanglement_static",
        "ensemble": ensemble_json(n=20, realizations=4, eps=0.05),
        "params": {"ells": [5, 10], "strategy": "sampled", "samples": 40,
                   "fit_min_distance": 2, "fit_max_distance": 10},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["verdicts"]["flat_in_ell"]
    assert payload["verdicts"]["below_fitted_bound"]
    rows = (tmp_path / "entanglement_static.csv").read_text().splitlines()
    assert rows[0] == "ell,statistic,mean,stderr,count,strategy"
    assert len(rows) == 5  # header + 2 statistics x 2 ells


def test_entanglement_quench_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "entanglement_quench",
        "ensemble": ensemble_json(n=16, realizations=3, eps=0.05),
        "time_grid": {"T": 6.0, "dt": 0.5},
        "params": {"ells": [4, 8]},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert "flat_in_ell" in payload["verdicts"]
    assert (tmp_path / "entanglement_quench.csv").exists()


def test_transport_energy_isotropic_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "transport_energy",
        "ensemble": ensemble_json(n=24, realizations=3, eps=0.05),
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": {"s1": [12], "s2": list(range(1, 5)) + list(range(21, 25)),
                   "fit_min_distance": 2, "fit_max_distance": 10},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["pass"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {"baseline", "sup", "bound", "pass"} <= set(summary)


def test_transport_energy_flatness_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "transport_energy",
        "ensemble": {
            "n": 16,
            "mu": {"kind": "constant", "value": 0.05},
            "gamma": {"kind": "uniform", "lo": -0.5, "hi": 0.5},
            "nu": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
            "base_seed": 3,
            "realizations": 6,
        },
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": {"variant": "anisotropic_flatness", "sizes": [16, 24],
                   "s1": [1, 2, 3], "eta_profile": "ones"},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["verdicts"]["flat_in_n"]
    assert (tmp_path / "energy_fluctuation.csv").exists()


def _fock_config(eps=0.05, **params):
    return {
        "experiment": "fock",
        "ensemble": ensemble_json(n=40, realizations=5, eps=eps),
        "params": {"alpha": 1.25, "tau": 0.5, "pair_count": 30,
                   "fit_min_distance": 2, "fit_max_distance": 15, **params},
    }


def test_fock_run(tmp_path):
    cfg = xp.parse_config({**_fock_config(), "output_dir": str(tmp_path)})
    payload = xp.run(cfg)
    data = json.loads((tmp_path / "fock_report.json").read_text())
    assert set(data) == {"alpha", "tau", "eta", "matched_fraction",
                         "certified_fraction", "overlap_pass_fraction", "fallback_total"}
    assert payload["matched_fraction"] == 1.0


def test_oracle_check_run(tmp_path):
    cfg = xp.parse_config({
        "experiment": "oracle_check",
        "params": {"n": 6, "seed": 42, "realizations": 5},
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    assert payload["all_pass"]
    data = json.loads((tmp_path / "oracle_check.json").read_text())
    assert data["all_pass"]
    assert all(data["checks"].values())


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _child_env() -> dict:
    # A child may run from another directory, where a relative PYTHONPATH
    # entry such as `src` points nowhere; put this checkout's absolute src
    # first so the child imports the same xylab as the in-process tests.
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "xylab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(),
    )


def test_cli_run_and_rerun_byte_identical(tmp_path):
    config = {
        "experiment": "eigencorrelator",
        "ensemble": ensemble_json(n=12, realizations=2),
        "params": {"min_distance": 1, "max_distance": 8},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    r1 = _run_cli(["run", str(cfg_path)], tmp_path)
    assert r1.returncode == 0, r1.stderr
    first = (tmp_path / "out" / "eigencorrelator.csv").read_bytes()
    r2 = _run_cli(["run", str(cfg_path)], tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "out" / "eigencorrelator.csv").read_bytes() == first
    assert "PASS" in r1.stdout


def test_cli_rejects_malformed_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"experiment": "eigencorrelator",
                                    "ensemble": {"n": 4, "mu": {"kind": "what"}}}))
    r = _run_cli(["run", str(cfg_path)], tmp_path)
    assert r.returncode != 0
    assert "ensemble" in r.stderr
    cfg_path.write_text("{not json")
    r2 = _run_cli(["run", str(cfg_path)], tmp_path)
    assert r2.returncode != 0
    assert "JSON" in r2.stderr


def test_cli_oracle_check(tmp_path):
    r = _run_cli(["oracle-check", "--n", "4", "--seed", "1", "--realizations", "1"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("PASS") >= 8


def test_cli_oracle_check_at_nine_sites(tmp_path):
    r = _run_cli(["oracle-check", "--n", "9", "--realizations", "1"], tmp_path)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("argv, csv_text", [
    (["oracle-check", "--n", "15"], None),
    (["oracle-check", "--n", "0"], None),
    (["oracle-check", "--realizations", "0"], None),
    (["oracle-check", "--seed", "-1"], None),
    (["fit"], "distance,mean\n0,1.0\n1,abc\n"),
    (["fit"], "distance,mean,stderr,count\n"),
    (["fit"], "distance,mean\n0,1.0\n1,0.5\n2,0.25\n3,0.125\n-1,100.0\n"),
    (["fit"], "distance,mean\n0,1.0\n1.7,0.5\n2,0.25\n3,0.125\n"),
    (["fit"], "distance,mean\n0,1.0\n1,0.5\n1,0.4\n2,0.25\n3,0.125\n"),
], ids=["oracle-n15", "oracle-n0", "oracle-realizations0", "oracle-seed-negative",
        "fit-non-numeric", "fit-header-only",
        "fit-negative-distance", "fit-fractional-distance", "fit-duplicate-distance"])
def test_cli_bad_input_gives_one_line_error(tmp_path, capsys, argv, csv_text):
    if csv_text is not None:
        csv = tmp_path / "profile.csv"
        csv.write_text(csv_text)
        argv = [*argv, str(csv)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "oracle-check":  # the line names the bad flag, not the field it feeds
        assert err.startswith(f"error: {argv[1]} ") and "base_seed" not in err


@pytest.mark.parametrize("argv", [["oracle-check", "--n", "4", "--realizations", "1"],
                                  ["run", "CONFIG"]], ids=["oracle-check", "run"])
def test_cli_reports_an_eigensolver_failure_outside_the_pool_in_one_line(monkeypatch, tmp_path,
                                                                          capsys, argv):
    # oracle_check decomposes its chains in the main process, outside the pool
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "oracle_check",
                                    "params": {"n": 4, "realizations": 1},
                                    "output_dir": str(tmp_path / "out")}))
    monkeypatch.setattr(ham, "_flapack",
                        types.SimpleNamespace(dstevd=lambda d, e: (d, np.eye(len(d)), 1)))
    assert cli.main([str(cfg_path) if a == "CONFIG" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == ("error: tridiagonal eigensolver failed: dstevd did not converge "
                   "(LAPACK info=1)\n")


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_suite_at_one_and_two_sites(n):
    result = xp.oracle_suite(n, 42, 3)
    assert result["all_pass"], result["max_errors"]


def test_oracle_suite_at_ten_sites():
    result = xp.oracle_suite(10, 42, 1)
    assert result["all_pass"], result["max_errors"]


def _kron_interleaved(n):
    cs = [kron_jordan_wigner_c(n, j) for j in range(1, n + 1)]
    return [op for c in cs for op in (c, c.conj().T)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_form_equals_the_explicit_double_sum(rng, n):
    ops = _kron_interleaved(n)
    dense = rng.normal(size=(2 * n, 2 * n))
    sparse = dense.copy()
    sparse[::2] = 0.0  # zero entries, which the form skips
    for X in (dense, sparse, np.zeros((2 * n, 2 * n))):
        explicit = np.zeros((2**n, 2**n), dtype=complex)
        for p in range(2 * n):
            for q in range(2 * n):
                explicit += X[p, q] * (ops[p].conj().T @ ops[q])
        assert np.max(np.abs(xp._quadratic_form(X, ed.all_c(n)) - explicit)) < 1e-12


def _car_all_pairs(ops):
    # {o_p, o_q} = 1 for {p, q} = {2j, 2j + 1} (c_j and c_j^*), else 0
    eye = np.eye(len(ops[0]))
    worst = 0.0
    for p in range(len(ops)):
        for q in range(len(ops)):
            anti = ops[p] @ ops[q] + ops[q] @ ops[p] - (eye if q == p ^ 1 else 0.0)
            worst = max(worst, float(np.max(np.abs(anti))))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_check_car_over_j_le_k_equals_the_all_pairs_loop(n):
    jw = ed.all_c(n)
    assert xp._check_car(jw) == _car_all_pairs(_kron_interleaved(n)) == 0.0
    # one flipped sign, or one wrong target, breaks CAR
    p, s = 2 * (n - 1), 0  # c_n acts on e_0, all up
    flipped = ed.JordanWigner(jw.tgt, jw.sgn.copy())
    flipped.sgn[p, s] *= -1.0
    wrong = ed.JordanWigner(jw.tgt.copy(), jw.sgn)
    wrong.tgt[p, s] = 2**n - 1 - jw.tgt[p, s]
    for broken in (flipped, wrong):
        ops = [dense_op(broken, q) for q in range(2 * n)]
        assert xp._check_car(broken) == _car_all_pairs(ops) > 0.0


def test_cli_fit(tmp_path):
    d = np.arange(0, 12)
    csv = tmp_path / "profile.csv"
    lines = ["distance,mean,stderr,count"]
    lines += [f"{di},{float(3.0 * np.exp(-0.7 * di))!r},0.0,5" for di in d]
    csv.write_text("\n".join(lines) + "\n")
    r = _run_cli(["fit", str(csv), "--min-distance", "2"], tmp_path)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["C"] == pytest.approx(3.0, rel=1e-6)
    assert out["eta"] == pytest.approx(0.7, rel=1e-6)


def test_xylab_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("XYLAB_WORKERS", "2")
    assert xp.effective_workers(1) == 2
    monkeypatch.delenv("XYLAB_WORKERS")
    assert xp.effective_workers(3) == 3


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_xylab_workers_env_rejects_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("XYLAB_WORKERS", value)
    with pytest.raises(xp.ConfigError, match="XYLAB_WORKERS"):
        xp.effective_workers(1)


def test_pool_size_clamps_to_realizations_and_cpus():
    assert xp.pool_size(1000, 50, 2) == 2
    assert xp.pool_size(8, 3, 16) == 3
    assert xp.pool_size(2, 50, 16) == 2
    assert xp.pool_size(4, 10, None) == 1
    assert xp.pool_size(4, 0, 8) == 1


def _index_seed_pid(ensemble, i, params):
    return i, ensemble.base_seed, params["tag"], os.getpid()


def _fail_on_realization_1(ensemble, i, params):
    if i == 1:
        raise ham.EigensolverError("injected")
    return np.zeros(3)


@pytest.mark.parametrize("realizations, workers", [(5, 2), (7, 3)])
def test_pool_returns_the_serial_list_in_index_order(monkeypatch, realizations, workers):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)  # the pool size, whatever the host
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=12, realizations=realizations))
    p = {"block": False, "max_distance": 6}
    serial = xp.map_realizations(xp._real_eigencorrelator, ensemble, p, 1)
    pooled = xp.map_realizations(xp._real_eigencorrelator, ensemble, p, workers)
    assert len(pooled) == realizations
    assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))
    # one contiguous chunk of ceil(R / workers) indices per task, run off the parent
    seen = xp.map_realizations(_index_seed_pid, ensemble, {"tag": "t"}, workers)
    assert [s[:3] for s in seen] == [(i, 11, "t") for i in range(realizations)]
    chunk = -(-realizations // workers)
    for start in range(0, realizations, chunk):
        assert len({s[3] for s in seen[start:start + chunk]}) == 1
    assert os.getpid() not in {s[3] for s in seen}


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_failure_names_the_realization_and_seed(monkeypatch, workers):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=8, realizations=4))
    with pytest.raises(xp.RealizationError) as info:
        xp.map_realizations(_fail_on_realization_1, ensemble, {}, workers)
    assert str(info.value) == "realization 1 (n=8, base_seed 11) failed: EigensolverError: injected"
    cause = info.value.__cause__
    if workers == 1:
        assert isinstance(cause, ham.EigensolverError)
    else:  # the pool chains the worker's formatted traceback, the original in it
        assert "EigensolverError: injected" in str(cause)


_TEST_PID = os.getpid()


def _die_on_realization_1(ensemble, i, params):
    if i == 1:
        if os.getpid() == _TEST_PID:  # never end the test process itself
            raise AssertionError("the map ran a worker in the test process")
        if params["how"] == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if params["how"] == "exit_3":
            os._exit(3)
        raise SystemExit(0)
    return np.zeros(3)


def _one_mib(ensemble, i, params):
    return np.random.default_rng(i).bytes(1 << 20)


class _InterruptOnLoad:
    def __reduce__(self):
        return _interrupt, ()


def _interrupt():
    raise KeyboardInterrupt


def _interrupt_the_parent(ensemble, i, params):
    if i >= 2:  # the second chunk would outlive the test unless killed
        time.sleep(60)
    return _InterruptOnLoad()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, instead of hanging, if a map waits on a pipe that never closes."""
    def expire(signum, frame):
        raise TimeoutError("map_realizations hung")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("how, status", [("sigkill", "signal 9"), ("exit_3", "exit status 3"),
                                         ("system_exit", "exit status 1")],
                         ids=["sigkill", "exit_3", "system_exit"])
def test_a_worker_process_that_dies_is_one_error(monkeypatch, tmp_path, deadline, how, status):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=8, realizations=4))
    try:
        with pytest.raises(xp.RealizationError) as info:
            xp.map_realizations(_die_on_realization_1, ensemble, {"how": how}, 2)
    finally:
        if os.getpid() != _TEST_PID:  # a child came back out of the map
            (tmp_path / f"escaped-{os.getpid()}").write_text("")
            os._exit(0)
    assert str(info.value) == ("realizations 0-1 (n=8, base_seed 11) failed: "
                               f"their worker process died ({status})")
    _assert_no_child_left()
    assert not list(tmp_path.iterdir())


def test_results_larger_than_a_pipe_buffer_come_back_intact(monkeypatch, deadline):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=8, realizations=4))
    pooled = xp.map_realizations(_one_mib, ensemble, {}, 2)
    _assert_no_child_left()
    assert pooled == [_one_mib(ensemble, i, {}) for i in range(4)]


def test_a_parent_side_interrupt_kills_and_reaps_every_child(monkeypatch, deadline):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=8, realizations=4))
    with pytest.raises(KeyboardInterrupt):  # not the deadline's TimeoutError: no wait on a sleeper
        xp.map_realizations(_interrupt_the_parent, ensemble, {}, 2)
    _assert_no_child_left()


def test_maps_leave_no_child_and_run_serially_without_fork(monkeypatch):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=8, realizations=4))
    seen = xp.map_realizations(_index_seed_pid, ensemble, {"tag": "t"}, 2)
    assert os.getpid() not in {s[3] for s in seen}
    _assert_no_child_left()
    with pytest.raises(xp.RealizationError):
        xp.map_realizations(_fail_on_realization_1, ensemble, {}, 2)
    _assert_no_child_left()
    monkeypatch.delattr(xp.os, "fork")
    seen = xp.map_realizations(_index_seed_pid, ensemble, {"tag": "t"}, 2)
    assert [s[0] for s in seen] == [0, 1, 2, 3]
    assert {s[3] for s in seen} == {os.getpid()}


def test_cli_run_reports_a_killed_worker_process_in_one_line(monkeypatch, tmp_path, capsys,
                                                             deadline):
    monkeypatch.setattr(xp.os, "cpu_count", lambda: 8)
    monkeypatch.delenv("XYLAB_WORKERS", raising=False)
    monkeypatch.setattr(xp, "_real_eigencorrelator",
                        lambda ensemble, i, params: _die_on_realization_1(ensemble, i, {"how": "sigkill"}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "experiment": "eigencorrelator",
        "ensemble": ensemble_json(n=8, realizations=3),
        "output_dir": str(tmp_path / "out"),
        "workers": 2,
    }))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "error: eigencorrelator: realizations 0-1 (n=8, base_seed 11) failed: "
        "their worker process died (signal 9)\n")
    _assert_no_child_left()


def test_cli_run_reports_a_worker_failure_in_one_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(xp, "_real_eigencorrelator", _fail_on_realization_1)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "experiment": "eigencorrelator",
        "ensemble": ensemble_json(n=8, realizations=3),
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: eigencorrelator: realization 1 (n=8, base_seed 11) failed: "
                   "EigensolverError: injected\n")


def test_import_loads_lapack_without_the_scipy_linalg_package():
    # hamiltonian loads scipy's _flapack extension from its file; the
    # scipy.linalg package, its array-API layer and scipy.special stay out,
    # and the map's forked children inherit the loaded extension; the map
    # forks them itself, so neither process-pool package is imported either
    r = subprocess.run(
        [sys.executable, "-c", "import sys, xylab.cli, xylab.hamiltonian as h; "
         "print(*(m in sys.modules for m in "
         "('scipy.linalg', 'scipy.special', 'scipy._lib._array_api', "
         "'concurrent.futures', 'multiprocessing')), "
         "h._flapack.__name__, callable(h._flapack.dstevd))"],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"] * 5 + ["scipy.linalg._flapack", "True"]


def test_clustering_matches_dense_projector_formula():
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=12, realizations=1, eps=0.3))
    times = np.arange(0.0, 4.01, 0.5)
    profile = xp._real_clustering(ensemble, 0, {"times": times, "state_seed": 3,
                                                "max_distance": None})
    sd = xp.diagonalize_A(xp.sample_chain(ensemble, 0))
    V, lam = sd.eigenvectors, sd.eigenvalues
    occ = np.random.default_rng(3).integers(0, 2, size=12)
    rho = V[:, occ == 1] @ V[:, occ == 1].T
    sup = np.zeros((12, 12))
    for t in times:
        U = (V * np.exp(2j * t * lam)) @ V.T
        sup = np.maximum(sup, np.abs((rho @ U).T * (U.conj() @ (np.eye(12) - rho))))
    assert np.max(np.abs(profile - xp.distance_profile(sup))) < 1e-14


@pytest.mark.parametrize("experiment, params, named, ensemble", [
    ("entanglement_static", {"strategy": "sampled", "samples": 4}, "params.ells", {}),
    ("eigencorrelator", {"min_distance": 7, "max_distance": 8}, "fit window", {}),
    ("eigencorrelator", {}, "ensemble.n", {"n": 20.7}),
    ("eigencorrelator", {}, "ensemble.n", {"n": True}),
    ("eigencorrelator", {}, "ensemble.realizations", {"realizations": 4.9}),
    ("oracle_check", {"n": "6"}, "params.n", {}),
    ("oracle_check", {"n": 4.5}, "params.n", {}),
])
def test_cli_run_bad_params_give_one_line_error(tmp_path, experiment, params, named, ensemble):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "experiment": experiment,
        "ensemble": {**ensemble_json(n=8, realizations=2), **ensemble},
        "params": params,
        "output_dir": str(tmp_path / "out"),
    }))
    r = _run_cli(["run", str(cfg_path)], tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert named in r.stderr


def test_cli_run_exits_nonzero_on_failed_verdict(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "experiment": "eigencorrelator",
        "ensemble": ensemble_json(n=12, realizations=2),
        "params": {"min_distance": 1, "max_distance": 8, "r2_min": 1.01},
        "output_dir": str(tmp_path / "out"),
    }))
    r = _run_cli(["run", str(cfg_path)], tmp_path)
    assert r.returncode == 1, r.stderr
    assert "FAIL  log_linear" in r.stdout
    assert "PASS  eta_positive" in r.stdout


def test_clustering_with_max_distance_matches_dense_formula():
    ensemble = xp.EnsembleSpec.from_json(ensemble_json(n=12, realizations=2, eps=0.3))
    times = np.arange(0.0, 4.01, 0.5)
    for i in range(2):
        profile = xp._real_clustering(ensemble, i, {"times": times, "state_seed": 3,
                                                    "max_distance": 4})
        sd = xp.diagonalize_A(xp.sample_chain(ensemble, i))
        V, lam = sd.eigenvectors, sd.eigenvalues
        occ = np.random.default_rng(3 + i).integers(0, 2, size=12)
        rho = V[:, occ == 1] @ V[:, occ == 1].T
        sup = np.zeros((12, 12))
        for t in times:
            U = (V * np.exp(2j * t * lam)) @ V.T
            sup = np.maximum(sup, np.abs((rho @ U).T * (U.conj() @ (np.eye(12) - rho))))
        assert profile.shape == (5,)
        assert np.max(np.abs(profile - xp.distance_profile(sup, 4))) < 1e-14


@pytest.mark.parametrize("experiment, check", [
    ("transport_particle", "particle_transport_check"),
    ("transport_energy", "energy_transport_check_isotropic"),
])
def test_transport_run_matches_public_check(tmp_path, experiment, check):
    # the experiment decomposes each chain once; the public series and bound
    # functions, fed the fit computed from a separate eigencorrelator pass
    # and reduced by aggregate, must give the same payload and rows
    params = {"s1": [12], "s2": list(range(1, 5)) + list(range(21, 25)),
              "fit_min_distance": 2, "fit_max_distance": 10, "slack": 3.0}
    if experiment == "transport_energy":
        params["s1"] = [11, 12]
    cfg = xp.parse_config({
        "experiment": experiment,
        "ensemble": ensemble_json(n=24, realizations=3, eps=0.05),
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": params,
        "output_dir": str(tmp_path),
    })
    payload = xp.run(cfg)
    profiles = [xp.distance_profile(xp.eigencorrelator_table(
        xp.diagonalize_A(xp.sample_chain(cfg.ensemble, i))), 10) for i in range(3)]
    fit = xp.fit_decay(xp.aggregate(profiles)["mean"], 2, 10)
    s1, s2 = sorted(set(params["s1"])), sorted(set(params["s2"]))
    eta = np.zeros(24)
    eta[np.array(s2) - 1] = 1.0
    chains = [xp.sample_chain(cfg.ensemble, i) for i in range(3)]
    times = cfg.time_grid.times()
    d = tr.region_distance(s1, s2)
    if check == "particle_transport_check":
        series = [tr.particle_number_series(ch, s1, eta, times, xp.diagonalize_A(ch)) for ch in chains]
        bound = tr.particle_transport_bound(fit, d)
        sups = xp.aggregate(float(np.max(v)) for v in series)
    else:
        series = [tr.energy_series_isotropic(ch, s1, eta, times, xp.diagonalize_A(ch)) for ch in chains]
        bound = tr.energy_transport_bound(fit, d, tr.matrix_norm_bound(cfg.ensemble))
        sups = xp.aggregate(float(np.max(np.abs(v))) for v in series)
    mean = xp.aggregate(series)["mean"]
    assert payload["fit"] == {"C": fit.C, "eta": fit.eta, "r_squared": fit.r_squared}
    assert (payload["baseline"], payload["sup"], payload["bound"], payload["pass"]) == (
        float(mean[0]), sups["mean"], bound, bool(sups["mean"] <= 3.0 * bound))
    name = "particle" if experiment == "transport_particle" else "energy"
    rows = (tmp_path / f"{name}_transport.csv").read_text().splitlines()[1:]
    assert rows == [f"{t!r},{v!r}" for t, v in zip(times.tolist(), mean.tolist())]


@pytest.mark.parametrize("workers", [None, "abc", "2", 1.5, 2.0, True, False, 0, -1, [2]])
def test_parse_config_rejects_non_integer_workers(workers):
    with pytest.raises(xp.ConfigError, match="workers"):
        xp.parse_config({"experiment": "eigencorrelator", "ensemble": ensemble_json(),
                         "workers": workers})


_NON_INTEGERS = [None, "4", 4.9, 4.0, True, False, -1, [4]]


@pytest.mark.parametrize("value", _NON_INTEGERS)
@pytest.mark.parametrize("field", ["n", "realizations", "base_seed"])
def test_parse_config_rejects_non_integer_ensemble_fields(field, value):
    with pytest.raises(xp.ConfigError, match=f"ensemble.{field}"):
        xp.parse_config({"experiment": "eigencorrelator",
                         "ensemble": {**ensemble_json(), field: value}})


@pytest.mark.parametrize("value", _NON_INTEGERS)
@pytest.mark.parametrize("field", ["n", "seed", "realizations"])
def test_oracle_check_rejects_non_integer_params(tmp_path, field, value):
    # checked at parse time, before any output directory is made
    with pytest.raises(xp.ConfigError, match=f"params.{field}"):
        xp.parse_config({"experiment": "oracle_check", "params": {field: value},
                         "output_dir": str(tmp_path / "out")})
    assert not (tmp_path / "out").exists()


def test_parse_config_accepts_integer_workers():
    cfg = xp.parse_config({"experiment": "eigencorrelator", "ensemble": ensemble_json(),
                           "workers": 3})
    assert cfg.workers == 3
    assert xp.parse_config({"experiment": "eigencorrelator",
                            "ensemble": ensemble_json()}).workers == 1


def _static_config(**params):
    return {"experiment": "entanglement_static", "ensemble": ensemble_json(n=8, realizations=2),
            "params": {"ells": [2, 4], **params}}


@pytest.mark.parametrize("value", [0, -1, 2.5, 200.0, "200", True, None])
def test_parse_config_rejects_bad_entanglement_samples(value):
    with pytest.raises(xp.ConfigError, match="params.samples"):
        xp.parse_config(_static_config(samples=value))


@pytest.mark.parametrize("value", ["greedy", "Sampled", None, 1])
def test_parse_config_rejects_unknown_entanglement_strategy(value):
    with pytest.raises(xp.ConfigError, match="params.strategy"):
        xp.parse_config(_static_config(strategy=value))


@pytest.mark.parametrize("samples", [0, 2.5])
def test_cli_rejects_bad_samples_before_any_realization(tmp_path, capsys, samples):
    cfg = tmp_path / "bad.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({**_static_config(samples=samples), "output_dir": str(out)}))
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "params.samples" in err
    assert not out.exists()


def test_parse_config_rejects_exhaustive_strategy_beyond_14_sites():
    config = _static_config(strategy="exhaustive")
    with pytest.raises(xp.ConfigError, match="params.strategy exhaustive needs ensemble.n <= 14"):
        xp.parse_config({**config, "ensemble": ensemble_json(n=15, realizations=2)})
    assert xp.parse_config({**config, "ensemble": ensemble_json(n=14, realizations=2)}).ensemble.n == 14


def test_parse_config_caps_oracle_check_n_at_the_oracle_size():
    with pytest.raises(xp.ConfigError, match=r"params.n must be an integer in \[1, 14\]"):
        xp.parse_config({"experiment": "oracle_check", "params": {"n": ed.MAX_SITES + 1}})
    assert xp.parse_config({"experiment": "oracle_check",
                            "params": {"n": ed.MAX_SITES}}).params["n"] == ed.MAX_SITES


def _transport_config(experiment, **params):
    return {"experiment": experiment, "ensemble": ensemble_json(n=20, realizations=2),
            "time_grid": {"T": 1.0, "dt": 0.5}, "params": params}


_FLATNESS = {"variant": "anisotropic_flatness", "sizes": [12, 16]}
_FLATNESS_12 = {"variant": "anisotropic_flatness", "sizes": [12], "s1": [1, 2]}
_ISO = {"s1": [10], "s2": [1, 20]}


@pytest.mark.parametrize("experiment, params, named", [
    ("transport_particle", {"s1": [10], "s2": [1, 21]}, "params.s2"),  # S2 past the chain
    ("transport_particle", {"s1": [0], "s2": [1, 2]}, "params.s1"),  # site 0 wrapped to site n
    ("transport_particle", {"s1": [10], "s2": [1, 2.0]}, "params.s2"),  # not an integer
    ("transport_particle", {"s1": [10], "s2": []}, "params.s2"),  # empty
    ("transport_particle", {"s1": [10]}, "params.s2"),  # missing
    ("transport_energy", {"s1": [8, 12], "s2": [1, 10]}, "params.s2"),  # S2 inside S1's hull
    ("transport_energy", {**_FLATNESS, "s1": [11, 12, 13]}, "params.s1"),  # past the smallest size
    ("transport_energy", {**_FLATNESS, "s1": [1, 3]}, "params.s1"),  # not an interval
    ("transport_energy", {"variant": "flat", "s1": [10], "s2": [1]}, "params.variant"),
    ("transport_energy", {"s1": [8, 10], "s2": [1, 20]}, "params.s1"),  # isotropic, not an interval
    ("transport_particle", {**_ISO, "eta_value": "0.5"}, "params.eta_value"),
    ("transport_particle", {**_ISO, "eta_value": 2.0}, "params.eta_value"),
    ("transport_particle", {**_ISO, "eta_value": True}, "params.eta_value"),
    ("transport_particle", {**_ISO, "eta_value": float("nan")}, "params.eta_value"),
    ("transport_energy", {**_ISO, "eta_value": -0.5}, "params.eta_value"),
    ("transport_energy", {**_FLATNESS, "s1": [1, 2], "eta_profile": "zeros"}, "params.eta_profile"),
    ("transport_energy", {**_FLATNESS, "s1": [1, 2], "eta_profile": 0.5}, "params.eta_profile"),
    ("transport_energy", {**_FLATNESS, "s1": [1, 2], "eta_profile": [1.0] * 12},
     "params.eta_profile"),  # the length of one size, not of every size
    ("transport_energy", {**_FLATNESS_12, "eta_profile": [0.5] * 11}, "params.eta_profile"),
    ("transport_energy", {**_FLATNESS_12, "eta_profile": [0.5] * 11 + [1.5]}, "params.eta_profile"),
    ("transport_energy", {**_FLATNESS_12, "eta_profile": [0.5] * 11 + ["1"]}, "params.eta_profile"),
    ("transport_energy", {**_FLATNESS_12, "eta_profile": [0.5] * 11 + [float("inf")]},
     "params.eta_profile"),
], ids=["s2-past-n", "s1-site-0", "s2-float", "s2-empty", "s2-missing", "s2-in-hull",
        "flatness-s1-past-size", "flatness-s1-gap", "unknown-variant", "energy-s1-gap",
        "eta-value-string",
        "eta-value-above-1", "eta-value-bool", "eta-value-nan", "energy-eta-value-negative",
        "eta-profile-unknown-name", "eta-profile-number", "eta-profile-one-size",
        "eta-profile-short", "eta-profile-above-1", "eta-profile-string-entry",
        "eta-profile-inf-entry"])
def test_cli_rejects_bad_transport_regions_before_any_realization(tmp_path, capsys, experiment,
                                                                  params, named):
    cfg = tmp_path / "bad.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({**_transport_config(experiment, **params), "output_dir": str(out)}))
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, params", [
    ("transport_particle", {"s1": [10], "s2": [1, 20]}),
    ("transport_energy", {"s1": [8, 9, 10], "s2": [11, 12]}),  # S2 next to S1's hull
    ("transport_energy", {**_FLATNESS, "s1": [10, 11, 12]}),
    ("transport_particle", {**_ISO, "eta_value": 0}),
    ("transport_energy", {**_ISO, "eta_value": 1.0}),
    ("transport_energy", {**_FLATNESS, "s1": [1, 2], "eta_profile": "half"}),
    ("transport_energy", {**_FLATNESS_12, "eta_profile": [0, 1.0] * 6}),
])
def test_parse_config_accepts_transport_regions_on_the_chain(experiment, params):
    # each given key comes back unchanged, every other key that the variant
    # reads holds its default, and the keys that it rejects are absent
    unread = PARAMS[experiment].unread.get(params.get("variant", "isotropic_bound"), ())
    assert xp.parse_config(_transport_config(experiment, **params)).params == {
        k: v for k, v in {**DEFAULTS[experiment], **params}.items() if k not in unread}


@pytest.mark.parametrize("experiment, params, ensemble, named", [
    ("eigencorrelator", {"max_distance": "5"}, {}, "params.max_distance"),
    ("eigencorrelator", {"min_distance": 2.5}, {}, "params.min_distance"),
    ("lr_bound", {"min_distance": -1}, {}, "params.min_distance"),
    ("correlations", {"state_seed": "a"}, {}, "params.state_seed"),
    ("entanglement_static", {"ells": 5}, {}, "params.ells"),
    ("entanglement_static", {"ells": [0]}, {}, "params.ells"),
    ("entanglement_static", {"ells": [20]}, {}, "params.ells"),
    ("entanglement_static", {"ells": [4], "label_seed": -1}, {}, "params.label_seed"),
    ("entanglement_static", {"ells": [4], "fit_max_distance": 8.0}, {}, "params.fit_max_distance"),
    ("entanglement_quench", {"ells": [25]}, {}, "params.ells"),
    ("entanglement_quench", {"ells": []}, {}, "params.ells"),
    ("fock", {"r_max": 0}, {}, "params.r_max"),
    ("fock", {"pair_seed": -1}, {}, "params.pair_seed"),
    ("eigencorrelator", {"block": "yes"}, {}, "params.block"),
    ("lr_bound", {"block": 1}, {}, "params.block"),
    ("eigencorrelator", {}, {"mu": {"kind": "constant", "value": "0.05"}}, "ensemble.mu.value"),
    ("eigencorrelator", {}, {"nu": {"kind": "uniform", "lo": True, "hi": 1.0}}, "ensemble.nu.lo"),
    ("eigencorrelator", {}, {"gamma": {"kind": "uniform", "lo": -0.5, "hi": float("inf")}},
     "ensemble.gamma.hi"),
    ("fock", {"r_max": 21}, {}, "params.r_max"),
    ("fock", {}, {"n": 4}, "params.r_max"),  # the default r_max 5
    # fit windows of two distances, clipped as the drivers clip them
    ("eigencorrelator", {"min_distance": 7, "max_distance": 8}, {},
     "params.min_distance, params.max_distance"),
    ("lr_bound", {"min_distance": 18}, {}, "params.min_distance, params.max_distance"),
    ("correlations", {"min_distance": 18, "max_distance": 40}, {},
     "params.min_distance, params.max_distance"),
    ("entanglement_static", {"ells": [4], "fit_min_distance": 4, "max_distance": 5}, {},
     "params.fit_min_distance, params.fit_max_distance, params.max_distance"),
    ("fock", {"fit_max_distance": 2}, {}, "params.fit_min_distance, params.fit_max_distance"),
    ("transport_particle", {"s1": [10], "s2": [1, 20], "fit_min_distance": 18}, {},
     "params.fit_min_distance, params.fit_max_distance"),
    ("transport_energy", {"s1": [9, 10], "s2": [1, 20], "fit_min_distance": 5,
                          "fit_max_distance": 6}, {},
     "params.fit_min_distance, params.fit_max_distance"),
    # fock's floats: tau in (0, 1) with 2 n^tau <= n - 1, alpha > 1, 0 < eta0 < eta
    ("fock", {"tau": 1.5}, {"n": 30}, "params.tau"),
    ("fock", {"tau": 0.99}, {"n": 30}, "params.tau"),
    ("fock", {"eta0": 10.0}, {"n": 30}, "params.eta0"),
    ("fock", {"eta": 1.0, "eta0": 10.0}, {"n": 30}, "params.eta0"),
    ("fock", {"eta": 0.0}, {}, "params.eta"),
    ("fock", {"alpha": "a"}, {}, "params.alpha"),
    ("fock", {"alpha": 1.0}, {}, "params.alpha"),
    ("fock", {"matched_min": "a"}, {}, "params.matched_min"),
    # unknown keys, bad thresholds and a missing required key
    ("entanglement_static", {"sampels": 3, "stratgy": "exhaustive"}, {},
     "params.sampels, params.stratgy"),
    ("eigencorrelator", {"r2_min": "high"}, {}, "params.r2_min"),
    ("entanglement_static", {"ells": [4], "slack": -1.0}, {}, "params.slack"),
    ("transport_particle", {"s1": [10], "s2": [1, 20], "slack": 0}, {}, "params.slack"),
    ("oracle_check", {"sede": 3}, {}, "params.sede"),
    ("fock", {"max_distnace": 8}, {}, "params.max_distnace"),
    ("entanglement_static", {}, {}, "params.ells"),
    # each transport_energy variant rejects the keys that only the other reads
    ("transport_energy", {**_FLATNESS_12, "s2": [5], "eta_value": 0.3, "slack": 9.0}, {},
     "params.s2, params.eta_value, params.slack for transport_energy variant anisotropic_flatness"),
    ("transport_energy", {**_FLATNESS_12, "fit_min_distance": 1, "fit_max_distance": 8,
                          "max_distance": 8}, {}, "params.fit_min_distance, params.fit_max_distance, "
     "params.max_distance for transport_energy variant anisotropic_flatness"),
    ("transport_energy", {**_ISO, "sizes": [12], "eta_profile": "ones"}, {},
     "params.sizes, params.eta_profile for transport_energy variant isotropic_bound"),
], ids=["max-distance-string", "min-distance-float", "min-distance-negative", "state-seed-string",
        "ells-number", "ells-0", "ells-n", "label-seed-negative", "fit-max-distance-float",
        "quench-ells-past-n", "quench-ells-empty", "r-max-0", "pair-seed-negative",
        "block-string", "block-int", "mu-value-string", "nu-lo-bool", "gamma-hi-inf",
        "r-max-past-n", "r-max-default-past-n", "eigencorrelator-window", "lr-bound-window",
        "correlations-window", "entanglement-static-window", "fock-window",
        "transport-particle-window", "transport-energy-window", "tau-above-1",
        "tau-pairs-past-n", "eta0-without-eta", "eta0-above-eta", "eta-0", "alpha-string",
        "alpha-1", "matched-min-string", "unknown-keys", "r2-min-string", "slack-negative",
        "transport-slack-0", "oracle-unknown-key", "fock-unknown-key", "ells-missing",
        "flatness-isotropic-keys", "flatness-fit-window", "isotropic-flatness-keys"])
def test_cli_rejects_bad_params_before_any_realization(tmp_path, capsys, experiment, params,
                                                      ensemble, named):
    cfg = tmp_path / "bad.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"experiment": experiment,
                               "ensemble": {**ensemble_json(n=20, realizations=2), **ensemble},
                               "time_grid": {"T": 1.0, "dt": 0.5}, "params": params,
                               "output_dir": str(out)}))
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_cli_rejects_a_missing_time_grid_before_any_realization(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"experiment": "lr_bound", "ensemble": ensemble_json(n=12),
                               "params": {"max_distance": 8}, "output_dir": str(out)}))
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid config: experiment lr_bound requires time_grid\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment, params", [
    ("eigencorrelator", {"min_distance": 0, "max_distance": None, "block": False}),
    ("entanglement_static", {"ells": [1, 19], "label_seed": 0, "fit_max_distance": None}),
    ("fock", {"r_max": 1, "pair_seed": 0}),
    ("fock", {"r_max": 20, "fit_min_distance": 2, "fit_max_distance": 4}),
    # fit windows of exactly three distances
    ("eigencorrelator", {"min_distance": 17}),
    ("correlations", {"min_distance": 6, "max_distance": 8}),
    ("entanglement_static", {"ells": [4], "fit_min_distance": 3, "max_distance": 5}),
    # fock's floats at their edges: 2 n^tau = 18.9 <= n - 1 at tau 0.75, eta0 just below eta
    ("fock", {"tau": 0.75, "alpha": 1.01, "eta": 0.5, "eta0": 0.499, "matched_min": 1,
              "certified_min": 0, "overlap_min": 1.0}),
    ("fock", {"eta": 0.5, "eta0": None, "max_distance": 8}),
    ("transport_particle", {"s1": [10], "s2": [1, 20], "slack": 1e-9, "max_distance": None}),
])
def test_parse_config_accepts_params_at_their_edges(experiment, params):
    cfg = {"experiment": experiment, "ensemble": ensemble_json(n=20, realizations=2),
           "time_grid": {"T": 1.0, "dt": 0.5}, "params": params}
    # each given key comes back unchanged and every other key holds its default
    assert xp.parse_config(cfg).params == {**DEFAULTS[experiment], **params}


@pytest.mark.parametrize("value", [2.5, 3.0, 0, "3", True])
def test_parse_config_rejects_bad_fock_pair_count(value):
    with pytest.raises(xp.ConfigError, match="params.pair_count"):
        xp.parse_config(_fock_config(pair_count=value))


@pytest.mark.parametrize("grid, field", [
    ({"T": "5", "dt": 1.0}, "T"),
    ({"T": 5.0, "dt": True}, "dt"),
    ({"T": None, "dt": 1.0}, "T"),
    ({"T": 5.0, "dt": "0.5"}, "dt"),
    ({"T": [5.0], "dt": 1.0}, "T"),
    ({"T": float("inf"), "dt": 1.0}, "T"),
    ({"T": 5.0, "dt": float("nan")}, "dt"),
    ({"T": 10**400, "dt": 1.0}, "T"),
], ids=["T-string", "dt-bool", "T-null", "dt-string", "T-list", "T-inf", "dt-nan", "T-huge-int"])
def test_parse_config_rejects_non_numeric_time_grid(grid, field):
    with pytest.raises(xp.ConfigError, match=f"time_grid.{field} must be a finite number"):
        xp.parse_config({"experiment": "lr_bound", "ensemble": ensemble_json(), "time_grid": grid})


def test_parse_config_accepts_integer_time_grid():
    grid = xp.parse_config({"experiment": "lr_bound", "ensemble": ensemble_json(),
                            "time_grid": {"T": 50, "dt": 1}}).time_grid
    assert grid == TimeGrid(T=50.0, dt=1.0)
    assert type(grid.T) is float and type(grid.dt) is float


def test_config_hash_covers_only_the_science():
    base = {"experiment": "eigencorrelator", "ensemble": ensemble_json(),
            "params": {"min_distance": 1, "max_distance": 10}}
    h = xp.config_hash({**base, "output_dir": "out/a", "workers": 1})
    assert xp.config_hash({**base, "output_dir": "elsewhere/b", "workers": 4}) == h
    assert xp.config_hash(base) == h
    assert xp.config_hash({**base, "params": {"min_distance": 2, "max_distance": 10}}) != h
    assert xp.config_hash({**base, "time_grid": {"T": 1.0, "dt": 0.5}}) != h


def _aniso_energy_config():
    return {
        "experiment": "transport_energy",
        "ensemble": {**ensemble_json(n=12, realizations=3, seed=3, eps=0.05),
                     "gamma": {"kind": "uniform", "lo": -0.5, "hi": 0.5},
                     "nu": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": {"variant": "anisotropic_flatness", "sizes": [12, 16],
                   "s1": [1, 2, 3], "eta_profile": "ones"},
    }


_POOLED_RUNS = {
    "transport_particle": {
        "experiment": "transport_particle",
        "ensemble": ensemble_json(n=24, realizations=3, eps=0.05),
        "time_grid": {"T": 5.0, "dt": 0.5},
        "params": {"s1": [12], "s2": [1, 2, 23, 24], "fit_min_distance": 2, "fit_max_distance": 10},
    },
    "entanglement_static": {
        "experiment": "entanglement_static",
        "ensemble": ensemble_json(n=16, realizations=3, eps=0.05),
        "params": {"ells": [4, 8], "samples": 20, "max_distance": 8,
                   "fit_min_distance": 2, "fit_max_distance": 8},
    },
    "transport_energy_aniso": _aniso_energy_config(),
    "fock": _fock_config(),
}


@pytest.mark.parametrize("name", list(_POOLED_RUNS))
def test_transport_workers_do_not_change_output(tmp_path, name):
    base = _POOLED_RUNS[name]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    xp.run(xp.parse_config({**base, "output_dir": str(serial), "workers": 1}))
    xp.run(xp.parse_config({**base, "output_dir": str(parallel), "workers": 2}))
    _assert_same_files(serial, parallel)


def test_anisotropic_energy_run_samples_each_chain_once(tmp_path, monkeypatch):
    # one worker per realization returns both the series and the mean energy
    calls = Counter()

    def counting(ensemble, i):
        calls[(ensemble.n, i)] += 1
        return sample_chain(ensemble, i)

    # experiments is the only module that samples chains
    monkeypatch.setattr(xp, "sample_chain", counting)
    xp.run(xp.parse_config({**_aniso_energy_config(), "output_dir": str(tmp_path)}))
    assert calls == {(n, i): 1 for n in (12, 16) for i in range(3)}


def test_one_decomposition_of_M_per_realization(tmp_path, monkeypatch):
    # M's eigensystem is read off the Bogoliubov W: the dense 2n eigh runs
    # on no production path, and entanglement_static decomposes each chain
    # once for both its entropies and its block eigencorrelator profile
    monkeypatch.delenv("XYLAB_WORKERS", raising=False)
    dense = []
    bogs = Counter()
    bogoliubov = ham.bogoliubov

    def counting_dense(X):
        dense.append(len(X))
        return ham.SpectralDecomposition(*np.linalg.eigh(X))

    def counting_bog(chain):
        bogs[chain] += 1
        return bogoliubov(chain)

    for mod in (ham, xp, ent, tr, qf):
        monkeypatch.setattr(mod, "diagonalize", counting_dense, raising=False)
        monkeypatch.setattr(mod, "bogoliubov", counting_bog, raising=False)
    aniso = {**ensemble_json(n=12, realizations=2, eps=0.3),
             "gamma": {"kind": "uniform", "lo": -0.5, "hi": 0.5}}
    runs = {
        "eigencorrelator": {"experiment": "eigencorrelator", "ensemble": aniso,
                            "params": {"block": True, "max_distance": 6}},
        "lr_bound": {"experiment": "lr_bound", "ensemble": aniso,
                     "time_grid": {"T": 2.0, "dt": 0.5},
                     "params": {"block": True, "max_distance": 6}},
        "entanglement_quench": {"experiment": "entanglement_quench", "ensemble": aniso,
                                "time_grid": {"T": 2.0, "dt": 0.5}, "params": {"ells": [3, 6]}},
        "transport_energy": {**_aniso_energy_config(), "time_grid": {"T": 2.0, "dt": 0.5}},
        "oracle_check": {"experiment": "oracle_check",
                         "params": {"n": 4, "seed": 5, "realizations": 2}},
        "entanglement_static": _POOLED_RUNS["entanglement_static"],
    }
    for name, cfg in runs.items():
        bogs.clear()
        xp.run(xp.parse_config({**cfg, "output_dir": str(tmp_path / name), "workers": 1}))
        assert dense == [], name
    ensemble = xp.parse_config({**runs["entanglement_static"], "output_dir": str(tmp_path)}).ensemble
    assert bogs == {sample_chain(ensemble, i): 1 for i in range(3)}


def test_fock_run_decomposes_each_chain_once(tmp_path, monkeypatch):
    # one pass: the worker that measures the fit's profile also measures
    # the centers, the decay envelope and the pair overlaps
    monkeypatch.delenv("XYLAB_WORKERS", raising=False)
    samples, decompositions = Counter(), Counter()
    diagonalize_A = ham.diagonalize_A

    def counting_sample(ensemble, i):
        samples[i] += 1
        return sample_chain(ensemble, i)

    def counting_diagonalize(chain):
        decompositions[chain] += 1
        return diagonalize_A(chain)

    monkeypatch.setattr(xp, "sample_chain", counting_sample)
    monkeypatch.setattr(xp, "diagonalize_A", counting_diagonalize)
    xp.run(xp.parse_config({**_fock_config(), "output_dir": str(tmp_path), "workers": 1}))
    ensemble = xp.parse_config({**_fock_config(), "output_dir": str(tmp_path)}).ensemble
    assert samples == {i: 1 for i in range(5)}
    assert decompositions == {sample_chain(ensemble, i): 1 for i in range(5)}


def _fock_two_pass(cfg):
    """fock as two passes over the ensemble: a fit pass, then a pass that
    checks every eigenvector entry against the decay envelope and every
    pair's overlap against its bound."""
    p, ens, n = cfg.params, cfg.ensemble, cfg.ensemble.n
    tau = p["tau"]
    profiles = [xp.distance_profile(xp.eigencorrelator_table(xp.diagonalize_A(
        sample_chain(ens, i))), p["fit_max_distance"]) for i in range(ens.realizations)]
    fit = xp.fit_decay(xp.aggregate(profiles)["mean"], p["fit_min_distance"], p["fit_max_distance"])
    eta = 0.5 * fit.eta if p["eta"] is None else p["eta"]
    eta0 = 0.25 * eta
    pairs = fock.sample_configuration_pairs(n, tau, p["pair_count"], p["pair_seed"], p["r_max"])
    I = fit.C * qf.growth_series(n**tau, eta0)
    const = 8.0 * max(I, np.sqrt(I)) * n ** (2 * tau)
    rows = []
    for i in range(ens.realizations):
        sd = xp.diagonalize_A(sample_chain(ens, i))
        ca = fock.locate_centers(sd, p["alpha"])
        V = sd.eigenvectors
        certified = True
        for r in range(n):
            for j in range(1, n + 1):
                d = abs(j - ca.centers[r])
                if d >= n**tau and abs(V[j - 1, r]) > np.exp(-eta * d):
                    certified = False
        passed = 0
        for k, j in pairs:
            D = qf.configuration_distance(k, j)
            assert D >= 2 * n**tau
            passed += abs(fock.slater_overlap(V, k, j)) <= const * np.exp(-0.25 * (eta - eta0) * D)
        rows.append((ca.matched, ca.fallback_count, certified, passed / len(pairs)))
    return fit, eta, rows


@pytest.mark.parametrize("eps, params", [(0.05, {}), (0.5, {"eta": 2.0})],
                         ids=["fitted-eta", "steep-eta"])
def test_fock_one_pass_matches_two_pass_reference(tmp_path, eps, params):
    cfg = xp.parse_config({**_fock_config(eps, **params), "output_dir": str(tmp_path)})
    payload = xp.run(cfg)
    fit, eta, rows = _fock_two_pass(cfg)
    matched, _, certified, passed = xp.aggregate(rows)["mean"].tolist()
    assert payload["fit"] == {"C": fit.C, "eta": fit.eta, "r_squared": fit.r_squared}
    assert json.loads((tmp_path / "fock_report.json").read_text()) == {
        "alpha": 1.25, "tau": 0.5, "eta": eta, "matched_fraction": matched,
        "certified_fraction": certified, "overlap_pass_fraction": passed,
        "fallback_total": sum(r[1] for r in rows),
    }
    # the cases reach both verdicts of the certificate and of the overlap bound
    assert {r[2] for r in rows} == {True, False} or min(r[3] for r in rows) < 1.0


_REPO = Path(__file__).resolve().parent.parent


def test_parse_config_accepts_every_benchmark_config(tmp_path, monkeypatch):
    # the benchmark's job configs (perfbench/workloads.py, standard library
    # only) must pass the params table, at full size and tiny
    monkeypatch.syspath_prepend(str(_REPO / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        for tiny in (False, True):
            jobs = workloads.job_configs(workload, 1, str(tmp_path), tiny=tiny)
            jobs += workloads.warmup_configs(jobs)
            for name, cfg in jobs:
                assert xp.parse_config(cfg).experiment == cfg["experiment"], name


def test_readme_params_reference_lists_the_table_keys():
    # README's "Params reference": one "#### `experiment`" table per
    # experiment, one row per key, in the table's order
    text = (_REPO / "README.md").read_text()
    section = text.split("### Params reference", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for block in section.split("#### `")[1:]:
        name, body = block.split("`", 1)
        listed[name] = [line.split("`")[1] for line in body.splitlines() if line.startswith("| `")]
    assert listed == {name: list(e.params) for name, e in xp.PARAMS.items()}


def _library_trees():
    """The modules of src/xylab but __init__, and {path: AST} of those and
    of perfbench's non-test code."""
    src = [f for f in (_REPO / "src" / "xylab").glob("*.py") if f.name != "__init__.py"]
    bench = [f for f in (_REPO / "perfbench").rglob("*.py") if "tests" not in f.parts]
    return src, {f: ast.parse(f.read_text()) for f in src + bench}


_UNCALLED = {"eigencorrelator.lr_commutator_bound",  # the lr_bound experiment reports it once wired
             "hamiltonian.diagonalize"}  # the tests' dense reference; perfbench traces it by name


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    # every public function, class and method defined in src/xylab is named
    # outside its own definition and __init__, in src/xylab or in perfbench's
    # non-test code; the run_<experiment> drivers are reached through _RUNNERS
    src, trees = _library_trees()
    uses = [(f, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for f, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unreached = set()
    for f in src:
        defs = [(d, d.name) for d in trees[f].body if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        defs += [(m, f"{c.name}.{m.name}") for c, _ in defs if isinstance(c, ast.ClassDef)
                 for m in c.body if isinstance(m, ast.FunctionDef)]
        for d, qualname in defs:
            name = qualname.split(".")[-1]
            runner = f.stem == "experiments" and name[4:] in xp.PARAMS
            called = any(n == name and not (g == f and d.lineno <= line <= d.end_lineno)
                         for g, line, n in uses)
            if not (name.startswith("_") or runner or called):
                unreached.add(f"{f.stem}.{qualname}")
    assert unreached == _UNCALLED


# ROADMAP item 3 asserts the flag where the spectrum collides, and item 10's
# numerical-health record counts it
_UNREAD_FIELDS = {"hamiltonian.BogoliubovDecomposition.degenerate"}


def test_every_field_in_src_is_read_outside_the_tests():
    # every field declared on a dataclass or NamedTuple in src/xylab is loaded
    # as an attribute somewhere in src/xylab or in perfbench's non-test code
    src, trees = _library_trees()
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for f in src:
        for c in trees[f].body:
            if isinstance(c, ast.ClassDef) and (
                    any("dataclass" in ast.unparse(d) for d in c.decorator_list)
                    or any(ast.unparse(b) == "NamedTuple" for b in c.bases)):
                unread |= {f"{f.stem}.{c.name}.{a.target.id}" for a in c.body
                           if isinstance(a, ast.AnnAssign) and a.target.id not in loaded}
    assert unread == _UNREAD_FIELDS
