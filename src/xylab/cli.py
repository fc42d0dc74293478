"""Command-line entry points.

    xylab run <config.json>         run an experiment config
    xylab oracle-check --n 6 --seed 42
    xylab fit <csv> --min-distance 5
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .eigencorrelator import fit_decay
from .config import DEFAULTS
from .certify import oracle_suite
from .experiments import ConfigError, RealizationError, parse_config, run, write_json
from .hamiltonian import EigensolverError


def _error(message: str) -> int:
    """Report bad input or an unwritable output in one line; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _out_of_memory(what: str, n: int, exc: MemoryError) -> int:
    """Report a run out of memory in one line that names it and its n."""
    return _error(f"{what} at n={n} ran out of memory" + (f": {exc}" if str(exc) else ""))


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        return _error(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        return _error(f"config is not valid JSON: {exc}")
    try:
        config = parse_config(raw)
        payload = run(config)
    except ConfigError as exc:
        return _error(f"invalid config: {exc}")
    except (ValueError, RealizationError, EigensolverError) as exc:
        return _error(str(exc))
    except MemoryError as exc:  # the in-process oracle; workers report theirs as RealizationError
        return _out_of_memory(config.experiment, config.ensemble.n if config.ensemble else config.params["n"], exc)
    except OSError as exc:
        return _error(f"cannot write artifacts: {exc}")
    verdicts = payload.get("verdicts", {})
    for name, ok in sorted(verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"artifacts written to {config.output_dir}")
    return 0 if all(verdicts.values()) else 1


def _cmd_oracle_check(args) -> int:
    params = {key: getattr(args, key) for key in DEFAULTS["oracle_check"]}
    try:
        result = oracle_suite(**parse_config({"experiment": "oracle_check", "params": params}).params)
    except (ValueError, EigensolverError) as exc:  # the params of oracle_check are the command's flags
        return _error(str(exc).replace("params.", "--"))
    except MemoryError as exc:
        return _out_of_memory("oracle-check", args.n, exc)
    for name in sorted(result["checks"]):
        ok = result["checks"][name]
        print(f"{'PASS' if ok else 'FAIL'}  {name}  (max error {result['max_errors'][name]:.3e})")
    if args.output:
        try:
            write_json(args.output, result)
        except OSError as exc:
            return _error(f"cannot write artifacts: {exc}")
    return 0 if result["all_pass"] else 1


def _cmd_fit(args) -> int:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without data rows is reported below
            rows = np.loadtxt(args.csv, delimiter=",", skiprows=1, ndmin=2)
        if rows.size == 0 or rows.shape[1] < 2:
            raise ValueError("csv needs data rows with columns distance, mean")
        d = rows[:, 0]
        if not (np.all(np.isfinite(d) & (d >= 0) & (d == np.floor(d))) and len(np.unique(d)) == len(d)):
            raise ValueError("column distance must hold distinct non-negative integers")
        distances = d.astype(int)
        values = np.zeros(int(distances.max()) + 1)
        values[distances] = rows[:, 1]
        fit = fit_decay(values, args.min_distance, args.max_distance)
    except OSError as exc:
        return _error(f"cannot read csv: {exc}")
    except ValueError as exc:
        return _error(str(exc))
    print(json.dumps(
        {"C": fit.C, "eta": fit.eta, "r_squared": fit.r_squared,
         "min_distance": fit.min_distance},
        indent=2, sort_keys=True,
    ))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="xylab",
        description="Localization diagnostics for the disordered XY chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run an experiment config (JSON)",
        description="Runs one experiment. Data CSVs use the column sets "
        "documented per experiment: eigencorrelator/lr_bound/correlations "
        "write (distance, mean, stderr, count); entanglement experiments "
        "write (ell, statistic, mean, stderr, count, strategy); transport "
        "writes (t, value) plus a summary with baseline/sup/bound/pass.",
    )
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle-check", help="run the brute-force identity suite")
    for key, default in DEFAULTS["oracle_check"].items():
        p_oracle.add_argument(f"--{key}", type=int, default=default)
    p_oracle.add_argument("--output", help="optional JSON output path")
    p_oracle.set_defaults(fn=_cmd_oracle_check)

    p_fit = sub.add_parser("fit", help="exponential-decay fit of a profile CSV")
    p_fit.add_argument("csv", help="CSV with columns distance, mean, ...")
    p_fit.add_argument("--min-distance", type=int, default=1)
    p_fit.add_argument("--max-distance", type=int, default=None)
    p_fit.set_defaults(fn=_cmd_fit)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
