"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--seeds 0 1 2] [--workload static ...]

Runs one untimed pass of each workload per seed with the code of the
checkout and writes perfbench/reference/<workload>.json.  Record only
from a commit whose outputs are trusted: a later change is checked
against these numbers.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import check
import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    args = ap.parse_args(argv)
    run.pin_environment()
    run.REFERENCE.mkdir(exist_ok=True)
    workdir = run.RESULTS / f"work-{os.getpid()}"
    try:
        for workload in args.workload:
            seeds = {}
            for seed in args.seeds:
                bench = run.setup(workload, seed, workdir, trace=False)
                bench.reference = {}
                problems = bench.run_pass()["problems"]
                bad = {name: [m for m in msgs if m != check.NO_REFERENCE]
                       for name, msgs in problems.items() if msgs != [check.NO_REFERENCE]}
                if bad:
                    print(f"{workload} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                seeds[seed] = bench.outputs()
            check.write_reference(run.REFERENCE / f"{workload}.json", seeds)
            print(f"recorded {workload} seeds {args.seeds}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
