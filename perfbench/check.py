"""Output checks of one experiment job.

`read_outputs` turns a job's output directory into plain data: each CSV
becomes its header and rows, each JSON file its content, with numbers
parsed.  The ``config`` echo and ``config_hash`` of ``summary.json`` are
dropped, because they restate the input (output path included), not
results.

`check_job` returns a list of problems (empty means pass):
- at every seed, the hard invariants: the oracle identities pass with
  every worst error within its tolerance, and the lr_bound amplitudes
  stay dominated by the eigencorrelator; every number is finite; and
  the files, headers and row counts have the reference's shape;
- at a seed with a recorded reference, every verdict, string and
  integer equals the reference and every float is within
  ``abs(a - b) <= TOLERANCE * max(1, abs(b))``.  This is not a byte
  comparison, so optimisations that reassociate floating-point sums
  still pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Relative tolerance above magnitude 1, absolute below; no looser than
# the 1e-8 the oracle suite grants its identities.
TOLERANCE = 1e-8

LR_DOMINANCE = 1e-9

NO_REFERENCE = "no reference recorded for this job"


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(job_dir) -> dict:
    out = {}
    for path in sorted(Path(job_dir).iterdir()):
        if path.suffix == ".csv":
            lines = path.read_text().splitlines()
            out[path.name] = {"header": lines[0].split(","),
                              "rows": [[_parse_cell(c) for c in line.split(",")] for line in lines[1:]]}
        elif path.suffix == ".json":
            data = json.loads(path.read_text())
            if path.name == "summary.json":
                data.pop("config", None)
                data.pop("config_hash", None)
            out[path.name] = data
    return out


def _compare(got, ref, where: str, values: bool, problems: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                            f"!= reference {sorted(ref)}")
            return
        for key in ref:
            _compare(got[key], ref[key], f"{where}.{key}", values, problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: length {len(got) if isinstance(got, list) else got!r} "
                            f"!= reference {len(ref)}")
            return
        for k, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{where}[{k}]", values, problems)
    elif _numeric(ref) and _numeric(got):
        if not math.isfinite(got):
            problems.append(f"{where}: {got!r} is not finite")
        elif values and (abs(got - ref) > TOLERANCE * max(1.0, abs(ref)) if isinstance(ref, float)
                         else got != ref):
            problems.append(f"{where}: {got!r} differs from reference {ref!r}")
    elif type(got) is not type(ref) or ((values or isinstance(ref, str)) and got != ref):
        # strings (headers, statistic names) do not depend on the seed
        problems.append(f"{where}: {got!r} does not match reference {ref!r}")


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _invariants(experiment: str, outputs: dict) -> list:
    summary = outputs.get("summary.json", {})
    problems = []
    if experiment == "oracle_check":
        if summary.get("all_pass") is not True:
            problems.append("oracle_check: all_pass is not true")
        for key, err in summary.get("max_errors", {}).items():
            if not err <= summary["tolerances"][key]:
                problems.append(f"oracle_check: max_errors.{key} = {err!r} above {summary['tolerances'][key]!r}")
    if experiment == "lr_bound":
        v = summary.get("max_amplitude_over_eigencorrelator")
        if not (isinstance(v, float) and v <= LR_DOMINANCE):
            problems.append(f"lr_bound: max_amplitude_over_eigencorrelator = {v!r} above {LR_DOMINANCE}")
    return problems


def check_job(experiment: str, job_dir, reference: dict | None, values: bool) -> list:
    """Problems with one job's outputs.  `reference` holds the recorded
    outputs of the job (any seed, used for the shape), `values` says
    whether it was recorded at this very seed."""
    try:
        outputs = read_outputs(job_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc}"]
    if "summary.json" not in outputs:
        return ["summary.json missing"]
    problems = _invariants(experiment, outputs)
    if reference is None:
        problems.append(NO_REFERENCE)
    else:
        _compare(outputs, reference, "", values, problems)
    return problems


def load_reference(path) -> dict:
    """{seed: {job: outputs}} recorded at `path`; empty if there is none."""
    path = Path(path)
    return json.loads(path.read_text())["seeds"] if path.is_file() else {}


def write_reference(path, seeds: dict) -> None:
    """`seeds`: {seed: {job: outputs}} as produced by `read_outputs`."""
    with open(path, "w") as fh:
        json.dump({"seeds": {str(s): jobs for s, jobs in sorted(seeds.items())}},
                  fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
