"""Experiment configs: the field tables, parsing and the content hash.

The one reader of config JSON.  CONFIG, ENSEMBLE, DISTRIBUTIONS, TIME_GRID
and PARAMS declare every field once, with its kind, default and range.
parse_config walks each object against its table, rejecting undeclared
keys and any value that no worker reads, and fills in the defaults a
variant reads; summaries echo and hash the raw config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .disorder import Distribution, EnsembleSpec, constant
from .ed_oracle import MAX_SITES
from .entanglement import MAX_EXHAUSTIVE_SITES


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


MAX_TIME_STEPS = 10**6  # most steps T / dt of a time grid; the grids in use take up to 200


@dataclass(frozen=True)
class TimeGrid:
    T: float
    dt: float

    def __post_init__(self):
        if not 0 < self.dt <= self.T:
            raise ConfigError(f"time_grid requires 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if self.T / self.dt > MAX_TIME_STEPS:
            raise ConfigError(f"time_grid takes T / dt = {self.T / self.dt:.3g} steps, over {MAX_TIME_STEPS}")

    def times(self) -> np.ndarray:
        """The lattice k dt up to the largest k dt <= T, with a relative
        slack of 1e-12 on T / dt so that 0.3 / 0.1 = 2.9999999999999996
        keeps its 3 steps."""
        steps = math.floor(self.T / self.dt * (1.0 + 1e-12))
        return np.arange(steps + 1) * self.dt


REQUIRED = "required"  # the default of a field that every config gives


@dataclass(frozen=True)
class Param:
    """One config field: kind ("int", "float", "bool", "str", "object", "ints":
    a nonempty array of int, "profile": "ones", "half" or an array of float,
    or the tuple of the strings allowed), default (None: null is allowed
    too) and the range [lo, hi], open when open, of a number or each entry."""

    kind: str | tuple
    default: object = REQUIRED
    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False
    KINDS = {"int": "an integer", "float": "a finite number", "bool": "true or false",  # not a field
             "str": "a string", "object": "an object", "ints": "a nonempty array of integers",
             "profile": '"ones", "half" or a nonempty array of numbers'}

    def check(self, value, field: str):
        """value, or a one-line ConfigError that names field."""
        kind, lo, hi = self.kind, self.lo, self.hi
        if value is None and self.default is None or kind == "profile" and value in ("ones", "half"):
            return value
        if kind in ("ints", "profile") and isinstance(value, list) and value:
            entry = replace(self, kind={"ints": "int", "profile": "float"}[kind], default=REQUIRED)
            return [entry.check(v, field if kind == "ints" else f"{field} entry") for v in value]
        try:  # type() rules out bool; an integer beyond the float range overflows
            ok = (type(value) in {"int": (int,), "float": (int, float)}.get(kind, ()) and math.isfinite(value)
                  and (lo < value < hi if self.open else lo <= value <= hi))
        except OverflowError:
            ok = False
        if ok or type(value) is {"bool": bool, "str": str, "object": dict}.get(kind) or (
                isinstance(kind, tuple) and value in kind):
            return value
        if isinstance(kind, tuple):
            raise ConfigError(f"{field} must be one of {', '.join(kind)}; got {value!r}")
        left, right = "()" if self.open else "[]"
        bounds = ("" if (lo, hi) == (-math.inf, math.inf) else f" >= {lo}" if hi == math.inf and not self.open
                  else f" in {left}{lo}, {hi}{right}")
        raise ConfigError(f"{field} must be {self.KINDS[kind]}{bounds}, got {value!r}")


class Experiment(NamedTuple):
    reads: tuple  # the ones of ensemble and time_grid that it reads and requires; it rejects the rest
    window: tuple  # fit window: low-end field, then fields whose least value (and n - 1) is its top
    params: dict
    # the value of the choice field that selects a variant (params.variant, params.strategy)
    # -> the keys of params that the variant does not read, and rejects
    unread: dict = {}
    # the params with which its workers decompose A alone, which holds no gamma,
    # so that ensemble.gamma must be the constant 0: {} always, None never
    isotropic: dict | None = None


_STATIC, _DYNAMIC = ("ensemble",), ("ensemble", "time_grid")
_BLOCK, _SCALAR = Param("bool", False), {"block": False}  # the scalar form decomposes A alone
_PROFILE_WINDOW = ("min_distance", "max_distance")
_FIT_WINDOW = ("fit_min_distance", "fit_max_distance")
_SEED = Param("int", 0, 0)
_MAX_DISTANCE = Param("int", None, 0)  # null: no limit
_CUTS = {"ells": Param("ints", REQUIRED, 1)}
_DISTANCES = {"min_distance": Param("int", 1, 0), "max_distance": _MAX_DISTANCE}
_FIT_DISTANCES = {"fit_min_distance": Param("int", 1, 0), "fit_max_distance": _MAX_DISTANCE}
_SLACK = {"slack": Param("float", 2.0, 0, open=True)}
# max_distance is accepted and ignored by fock and the transport
# experiments, whose profiles stop at fit_max_distance
_TRANSPORT = {"s1": Param("ints", REQUIRED, 1), "s2": Param("ints", REQUIRED, 1),
              "eta_value": Param("float", 1.0, 0, 1), **_FIT_DISTANCES, **_SLACK,
              "max_distance": _MAX_DISTANCE}

PARAMS = {
    "eigencorrelator": Experiment(_STATIC, _PROFILE_WINDOW, {
        **_DISTANCES, "block": _BLOCK, "r2_min": Param("float", 0.95)}, isotropic=_SCALAR),
    "lr_bound": Experiment(_DYNAMIC, _PROFILE_WINDOW, {**_DISTANCES, "block": _BLOCK}, isotropic=_SCALAR),
    "correlations": Experiment(_DYNAMIC, _PROFILE_WINDOW, {**_DISTANCES, "state_seed": _SEED}, isotropic={}),
    # the static entanglement's profile stops at max_distance
    "entanglement_static": Experiment(_STATIC, (*_FIT_WINDOW, "max_distance"), {
        **_CUTS, "strategy": Param(("sampled", "exhaustive"), "sampled"),
        "samples": Param("int", 200, 1), "label_seed": _SEED, "max_distance": _MAX_DISTANCE,
        **_FIT_DISTANCES, **_SLACK}, unread={"exhaustive": ("samples", "label_seed")}),
    "entanglement_quench": Experiment(_DYNAMIC, (), _CUTS),
    "transport_particle": Experiment(_DYNAMIC, _FIT_WINDOW, _TRANSPORT, isotropic={}),
    # the anisotropic flatness fits nothing and needs no S2
    "transport_energy": Experiment(_DYNAMIC, _FIT_WINDOW, {
        "variant": Param(("isotropic_bound", "anisotropic_flatness"), "isotropic_bound"),
        **_TRANSPORT, "s2": Param("ints", None, 1), "sizes": Param("ints", (40, 80, 160), 1),
        "eta_profile": Param("profile", "ones", 0, 1)}, unread={
        "isotropic_bound": ("sizes", "eta_profile"),
        "anisotropic_flatness": ("s2", "eta_value", *_FIT_WINDOW, "slack", "max_distance")},
        isotropic={"variant": "isotropic_bound"}),
    "fock": Experiment(_STATIC, _FIT_WINDOW, {
        "alpha": Param("float", 1.25, 1, open=True), "tau": Param("float", 0.5, 0, 1, open=True),
        "pair_count": Param("int", 100, 1), "pair_seed": _SEED, "r_max": Param("int", 5, 1),
        # null: eta is half the fitted rate, and eta0 a quarter of eta
        "eta": Param("float", None, 0, open=True), "eta0": Param("float", None, 0, open=True),
        "matched_min": Param("float", 0.99, 0, 1), "certified_min": Param("float", 0.95, 0, 1),
        "overlap_min": Param("float", 0.95, 0, 1), **_FIT_DISTANCES, "max_distance": _MAX_DISTANCE},
        isotropic={}),
    # the seed is the oracle ensemble's base_seed
    "oracle_check": Experiment((), (), {"n": Param("int", 6, 1, MAX_SITES),
                                        "seed": Param("int", 42, 0, 2**64 - 1),
                                        "realizations": Param("int", 5, 1)}),
}


def _defaults(table: dict) -> dict:
    """The default of every key of table that has one."""
    return {k: p.default for k, p in table.items() if p.default != REQUIRED}


DEFAULTS = {name: _defaults(e.params) for name, e in PARAMS.items()}  # per experiment

# the rest of a config; the experiments that read ensemble or time_grid require it, the others reject it
_KIND = Param(("uniform", "constant"))
DISTRIBUTIONS = {"uniform": {"kind": _KIND, "lo": Param("float"), "hi": Param("float")},
                 "constant": {"kind": _KIND, "value": Param("float")}}
ENSEMBLE = {"n": Param("int", lo=1), **dict.fromkeys(("mu", "gamma", "nu"), Param("object")),
            "base_seed": Param("int", lo=0, hi=2**64 - 1), "realizations": Param("int", lo=1)}
TIME_GRID = {"T": Param("float"), "dt": Param("float")}
CONFIG = {"experiment": Param(tuple(PARAMS)), "ensemble": Param("object", None),
          "time_grid": Param("object", None), "params": Param("object", {}),
          "output_dir": Param("str", "."), "workers": Param("int", 1, 1)}


def _walk(obj, table: dict, path: str, owner: str) -> None:
    """obj, checked to be an object whose every key is in table and that
    gives every required one, each value through its Param under its
    dotted name."""
    Param("object").check(obj, path or "the config root")
    prefix = f"{path}." if path else ""
    unknown = [f"{prefix}{k}" for k in obj if k not in table]
    if unknown:
        raise ConfigError(f"unknown field {', '.join(unknown)} for {owner}, whose fields are "
                          f"{', '.join(table)}")
    for key, param in table.items():
        if key in obj:
            param.check(obj[key], prefix + key)
        elif param.default == REQUIRED:
            raise ConfigError(f"missing required field {prefix + key}")


def _check_params(experiment: str, params: dict, n: int | None) -> dict:
    """params checked against the table, with the defaults filled in of the
    keys that the variant reads (the ones it rejects are left out), then
    against the rules that tie fields to each other or to ensemble.n: the
    cuts, fit window, fock's pairs and thresholds, transport regions."""
    table, variants = PARAMS[experiment].params, PARAMS[experiment].unread
    _walk(params, table, "params", experiment)
    p = {**DEFAULTS[experiment], **params}
    selector = next((k for k, param in table.items()
                     if isinstance(param.kind, tuple) and p[k] in variants), None)
    unread = variants[p[selector]] if selector else ()
    foreign = [f"params.{k}" for k in params if k in unread]
    if foreign:
        raise ConfigError(f"unknown field {', '.join(foreign)} for {experiment} {selector} "
                          f"{p[selector]}, whose params are "
                          f"{', '.join(k for k in table if k not in unread)}")
    p = {k: v for k, v in p.items() if k not in unread}
    if n is None:
        return p
    if "ells" in p:
        Param("ints", lo=1, hi=n - 1).check(p["ells"], "params.ells")
    flatness = p.get("variant") == "anisotropic_flatness"
    if PARAMS[experiment].window and not flatness:
        low, *highs = PARAMS[experiment].window
        hi = min([n - 1] + [p[k] for k in highs if p[k] is not None])
        if hi - p[low] + 1 < 3:
            raise ConfigError(f"the fit window [{p[low]}, {hi}] of "
                              f"{', '.join('params.' + k for k in (low, *highs))} and "
                              f"ensemble.n = {n} holds fewer than 3 distances")
    if experiment == "fock":
        Param("int", lo=1, hi=n).check(p["r_max"], f"params.r_max (default {table['r_max'].default})")
        # the pairs lie at configuration distance D >= 2 n^tau, and D <= n - 1
        if 2.0 * float(n) ** p["tau"] > n - 1:
            raise ConfigError(f"params.tau = {p['tau']} asks for pairs at D >= 2 n^tau = "
                              f"{2.0 * float(n) ** p['tau']:.1f}, past ensemble.n - 1 = {n - 1}")
        # the default eta, half the fitted rate, is known only after the run
        if p["eta0"] is not None and (p["eta"] is None or p["eta0"] >= p["eta"]):
            raise ConfigError(f"params.eta0 must come with a params.eta above it, got eta0 = "
                              f"{p['eta0']} and eta = {p['eta']}")
    if p.get("strategy") == "exhaustive" and n > MAX_EXHAUSTIVE_SITES:
        raise ConfigError(f"params.strategy exhaustive needs ensemble.n <= "
                          f"{MAX_EXHAUSTIVE_SITES}, got {n}")
    if "s1" in p:  # transport: the anisotropic flatness has no S2 and runs at params.sizes
        sizes = p["sizes"] if flatness else ()
        s1 = Param("ints", lo=1, hi=min(sizes, default=n)).check(p["s1"], "params.s1")
        s2 = [] if flatness else Param("ints", lo=1, hi=n).check(p["s2"], "params.s2")
        if any(min(s1) <= x <= max(s1) for x in s2):
            raise ConfigError(f"params.s2 must avoid [{min(s1)}, {max(s1)}], the hull of "
                              f"params.s1; got {s2}")
        if experiment == "transport_energy" and max(s1) - min(s1) + 1 != len(set(s1)):
            raise ConfigError(f"params.s1 must be an interval of sites, got {s1}")
        if flatness and isinstance(p["eta_profile"], list) and {len(p["eta_profile"])} != set(sizes):
            raise ConfigError(f"params.eta_profile has length {len(p['eta_profile'])}; every "
                              f"entry of params.sizes must equal it, got {list(sizes)}")
    return p


@dataclass
class ExperimentConfig:
    experiment: str
    ensemble: EnsembleSpec | None
    time_grid: TimeGrid | None
    params: dict
    output_dir: str
    workers: int
    semantic: dict


def _ensemble(obj: dict) -> EnsembleSpec:
    """The ensemble of its checked object; a distribution's own rule on
    its fields (lo < hi) is a ConfigError that names it."""
    _walk(obj, ENSEMBLE, "ensemble", "the ensemble")
    dists = {}
    for name in ("mu", "gamma", "nu"):
        field, dist = f"ensemble.{name}", obj[name]
        kind = _KIND.check(dist.get("kind"), f"{field}.kind")
        _walk(dist, DISTRIBUTIONS[kind], field, f"a {kind} distribution")
        try:
            dists[f"{name}_dist"] = Distribution(kind, **{k: float(v) for k, v in dist.items() if k != "kind"})
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    return EnsembleSpec(n=obj["n"], base_seed=obj["base_seed"], realizations=obj["realizations"], **dists)


def parse_config(obj: dict) -> ExperimentConfig:
    _walk(obj, CONFIG, "", "a config")
    c = _defaults(CONFIG) | obj
    experiment, table = c["experiment"], PARAMS[c["experiment"]]
    for key in ("ensemble", "time_grid"):
        if (key in table.reads) != (c[key] is not None):
            verb = "requires" if key in table.reads else "reads no"
            raise ConfigError(f"experiment {experiment} {verb} {key}")
    ensemble = None if c["ensemble"] is None else _ensemble(c["ensemble"])
    grid = c["time_grid"]
    if grid is not None:
        _walk(grid, TIME_GRID, "time_grid", "time_grid")
        grid = TimeGrid(T=float(grid["T"]), dt=float(grid["dt"]))
    params = _check_params(experiment, c["params"], ensemble.n if ensemble else None)
    alone = table.isotropic
    if alone is not None and {k: params[k] for k in alone} == alone and ensemble.gamma_dist != constant(0):
        given = "".join(f" with params.{k} {json.dumps(v)}" for k, v in alone.items())
        raise ConfigError(f"ensemble.gamma must be the constant 0: {experiment}{given} decomposes "
                          f"A alone; got {json.dumps(c['ensemble']['gamma'])}")
    return ExperimentConfig(experiment, ensemble, grid, params, c["output_dir"], c["workers"],
                            semantic=_semantic(obj))


def _semantic(obj: dict) -> dict:
    """The config fields that decide what is computed; output_dir and
    workers change where and how fast, not what."""
    return {k: obj[k] for k in ("experiment", "ensemble", "params", "time_grid") if k in obj}


def config_hash(obj: dict) -> str:
    """Hash of the semantic part of a config: two runs with equal hashes
    compute the same science."""
    return hashlib.sha256(json.dumps(_semantic(obj), sort_keys=True).encode()).hexdigest()[:16]
