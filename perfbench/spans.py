"""Span tracing of the public ``xylab`` functions, installed from outside.

`Tracer.install` wraps every public function defined in an ``xylab``
module and rebinds both the module attribute and every other binding of
the same function object in the loaded ``xylab`` modules (the names
bound by ``from .x import f``).  `Tracer.uninstall` puts the original
objects back.  Private helpers are not wrapped, so their time counts as
self time of the public caller.

Spans (name, start, end, parent, job) stay in memory until `write`.
Self time of a span is its duration minus the durations of its direct
child spans; calls run in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import Counter

PACKAGE = "xylab"


# Work counters read off the arguments of a traced call: qualified name ->
# [(counter, argument name, increment as a function of that argument)].
_ONE = lambda _: 1  # noqa: E731
_COUNTERS = {
    "hamiltonian.diagonalize_A": [("hamiltonian.decompositions", "chain", _ONE)],
    "hamiltonian.diagonalize": [
        ("hamiltonian.decompositions", "X", _ONE),
        ("hamiltonian.dense_dim3_sum", "X", lambda X: len(X) ** 3),
    ],
    "hamiltonian.bogoliubov": [
        ("hamiltonian.decompositions", "chain", _ONE),
        ("hamiltonian.dense_dim3_sum", "chain", lambda chain: chain.n ** 3),
    ],
    "eigencorrelator.dynamic_amplitude_sup": [("eigencorrelator.time_steps", "times", len)],
    "transport.particle_number_series": [("transport.time_steps", "times", len)],
    "transport.energy_series_isotropic": [("transport.time_steps", "times", len)],
    "transport.energy_fluctuation_series": [("transport.time_steps", "times", len)],
}


class Tracer:
    def __init__(self):
        self._name_ids: dict = {}  # span name -> id, in order of first use
        self.spans: list = []      # [name id, start, end, parent span index, job]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list = []
        self._patched: list = []   # (module, attribute, original)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        counters = _COUNTERS.get(name, ())
        sig = inspect.signature(fn) if counters else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                for counter, argname, increment in counters:
                    self.counts[counter] += increment(bound[argname])
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    # -- reduction -------------------------------------------------------

    def stats(self, first_span: int = 0) -> dict:
        """{name: (calls, self seconds)} over spans[first_span:]."""
        names = list(self._name_ids)
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for k, (name_id, start, end, _, _) in enumerate(spans):
            name = names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": list(self._name_ids), "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
