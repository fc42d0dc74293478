"""Host-speed calibration: a fixed kernel timed around every measurement.

The reference box is a 2-vCPU guest on a shared host.  Its neighbours
slow it by up to 1.6x in phases of 20-60 s, with CPU time tracking wall
time (contention for the core, not time-slicing, and no steal time), so
a 40 s run can land wholly in a slow phase.  The kernel below does not
touch ``xylab``: a pure-Python loop, many small numpy calls and a few
dense BLAS products, the three kinds of work a pass does.  Its time next
to a pass says how fast the host ran then, and

    seconds at reference speed = measured seconds * REFERENCE_S / kernel seconds

is the pass's time on the host running at the speed at which the kernel
takes REFERENCE_S.  `run.py` rescales the median pass of a run by the
median kernel time around the passes.  A change to ``xylab`` moves the
pass time and not the kernel, so it shows in full.

A workload that runs its jobs on a process pool is calibrated the same
way, with the kernel on a fresh pool of as many processes: a pass on the
pool forks its workers and keeps both vCPUs busy, and in a 4.5-minute
trace of `static` passes its time followed the pool kernel (correlation
0.48 pass by pass) and hardly the one-process kernel (0.13).

Import after the BLAS thread variables are pinned: this module loads
numpy.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# Median of `Calibration(processes).time()` on the reference box (2 vCPU,
# OpenBLAS 0.3.31 on one thread, python 3.11, numpy 2.4), by processes;
# quiet phases run the one-process kernel in about 20 ms.
REFERENCE_S = {1: 0.025, 2: 0.075}
# Runs per calibration, by processes; the fastest counts, so that a
# single scheduler hiccup does not read as a slow host.
REPEATS = {1: 3, 2: 2}

_rng = np.random.default_rng(2016)
_a = _rng.standard_normal((128, 128))
_SYM = _a + _a.T
_SQUARE = _rng.standard_normal((200, 200))
_SMALL = _rng.standard_normal((16, 16))


def kernel(_=None) -> float:
    """Seconds one run of the fixed kernel takes (the argument lets a
    pool map it)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i
    for _ in range(1500):
        (_SMALL @ _SMALL).sum()
    for _ in range(2):
        np.linalg.eigh(_SYM)
    for _ in range(6):
        _SQUARE @ _SQUARE
    return time.perf_counter() - t0


class Calibration:
    """The kernel on `processes` processes: inline for one, else two runs
    per process on a pool started and joined inside the timing."""

    def __init__(self, processes: int = 1):
        if processes not in REFERENCE_S:
            raise ValueError(f"no reference kernel time for {processes} processes")
        self.processes = processes
        self._last: float | None = None

    def time(self) -> float:
        """Seconds the kernel takes now (the fastest of the repeats)."""
        return min(self._once() for _ in range(REPEATS[self.processes]))

    def _once(self) -> float:
        if self.processes == 1:
            return kernel()
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=self.processes) as pool:
            list(pool.map(kernel, range(2 * self.processes)))
        return time.perf_counter() - t0

    def around(self, fn):
        """(fn(), kernel seconds around it): the mean of the kernel timed
        before and after the call.  Consecutive calls share the kernel
        run between them."""
        before = self.time() if self._last is None else self._last
        out = fn()
        self._last = self.time()
        return out, (before + self._last) / 2
