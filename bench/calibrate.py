"""The machine's speed during a run, measured with fixed work that is not twocopy.

The machine the benchmark runs on shares its cores with other tenants, and
its speed drifts by up to 1.5x over minutes: ten runs in a row of one
workload went steadily from 244 to 380 operations per second.  Every
figure taken from wall time alone drifts with it, the fastest repetition
of an operation too.  So each run also times one of two fixed kernels,
interleaved with the operations, and reports its timings at a reference
speed: the kernel's mean time over the run, divided by the kernel's
reference time below, is the run's slowdown; each time is divided by it
and each rate multiplied.  In sets of ten runs on that machine, the
timings spread by 10-21% in wall time and by 1.2-7.1% at the reference
speed.

Neither kernel imports twocopy, so no change to the program changes the
kernel's work.  Each kernel is the kind of work that dominates the
operations it calibrates: Python arithmetic, small dense linear algebra and
JSON for the in-process operations, and a fresh interpreter importing numpy
for the fresh-process CLI, where a compute kernel followed the drift no
better than the wall time itself did.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from time import perf_counter

# a kernel's time at the reference speed, roughly its mean on a quiet spell
# of the 2-vCPU machine the reference figures come from
ARITHMETIC_REFERENCE_S = 300e-6
INTERPRETER_REFERENCE_S = 0.200


def arithmetic():
    """A function that runs the in-process kernel and returns its wall time."""
    import numpy as np

    rng = np.random.default_rng(0)
    h4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h4 = h4 + h4.conj().T
    h16 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h16 = h16 + h16.conj().T
    pairs = rng.standard_normal((64, 2)).tolist()

    def kernel() -> None:
        s = 0j
        for i in range(100):
            s += complex(i, 1.0) * (0.5 - 0.25j)
        for _ in range(2):
            np.linalg.eigh(h4)
            h4 @ h4
        np.linalg.eigvalsh(h16)
        json.loads(json.dumps(pairs))

    def timed() -> float:
        # garbage collection would time the program's heap, and the untimed
        # first pass refills the caches the operation before it used
        gc.disable()
        try:
            kernel()
            start = perf_counter()
            kernel()
            return perf_counter() - start
        finally:
            gc.enable()

    timed()
    return timed


def interpreter(env: dict | None = None) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=120)
    return perf_counter() - start
