"""Calibration kernels: how fast the machine runs now, not the program.

The machine the benchmark runs on shares its cores with other work, and its
speed drifts by tens of percent from one second to the next and from one
minute to the next (the same 30 ms pure-Python loop takes 30 ms or 50 ms).
A round runs a kernel right after the import and right after each step of
a pass, and ``run.py`` scales each span to the kernel's reference speed:

    scaled = wall * REFERENCE_S[kind] / kernel seconds

The kernels use no package code, so a change to the package moves the
scaled time and not the kernel.  Interpreted Python and array work slow
down by different amounts when the machine is busy (measured side by side:
a quadrature cell tracks the Python kernel, with slope 0.85 in log time,
and hardly the array kernel; a Monte Carlo cell the other way round), so
each workload names the kernel that does its kind of work:

* ``python``: a scalar loop of float maths and dict stores, like the
  quadrature integrands and the import;
* ``numpy``: element-wise work on 200 000 x 3 arrays, like the samplers;
* ``mixed``: both, interleaved.
"""

from __future__ import annotations

import math
import time

KINDS = ("python", "numpy", "mixed")
#: Kernel seconds at the reference speed: about each kernel's median on a
#: 2-vCPU Xeon virtual machine at 2.1 GHz, so scaled times read close to
#: seconds there.
REFERENCE_S = {"python": 0.15, "numpy": 0.15, "mixed": 0.3}
SLICES = 4
PY_ITERATIONS = 140_000
NP_ROWS = 200_000
NP_BLOCKS = 2


def _python_slice() -> float:
    acc = 0.0
    table = {}
    for i in range(PY_ITERATIONS):
        x = i * 1e-3
        acc += math.sin(x) * math.exp(-x * 1e-2)
        table[i & 1023] = acc
    return acc


def _numpy_slice(rng) -> int:
    import numpy as np

    hits = 0
    for _ in range(NP_BLOCKS):
        a = rng.standard_normal((NP_ROWS, 3))
        a *= a
        total = a.sum(axis=1)
        hits += int(np.count_nonzero(a[:, 0] < 0.3 * total))
    return hits


def measure(kind: str) -> float:
    """Wall seconds of one timed kernel of ``kind``, after an untimed slice.

    The Python kernel imports nothing, so it can run before the package is
    imported without changing what the import costs.
    """
    parts = []
    if kind in ("python", "mixed"):
        parts.append(_python_slice)
    if kind in ("numpy", "mixed"):
        import numpy as np

        rng = np.random.default_rng(0)
        parts.append(lambda: _numpy_slice(rng))
    for part in parts:
        part()
    start = time.perf_counter()
    for _ in range(SLICES):
        for part in parts:
            part()
    return time.perf_counter() - start
