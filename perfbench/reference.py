"""A fixed reference kernel that tracks how fast the machine runs now.

On a shared host the throughput of one core drifts by tens of per cent
over minutes, and the drift is common to all code running at the time.
The benchmark times this kernel between the scene executions of a run
and rescales the run's times to a machine on which the kernel takes
NOMINAL_S seconds:

    scaled = measured * NOMINAL_S / median(kernel times of the run)

The kernel is the benchmark's own code and depends only on Python and
numpy, so a change to liechannel cannot move it.  It mixes, in about equal
parts, the three kinds of work the scenes do: an interpreter loop over
small Python objects, batched 6x6 LAPACK factorisations, and many
single-matrix numpy calls.  NOMINAL_S is close to the kernel's median on
two shared virtual cores of an Intel Xeon, so scaled times there read
about as measured.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.125
_BATCH = np.random.default_rng(0).standard_normal((6000, 6, 6))


def _interpreter(n: int) -> float:
    total = 0.0
    row = [0.5, 1.5, 2.5]
    for i in range(n):
        row[i % 3] += 1.0
        total += row[0] * row[1] - row[2]
    return total


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = perf_counter()
    _interpreter(200_000)
    np.linalg.svd(_BATCH)
    for matrix in _BATCH[:1500]:
        np.linalg.svd(matrix)
    return perf_counter() - start
