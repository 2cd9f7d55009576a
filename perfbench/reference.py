"""A fixed reference computation that gauges the machine's current speed.

The benchmark's reference machine (2 cores of a shared virtual machine)
changes speed by 10-25 % over seconds to minutes, for every kind of code
alike: a fixed pure-Python loop timed in 35 s windows spread as much as
the workloads did. A run measures this bundle between rounds and scales
its times to the speed at which the bundle takes ``NOMINAL_S`` seconds,
so that two runs made minutes apart compare the program, not the
machine. The bundle mixes the kinds of work the workloads do (an
interpreted loop, calls on tiny numpy arrays, a sparse matvec of the
L = 8 sector's size and small dense products) and uses only Python,
numpy and scipy, never bosetraj, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

# passes over the mix per timing: long enough (about 0.4 s) that one
# timing is not itself at the mercy of sub-second speed changes
PASSES = 4
# median time of one timing on the reference machine; it only fixes the
# unit of the scaled times, and must stay the same across commits
NOMINAL_S = 0.4


class Reference:
    """Build the bundle's inputs once; time the bundle on demand."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        self._np = np
        # the L = 8 sector's size: dim 3823, about 45k nonzeros
        dim, per_row = 3823, 12
        self._sparse = sp.csr_matrix(
            (rng.standard_normal(dim * per_row),
             rng.integers(0, dim, dim * per_row),
             np.arange(0, dim * per_row + 1, per_row)), shape=(dim, dim))
        self._x = rng.standard_normal(dim) + 0j
        self._v = rng.standard_normal(10) + 0j
        self._dense = rng.standard_normal((10, 10)) + 0j
        self.samples: list = []
        self._run(1)                 # first calls into numpy/scipy warm up

    def time(self) -> float:
        """Run the bundle once; record and return its wall time."""
        t0 = time.perf_counter()
        self._run(PASSES)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def _run(self, passes: int):
        np = self._np
        for _ in range(passes):
            s = 0
            for i in range(300_000):
                s += i * i
            y = self._v
            for _ in range(4_000):
                y = y - 0.01 * self._v
                y = y / np.sqrt(np.real(np.vdot(y, y)))
            for _ in range(300):
                self._sparse @ self._x
            for _ in range(3_000):
                self._dense @ self._dense

    def scale(self) -> float:
        """Factor from measured seconds to seconds at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
