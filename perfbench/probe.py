"""Speed probe for a shared machine.

The machine the benchmark runs on is shared, and its speed drifts with the
neighbours' load, in CPU time as much as in wall time. `SpeedProbe` times a
fixed kernel that does not touch demix: an interpreter loop and a numpy
gather. Timed right before and right after an operation, in the same
process, it tracks how fast that operation ran. `calibrated` rescales a wall
time to the speed at which the probe takes `PROBE_REF_S`.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on the 2-core box the benchmark was written on.
PROBE_REF_S = 0.005


class SpeedProbe:
    def __init__(self):
        self._values = np.arange(1 << 16, dtype=np.float64)
        self._index = np.random.default_rng(0).permutation(1 << 16)

    def __call__(self) -> float:
        """Median time of three runs of the kernel."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            total = 0
            for i in range(40_000):
                total += i * i
            for _ in range(16):
                self._values[self._index].sum()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]


def calibrated(wall_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """`wall_s` at the reference speed, from the probes around it."""
    return wall_s * PROBE_REF_S / ((probe_before_s + probe_after_s) / 2)
