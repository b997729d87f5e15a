"""Step timers: plain, and normalised by a calibration loop around each step.

The shared 2-core host the benchmark was defined on changes speed by up to
2x, in phases that last from about a second to minutes.  A run's fastest
unit therefore depends on whether the run met a fast phase.  The
calibrated clock runs a short fixed loop before and after every step and
divides the step's time by the mean of the two, which tracks the host's
speed at the step's own time.  Steps are kept short (at most a few
seconds) so the speed changes little within one.

A fresh process (the set-up of a workload) does other work than a warm
interpreter: exec, page faults and reading modules from disk.  Its speed
follows that of a fresh ``python -c "import numpy"`` process, which
``calibration_process`` times, far better than the in-process loop.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: fastest ``calibration_loop`` on the 2-core Xeon (2.1 GHz) the benchmark
#: was defined on, in a quiet phase of that shared host; calibrated times
#: are seconds at that speed
CALIBRATION_REF_S = 0.022
#: fastest ``calibration_process`` on the same host, in a quiet phase
PROCESS_REF_S = 0.19


def calibration_loop() -> None:
    """Fixed interpreter-bound work that does not touch lecamjd."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = np.array([0.1, 0.2, 0.3])
    w = np.ones(3)
    for i in range(5_000):
        (w * np.exp(-0.5 * (x - i * 1e-6) ** 2)).sum()


def calibration_process() -> None:
    """A fresh interpreter that imports numpy and nothing of lecamjd."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class PlainClock:
    """Times steps without calibration (the traced units)."""

    def measure(self, label: str, fn):
        """Run ``fn``; return (its result, its wall seconds)."""
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0


class CalibratedClock(PlainClock):
    """Times each step between two runs of ``calibrate``.

    ``ratios[label]`` holds, per successful call, the step's wall time
    over the mean calibration time around it; ``walls[label]`` the raw
    wall times.  ``ref_s`` is the calibration's time at reference speed.
    """

    def __init__(self, calibrate=calibration_loop,
                 ref_s: float = CALIBRATION_REF_S):
        self.calibrate = calibrate
        self.ref_s = ref_s
        self.calibrations = [timed(calibrate)]
        self.ratios: dict[str, list[float]] = {}
        self.walls: dict[str, list[float]] = {}

    def measure(self, label: str, fn):
        before = self.calibrations[-1]
        t0 = time.perf_counter()
        try:
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            self.calibrations.append(timed(self.calibrate))
        after = self.calibrations[-1]
        self.ratios.setdefault(label, []).append(
            wall / (0.5 * (before + after)))
        self.walls.setdefault(label, []).append(wall)
        return result, wall

    def seconds(self, label: str | None = None) -> float:
        """Median calibrated time of one step, or of one unit (all steps).

        A unit's time is the sum over its steps of each step's median, in
        seconds at the reference speed.
        """
        labels = [label] if label is not None else list(self.ratios)
        return self.ref_s * sum(statistics.median(self.ratios[k])
                                for k in labels)
