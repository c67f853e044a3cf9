"""Host-speed calibration of the timed end-to-end metrics.

On a shared host the CPU's speed drifts: a fixed mix of Python and numpy
work was measured taking up to 1.5x longer in one five-second window than
in another, and the program slows down with it. A burst is a short, fixed
piece of such work that does not touch the program. Bursts run between
the stages of every timed pass (and around every set-up probe), and the
pass is reported in reference seconds, ``wall * NOMINAL_BURST_S /
mean(bursts)``: the time it would have taken at the host speed where a
burst takes ``NOMINAL_BURST_S``. A change to the program moves reference
seconds in proportion to wall seconds; only the host's drift is divided
out. The raw wall times and the bursts are kept in the result file.
"""

import time

import numpy as np

#: Burst time on the 2-core development host when it is idle.
NOMINAL_BURST_S = 0.015


class HostSpeed:
    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((64, 64))

    def burst(self):
        """Seconds one calibration burst (Python loop, small matmuls) took."""
        start = time.perf_counter()
        total = 0
        for i in range(160000):
            total += i * i
        b = self._a
        for _ in range(160):
            b = np.tanh(b @ self._a)
        return time.perf_counter() - start

    def bursts(self, count):
        return [self.burst() for _ in range(count)]


def reference_seconds(seconds, bursts):
    """Wall seconds rescaled to the nominal host speed."""
    return seconds * NOMINAL_BURST_S * len(bursts) / sum(bursts)
