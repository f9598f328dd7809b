"""A reference kernel that gauges how fast the machine runs right now.

On a shared host the same single-threaded code runs 1.2x to 1.9x slower
for spells of seconds to minutes while neighbours load the core's caches
and execution units.  Wall time and CPU time slow alike, and a run of a
minute cannot average the spells out, so two runs of the same code can
differ by half.

``probe()`` times a fixed bit of interpreter and BLAS work that never
touches specvar (best of three, about 1 ms each).  The benchmark probes
before every timed job and once after the last, so each job lies between
two probes, and divides the job's wall time by the median of the two
probes before it and the two after it; one probe that misses the state
the job ran in moves that median little.  That *relative* cost is the
job's wall time in units of the reference kernel: it follows the
program's own speed and hardly moves with the host's.  On a 2-vCPU Xeon
VM, medians of the raw wall time over windows of 20 to 40 s varied by up
to 1.6x within two minutes, while those of the relative cost stayed
within 1.07x.
"""

import statistics
import time

import numpy as np

PROBE_REPS = 3
_LOOP = 15000
_M = np.random.default_rng(0).standard_normal((40, 40))


def _kernel():
    s = 0
    for i in range(_LOOP):
        s += i * i
    np.linalg.svd(_M)
    return s


def probe():
    """Wall seconds of the reference kernel, best of PROBE_REPS."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Timings:
    """Wall times of timed jobs, each between two probes."""

    def __init__(self):
        self.seconds = []
        self.probes = []

    def before(self):
        if len(self.probes) == len(self.seconds):
            self.probes.append(probe())

    def after(self, seconds):
        self.seconds.append(seconds)
        self.probes.append(probe())

    def relative(self):
        """Each job's wall time over the median of the two probes before
        it and the two after it (fewer at the ends of the run)."""
        p = self.probes
        return [s / statistics.median(p[max(i - 1, 0):i + 3])
                for i, s in enumerate(self.seconds)]
