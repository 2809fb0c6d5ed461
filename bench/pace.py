"""Op time corrected for the speed of a shared host.

The host shares its cores with other machines, and their load changes the
speed of each vCPU, CPU time included, by up to 2x.  The slow and fast
phases last from under a second to minutes, so neither the fastest nor
the median of a few passes over a 5-second op is steady from run to run.

`Pace` measures the host's speed while an op runs.  Every INTERVAL_S, a
SIGALRM handler runs `calibration`, a fixed loop of exact arithmetic and
dict updates like the program's own inner loops, and times it.  The op's
time since the previous sample is scaled by REF_S / (the loop's time),
so that each stretch of the op counts as long as it would have taken at
the reference speed.  The sums are in seconds at that speed: REF_S is the
loop's time on a vCPU of the recording host in a quiet phase (x86-64,
Python 3.11.7).  The loop is part of the benchmark, not of hhdeform, so a
change to hhdeform moves the op's time and not the yardstick.

The loop's own time is excluded from the op's.  It costs about 2% of a
run, the same for every version of the program.
"""

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
REF_S = 0.0002
_TERMS = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(64)]


def calibration():
    row = {}
    for i in range(60):
        key = (i % 13, i % 3)
        row[key] = row.get(key, 0) + _TERMS[i] * _TERMS[(i * 7) % 64]
    return row


class Pace:
    """Context manager: `wall` and `cpu` hold the time of the code inside
    it, scaled to the reference speed, and `raw_wall` its plain wall time."""

    def __init__(self):
        self.wall = self.cpu = self.raw_wall = 0.0

    def _sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        calibration()
        w1, c1 = time.perf_counter(), time.process_time()
        self.wall += (w0 - self._w) * REF_S / (w1 - w0)
        self.cpu += (c0 - self._c) * REF_S / max(c1 - c0, 1e-9)
        self.raw_wall += w0 - self._w
        self._w, self._c = w1, c1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._w, self._c = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # the last stretch is scaled by a sample taken right after it
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        return False
