"""Host speed reference: times are reported in seconds at a fixed host speed.

The benchmark runs on hosts whose cores are shared with other tenants.  Their
load slows pure-Python code by a factor that drifts over seconds to minutes
and often reaches 2x, far more than the bounds a benchmark needs to hold.  So
every op is timed together with a fixed reference loop that uses only the
standard library: exact Fraction arithmetic, big integers and a dict with
tuple keys, the kind of work planarweb does.  A SIGALRM timer samples the
reference every PERIOD_S seconds while an op runs, and PRE_SAMPLES times right
before it.
The op's time, minus the time spent in the samples, is divided by the mean
sample time and multiplied by REFERENCE_S: the op's time on a host where one
reference loop takes REFERENCE_S, about the fastest a loop ran on a 2-vCPU
Intel Xeon host (fastest 0.61 ms, median 0.63 ms over 400 loops while it
was quiet).  These are not wall-clock times: the program's ops seldom run
at their fastest while the reference does, so there wall-clock times read
higher.

Interpreter start and imports follow the host speed in another way: they
spawn a process and read and unmarshal modules, and they track the loop above
only weakly.  They are rescaled by a reference of their own kind: a fresh
interpreter that imports a fixed set of stdlib modules, nominally
SPAWN_REFERENCE_S long, about the fastest it ran on the same host (45-83 ms
over 150 spawns).

The references do not depend on planarweb, so no change to the package can
move them.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# the nominal time of one reference loop; the unit the normalised times use
REFERENCE_S = 0.0006
# how often the reference is sampled while an op runs
PERIOD_S = 0.025
# samples taken right before an op; their median stands for the host's
# speed when the op is too short to be sampled inside
PRE_SAMPLES = 3
# the nominal time of one reference spawn; the unit set-up times use
SPAWN_REFERENCE_S = 0.045
SPAWN_IMPORTS = "import _pydecimal, argparse, fractions, json, random"


def reference_loop(n: int = 150) -> int:
    """Fixed stdlib-only work; about 0.6 ms on a quiet host."""
    acc = Fraction(0)
    table = {}
    for i in range(1, n):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        table[(i, i % 13)] = acc.numerator % 1000003
    return len(table)


def sample() -> float:
    """Seconds one reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def reference_speed(n: int = 5) -> float:
    """Median time of n reference loops, run back to back."""
    return statistics.median(sample() for _ in range(n))


def spawn_sample() -> float:
    """Seconds a fresh interpreter takes to start and import SPAWN_IMPORTS."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_IMPORTS], check=True)
    return time.perf_counter() - start


class Speedometer:
    """Times calls and rescales them to the reference host speed."""

    def __init__(self):
        self.samples = []  # reference loop times during the current call

    def _sample(self, *_):
        self.samples.append(sample())

    def time(self, fn, *args):
        """Call fn(*args); return (its result, wall-clock seconds, seconds at
        the reference speed).  Both exclude the reference samples taken
        inside the call."""
        pre = reference_speed(PRE_SAMPLES)
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self.samples)
        speed = (pre + sum(self.samples)) / (len(self.samples) + 1)
        return result, raw, raw * REFERENCE_S / speed
