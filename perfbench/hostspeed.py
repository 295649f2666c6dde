"""Host-speed probe: the yardstick the benchmark's timings are normalised by.

On a shared host the speed a process gets drifts by 20-60% over seconds to
minutes, for a fixed pure-Python loop as much as for the engine's ops, so
raw wall times of the same code spread past any useful bound.  The probe
is a fixed piece of work, independent of the engine, made of the kinds of
work the engine's ops are made of: interpreter bytecode, scalar ``math``
calls on Python floats and numpy calls on small arrays.

``Sampler`` runs the probe on a wall-clock timer every ``PERIOD_S`` seconds
while a stretch of work runs, and takes the probes' own time out of the
work's time again; the probe also runs three times right before and right
after it.
The work's time divided by the mean probe time no longer carries the
host's drift, and a change of the engine's speed moves it one to one.
``normalise`` scales that ratio by ``REF_PROBE_S``, the probe's time on the
reference host (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4,
median over several minutes), so normalised times read as seconds on that
host at its typical speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: rounds of one probe, about 5 ms on the reference host
ROUNDS = 350
#: median seconds of one probe on the reference host
REF_PROBE_S = 0.005
#: wall seconds between two probes inside a stretch of work (about 5% of it)
PERIOD_S = 0.1
#: probes run back to back right before and right after a stretch of work
EDGE_PROBES = 3

_A = np.linspace(0.1, 1.0, 129 * 4).reshape(129, 4)


def probe(count=1):
    """Mean seconds of ``count`` probes run back to back."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(count):
        x = _A
        for i in range(ROUNDS):
            x = x * 0.999 + _A
            y = x[:, 0] * x[:, 1] - x[:, 2] * x[:, 3]
            acc += float(y[i % 129])
            for j in range(12):
                acc += math.sin(j * 0.25) * math.sqrt(j + acc % 1.0)
    if not math.isfinite(acc):  # keeps the work from being skipped
        raise ArithmeticError("host-speed probe lost its value")
    return (time.perf_counter() - start) / count


def normalise(seconds, probe_s):
    """Seconds of work done while one probe took ``probe_s``, as seconds on
    the reference host."""
    return seconds * REF_PROBE_S / probe_s


def disarm():
    """Stop the sampling timer; safe to call when it is not running."""
    signal.setitimer(signal.ITIMER_REAL, 0)


class Sampler:
    """Samples the host's speed while a stretch of work runs.

    ``start`` probes, then arms a SIGALRM interval timer whose handler runs
    one probe between two bytecodes of the work; ``stop`` disarms it, probes
    again and returns the work's own seconds: its wall time minus what the
    probes inside it took.  ``probe_s`` is the mean probe time over the
    stretch.  With ``period`` 0 only the two edge probes run.  One sampler
    owns SIGALRM for the process.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._armed:  # delivered after stop
            return
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def start(self):
        self.samples = [probe(EDGE_PROBES)]
        self.spent = 0.0
        self._armed = bool(self.period)
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._start = time.perf_counter()

    def stop(self):
        disarm()
        self._armed = False
        seconds = time.perf_counter() - self._start - self.spent
        self.samples.append(probe(EDGE_PROBES))
        return seconds

    @property
    def probe_s(self):
        return statistics.fmean(self.samples)
