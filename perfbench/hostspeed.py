"""Correct operation times for the speed drift of a shared host.

On a shared virtual machine the time a fixed piece of work takes drifts
by up to about 2x within seconds and over minutes (other tenants on the
same cores), and process CPU time drifts with it, so neither is steady
from run to run.  While an operation runs, a timer signal interrupts it
every INTERVAL_S and the handler times a small fixed loop of the kind of
work the workloads do (small and 700-wide numpy calls, float formatting
and parsing).  The loop runs on the same CPU at the same moments as the
operation, so its mean time tracks the speed the operation saw:

    net       = measured - time spent in the loop
    corrected = net * NOMINAL_S / mean(loop time)

The loop is the benchmark's own code and calls nothing in snailtwpa, so a
change to the program moves ``net`` and not the loop.  Set-up probes
(setup_probe.py) are corrected the same way.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# loop time on an unloaded 2-vCPU Xeon (2.0 GHz) with Python 3.11 and
# numpy 2.4; a unit conversion only, so corrected times read as seconds
# on that host
NOMINAL_S = 0.0032

_X = np.linspace(0.0, 1.0, 700)


def probe() -> float:
    acc = 0.0
    start = time.perf_counter()
    for i in range(200):
        small = np.sin(_X[:100]) + np.cos(_X[:100])
        wide = np.sin(_X) * np.cos(_X)
        acc += float(small[i % 100]) + float(wide[i % 700])
        acc = float(repr(acc)[:12])
    return time.perf_counter() - start


def correct(measured: float, inside, speed) -> float:
    """``measured`` less the probe times ``inside`` it, rescaled to nominal
    speed by the mean probe time ``speed``: the probes inside, or one right
    after a span shorter than INTERVAL_S."""
    return (measured - sum(inside)) * NOMINAL_S * len(speed) / sum(speed)


class Sampled:
    """Context manager around one operation; after it exits, ``measured``
    and ``corrected`` hold the operation's times in seconds, ``samples``
    the probe times taken inside it and ``speed`` those the correction
    used."""

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.measured = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speed = self.samples or [probe()]
        self.corrected = correct(self.measured, self.samples, self.speed)
        return False
