"""Host-speed probe: time measured at a fixed reference speed of the CPU.

On a shared host, other tenants slow this process's CPU by up to 1.75x for
seconds to minutes at a time, and a program's wall time follows.  A SIGALRM
handler runs a small fixed kernel (a Python loop of scalar numpy arithmetic
and one 40x40 `eigvals`, the two kinds of work qgsym does) every 25 ms in
the main thread, between the program's own bytecodes, and records how long
it took.  `scaled()` then counts each stretch of program time between two
probes at the speed the probe ending it saw: a stretch run while the probe
took twice `REFERENCE_S` counts half.  Probe time itself is left out.
"""

from __future__ import annotations

import array
import math
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
# About the kernel's duration when the host is not contended, on the 2-vCPU
# Xeon this was sized on.  It only sets the scale of scaled seconds.
REFERENCE_S = 7.0e-4
SMOOTH = 5  # probes in the rolling median that damps a single probe's jitter

_MATRIX = np.random.default_rng(12345).standard_normal((40, 40))
_FACTOR = np.float64(1.0001)


def kernel() -> float:
    s = 0.0
    for i in range(1200):
        s += math.sin(i * 1e-3) * _FACTOR
    np.linalg.eigvals(_MATRIX)
    return s


class SpeedProbe:
    """Probe durations, recorded while installed (`with SpeedProbe() as p:`)."""

    def __init__(self):
        self.at = array.array("d")
        self.took = array.array("d")
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:  # a signal that arrives while the kernel runs
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1] at the reference speed, probes excluded.

        The stretch before each probe is scaled by that probe's smoothed
        duration; the stretch after the last one by the last probe's.  With
        no probe in the window, the nearest probe gives the speed.
        """
        at, took = np.asarray(self.at), np.asarray(self.took)
        if len(at) == 0:
            return t1 - t0
        pad = np.pad(took, SMOOTH // 2, mode="edge")
        speed = np.median(np.lib.stride_tricks.sliding_window_view(pad, SMOOTH), axis=1)
        lo, hi = np.searchsorted(at, [t0, t1])
        inside, took_inside = at[lo:hi], took[lo:hi]
        starts = np.concatenate([[t0], inside + took_inside])
        ends = np.concatenate([inside, [t1]])
        last = speed[min(hi, len(speed) - 1)] if hi == lo else speed[hi - 1]
        per_stretch = np.concatenate([speed[lo:hi], [last]])
        return float(np.sum((ends - starts) * REFERENCE_S / per_stretch))
