"""Host-speed sampling, so that timings on a shared machine can be rescaled.

On a virtual machine that shares its cores with other tenants, identical
work takes up to twice as long from one second to the next, and CPU time
drifts alike (no steal time is reported).  A :class:`Sampler` measures the
host's speed *during* the timed work: an interval timer interrupts the
process every ``INTERVAL_S`` seconds, and the signal handler times a fixed
spin.  The spin's reference time ``SPIN_REF_S`` over its measured time is
the host's relative speed at that moment (1 = the reference speed, below 1
= slower).

The spin is numpy calls on arrays of four elements: key mixing, a
cumulative sum and an inverse-CDF lookup, the shape of work of a narrow
walk step, written here and not taken from rwre, so a change to rwre cannot
move it.  Of the spins tried (a pure-Python integer loop, Python dict and
call work, numpy on 200 x 4 arrays) it tracked the passes of the walk
workloads best: pass time varied as the spin's time to the power
0.98-1.13, and rescaling cut the pass-to-pass spread of log time from
0.06-0.16 to 0.025-0.03.

The work done in ``[t0, t1]`` in reference seconds is the wall time of the
interval, less the handler's own time, times the mean relative speed of the
samples taken in it.  This is exact when the speed is constant between
samples: the work in a slice of wall time ``dt`` at speed ``s`` is
``s * dt`` reference seconds.

The handler runs between bytecodes of the main thread, never inside a C
call, touches no global random state and only appends to its own lists, so
the measured program's outputs are unchanged.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
SPIN_STEPS = 25
# Time of one spin on the reference machine (2-vCPU Xeon virtual machine,
# Python 3.11, numpy 2.4) when unloaded; it only sets the scale of the
# rescaled times.
SPIN_REF_S = 3.5e-4

_P = np.array([0.1, 0.2, 0.3, 0.4])
_K = np.arange(4, dtype=np.uint64)
_MUL = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(29)
_TOP = np.uint64(11)


def _spin() -> int:
    k, hits = _K, 0
    for _ in range(SPIN_STEPS):
        k = (k * _MUL) ^ (k >> _SHIFT)
        u = (k >> _TOP).astype(np.float64) * (1.0 / 9007199254740992.0)
        c = np.cumsum(_P)
        hits += int(np.searchsorted(c, u[0] * c[-1]))
    return hits


class Sampler:
    """Samples the host's relative speed while it is started."""

    def __init__(self):
        self.at: list[float] = []
        self.speed: list[float] = []
        self.handler_s: list[float] = []
        self._previous = None

    def _handle(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        _spin()
        t1 = clock()
        self.at.append(t1)
        self.speed.append(SPIN_REF_S / (t1 - t0))
        self.handler_s.append(clock() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def summary(self, t0: float, t1: float) -> tuple[float, float, int]:
        """(handler seconds, mean relative speed, samples) within [t0, t1]."""
        idx = [i for i, t in enumerate(self.at) if t0 <= t <= t1]
        if not idx:
            raise RuntimeError("no host-speed sample in the interval; "
                               "the timed work is shorter than the sampling interval")
        return (sum(self.handler_s[i] for i in idx),
                sum(self.speed[i] for i in idx) / len(idx), len(idx))

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Work done in [t0, t1], in seconds at the reference speed."""
        handler, speed, _ = self.summary(t0, t1)
        return (t1 - t0 - handler) * speed
