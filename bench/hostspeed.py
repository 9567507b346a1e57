"""Host-speed sampling: a fixed probe timed every 50 ms, inside operations too.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over minutes and changes in bursts of a few seconds.  Such drift moves every
timing of a run alike and would hide or fake a change in the program.  While
the harness times passes, a ``Sampler`` runs a small fixed probe from a
SIGALRM handler every ``INTERVAL_S`` seconds of wall time, between the
program's bytecodes, and records how long it took.  An operation's time is
scaled by ``NOMINAL_S`` over the probe's mean time around it, so that it
reads as on a host where the probe takes ``NOMINAL_S``; the probes' own time
inside the operation is taken out first.  The raw times are kept in the
run's record.

The probe is exact rational Gaussian elimination of a fixed 6x6 matrix,
the kind of arithmetic the program's exact LPs spend their time on.  It uses
no code of the package, so no change to the program can change it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# About the median probe time on the baseline machine.
NOMINAL_S = 0.0013
# One probe per 50 ms costs about 2% of the run.
INTERVAL_S = 0.05
# Probes this far before and after an operation count toward its speed, so
# that an operation shorter than the interval still sees a few.
WINDOW_S = 0.1

_MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 2)
                      for j in range(6)) for i in range(6))


def _eliminate(matrix) -> list:
    m = [list(row) for row in matrix]
    n = len(m)
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Sampler:
    """Times the probe every ``INTERVAL_S`` seconds while in a ``with`` block.

    The cyclic garbage collector is off while the probe runs, so garbage the
    program left behind is collected in the program's time, not the probe's.
    """

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _eliminate(_MATRIX)
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # The probes just after the last operation belong to its window.
        time.sleep(2 * WINDOW_S)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds_between(self, t0: float, t1: float) -> list:
        """Times of the probes that started in [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        return self.seconds[lo:bisect.bisect_left(self.starts, t1)]

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probes that started in [t0, t1) took."""
        return sum(self.seconds_between(t0, t1))

    def factor(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the probe's time around [t0, t1].

        The mean, not the median, because a burst that covers part of a
        long operation slows that part; the fastest and slowest fifth of
        the probes are dropped first, so one stray probe cannot move it.
        The window widens until it holds a probe: a long call into C code
        delays the handler.
        """
        margin = WINDOW_S
        window = self.seconds_between(t0 - margin, t1 + margin)
        while not window:
            margin *= 2
            window = self.seconds_between(t0 - margin, t1 + margin)
        window.sort()
        cut = len(window) // 5
        return NOMINAL_S / statistics.fmean(window[cut:len(window) - cut])

    def scaled(self, t0: float, t1: float) -> float:
        """Time the program took in [t0, t1), at nominal host speed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)
