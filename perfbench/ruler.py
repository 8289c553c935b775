"""Host-speed ruler: a tiny fixed computation sampled while operations run.

On a shared host the speed of a core drifts with its neighbours' load: the
same code ran up to twice as slow in one process as in the next, and within
a process the speed moved between two levels every few seconds (see
README).  While an operation runs, an interval timer interrupts it every
``INTERVAL_S`` and times a fixed interpreted pointer chase, which shares no
code with the program.  Dividing an operation's time by the mean chase time
sampled during it, and multiplying by ``REFERENCE_S``, gives its time at
reference host speed.  The time spent in the samples is subtracted from the
operation's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# Chase time on the reference host when it is quiet; a constant, so that
# scaled times compare across commits.
REFERENCE_S = 0.0014

INTERVAL_S = 0.1
_NODES = 10_007
_STEPS = 50_000


class Ruler:
    def __init__(self):
        self._next = [(7919 * i + 1) % _NODES for i in range(_NODES)]
        self.samples: list[tuple[float, float]] = []   # (end time, chase seconds)
        self.spent = 0.0                                 # seconds inside samples
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        """Time the chase once (also the timer's signal handler)."""
        if self._busy:      # the timer fired inside a sample: keep that one whole
            return
        self._busy = True
        nxt = self._next
        t0 = time.perf_counter()
        u = 0
        for _ in range(_STEPS):
            u = nxt[u]
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every INTERVAL_S of wall time while inside."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean chase time sampled in [start, end].

        Native calls delay the timer's handler until they return, so a short
        operation may hold no sample; it takes the last sample before it.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            inside = [s for t, s in self.samples if t < start][-1:]
        return REFERENCE_S / statistics.fmean(inside)
