"""Host-speed correction for timings taken on a shared machine.

On a shared host the same single-threaded work can take 1.5x longer while
neighbours load the machine, in phases lasting seconds to minutes, and
process CPU time stretches with wall time, so neither is steady from run
to run.  A SpeedProbe runs a fixed pure-Python loop from a SIGALRM
handler every PERIOD seconds while a timed region runs.  Each sample
times the loop at that moment, and REFERENCE_LOOP_S / sample is the
host's speed then.  ``corrected`` turns a measured interval into seconds
at the reference speed: the probe's own time inside the interval is
removed and the rest is scaled by the mean speed sampled over it (over
MIN_WINDOW around it when it is shorter, so call it once the samples
after the interval have been taken).
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.01
LOOP = 4000
# an interval shorter than this is judged by the samples in the MIN_WINDOW around it
MIN_WINDOW = 0.5
# The loop's duration on an unloaded 2-core Intel Xeon VM (Python 3.11.7),
# so corrected times read as seconds on that machine when it is quiet.
REFERENCE_LOOP_S = 6.0e-5


def _loop() -> None:
    for _ in range(LOOP):
        pass


class SpeedProbe:
    """Samples (start, duration) of the probe loop while entered."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed sampled in [start, end], widened to MIN_WINDOW."""
        pad = max(0.0, (MIN_WINDOW - (end - start)) / 2)
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_left(self.starts, end + pad)
        samples = self.durations[lo:hi]
        if not samples:
            return 1.0
        return REFERENCE_LOOP_S * sum(1 / d for d in samples) / len(samples)

    def corrected(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = (end - start) - sum(self.durations[lo:hi])
        return net * self.speed(start, end)
