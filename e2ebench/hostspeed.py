"""Host-speed normalisation of measured times.

On a shared VM the host's speed moves by 1.3-1.6x, both within a second
and between regimes that last tens of seconds, and a run's timings move
with it.  A fixed pure-Python reference loop, run in the same thread as
the measured code, samples that speed: every ``PERIOD_S`` from a timer
signal during the timed phase (so inside long ops too), and in bursts
around short measured steps.  A measured time is scaled by
``REF_LOOP_S`` over the median loop time sampled during it, so it reads
as seconds on a host where the loop takes ``REF_LOOP_S``.  The program
never runs the loop, so a change to the program moves the scaled
timings as it moves the raw ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

#: about the loop's median time when the timer samples it inside
#: nv-extract ops on a 2-vCPU Intel Xeon VM (Python 3.11.7), so that
#: scaled timings there read close to wall seconds
REF_LOOP_S = 0.005

#: the timer's period; the loop takes about 6 % of the wall time
PERIOD_S = 0.08

#: loop samples this close to a measured interval also scale it, so a
#: short op is scaled by the samples around it
WINDOW_S = 0.25

#: loop samples taken back to back before and after a short step
BURST = 20


def reference_loop() -> int:
    """Fixed interpreter work: dict and tuple churn, integer mixing,
    a sort.  3-6 ms on the reference host."""
    table = {}
    acc = 0
    for i in range(6000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc ^= (acc << 1 | i) & 0xFFFFFFFF
    return acc + len(sorted(table.items()))


class HostSpeed:
    """Reference-loop samples ``(midpoint, seconds)``; ``spent`` is the
    total time the loop has taken, so a caller can take it out of an
    interval the timer sampled in."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self, count: int = 1) -> None:
        if self._busy:          # the timer fired inside a sample
            return
        self._busy = True
        clock = time.perf_counter
        try:
            for _ in range(count):
                t0 = clock()
                reference_loop()
                t1 = clock()
                self.samples.append(((t0 + t1) / 2, t1 - t0))
                self.spent += t1 - t0
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` of wall time while the block runs;
        the timer's handler runs between the block's bytecodes."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """``REF_LOOP_S`` over the median loop time sampled within
        ``WINDOW_S`` of the interval ``[start, end]``."""
        near = [seconds for midpoint, seconds in self.samples
                if start - WINDOW_S <= midpoint <= end + WINDOW_S]
        return REF_LOOP_S / statistics.median(near)

    def timed(self, step) -> float:
        """Run ``step()`` between two bursts of samples; its wall time,
        scaled."""
        self.sample(BURST)
        started = time.perf_counter()
        step()
        took = time.perf_counter() - started
        self.sample(BURST)
        return took * self.scale(started, started + took)
