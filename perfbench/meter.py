"""Host-speed meter: times a fixed reference loop every 0.1 s from SIGALRM.

On a shared cloud host the processor speed a process gets can drift by a
third over seconds to minutes.  The drift slows the program and this loop
alike, so each measured interval is scaled by
REFERENCE_S / (mean loop time around it): the result is the time the
interval would have taken at the reference speed.  The loop runs in the
measured process, between bytecodes, and its own time is subtracted from
every interval (and every traced span) it interrupts.
"""

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.1
# Samples this far either side of an interval count for it.  The speed can
# change between two samples 0.1 s apart, so only near ones are used.
WINDOW_S = 0.05
# Loop time that defines the reference speed.  Any constant would do, as it
# only sets the scale; 2.5 ms is about what a shared 2-vCPU cloud VM gives.
REFERENCE_S = 0.0025
_TABLE = tuple(tuple((i * j + 1) % 5 for j in range(5)) for i in range(5))


def reference_loop(reps=1000):
    """Table lookups and integer adds, like the program's inner loops."""
    s = 0
    t = _TABLE
    for _ in range(reps):
        for x in range(5):
            row = t[x]
            for y in range(5):
                s += t[row[y]][y]
    return s


class SpeedMeter:
    def __init__(self):
        self.times = array("d")
        self.loops = array("d")
        self.spent = 0.0  # seconds spent inside the handler so far
        self.hook = None  # called with each sample's start and duration

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.times.append(t0)
        self.loops.append(dt)
        self.spent += dt
        if self.hook:
            self.hook(t0, dt)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1):
        """REFERENCE_S / mean loop time over [t0 - WINDOW_S, t1 + WINDOW_S]."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        window = self.loops[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
