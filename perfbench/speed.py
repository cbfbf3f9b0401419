"""Probe of the machine's current speed, taken while a workload runs.

The benchmark shares a small machine with other tenants, whose load makes
the same Python loop run up to 1.7 times slower for stretches of seconds to
minutes. Every ``INTERVAL_S`` a SIGALRM handler times a fixed pure-Python
loop; the probes taken during a stretch of work tell how fast the machine
was then, and ``reference_seconds`` rescales each stretch's wall time to
the reference speed ``REF_PROBE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

INTERVAL_S = 0.05
LOOP = 10_000
# one probe's duration on the reference machine speed: the fast state of a
# 2-core 2.1 GHz Xeon VM under Python 3.11
REF_PROBE_S = 3.0e-4


class SpeedProbe:
    def __init__(self):
        self.start_t = array("d")
        self.duration = array("d")

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i
        self.start_t.append(t)
        self.duration.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1), less the probes', at the reference speed.

        Each stretch between two probes is rescaled by the speed the first
        of them measured; a stretch before the first probe by that probe's.
        """
        starts, durations = self.start_t, self.duration
        if not starts:
            return t1 - t0
        total = 0.0
        if t0 < starts[0]:
            total += (min(t1, starts[0]) - t0) * REF_PROBE_S / durations[0]
        for i in range(max(bisect.bisect_right(starts, t0) - 1, 0), len(starts)):
            if starts[i] >= t1:
                break
            # the work between the end of probe i and the start of the next
            lo = max(starts[i] + durations[i], t0)
            hi = min(starts[i + 1] if i + 1 < len(starts) else t1, t1)
            if hi > lo:
                total += (hi - lo) * REF_PROBE_S / durations[i]
        return total
