"""Machine-pace probe: what makes timings on a shared box comparable.

On the shared 2-vCPU virtual machines this benchmark runs on, a core
switches every fraction of a second to a few seconds between a fast
mode and modes 1.3-2x slower (another tenant on the sibling hardware
thread), and the whole machine drifts by as much again over minutes.
Raw wall time of the same 4 s cold pass was seen to scatter by 20-40 %
between runs (interquartile range over median) and to move by 1.6x
within ten minutes.  Which mode a pass ran in is not a property of the
code under test.

So time is measured against a reference computation that runs
alongside.  The probe is a fixed ~1 ms piece of Python + small-array
NumPy work — the same mix the passes are made of — run from a
``SIGALRM`` handler every 50 ms inside the measured process itself (one
process, one thread).  Each sample says how fast the core was *then*.
A timed interval is reported in *nominal seconds*: the probe's own time
inside the interval is removed, and every stretch is scaled by
``NOMINAL_PROBE_S / duration-of-the-nearest-probe``.  In words: the
interval lasted as long as N probes would have at the pace the machine
was running, and N x 0.8 ms is what is reported.  On an undisturbed
machine of the class this was written on (probe = 0.8 ms) nominal
seconds are wall seconds.

Measured on that class of machine (12-16 children per row, cold pass,
spread = interquartile range / median):

    workload    raw wall   nominal
    cg_small      19.6 %     4.2 %    (half the probes in a slow mode)
    cg_small      37.6 %     9.0 %    (heavier interference)
    expr_zoo      40.4 %     8.6 %
    cg_large      30.5 %     4.3 %

Raw wall times are always reported beside the nominal ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
#: loop count of one probe: about a millisecond
PROBE_ITERATIONS = 250
#: what one probe takes on an undisturbed machine of the reference class
NOMINAL_PROBE_S = 0.0008


class PaceProbe:
    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._array = np.arange(4096, dtype=np.float64)

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        a = self._array
        acc = 0.0
        for i in range(PROBE_ITERATIONS):
            a = a * 1.0000001 + 0.5
            acc += float(a[i & 4095])
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def burst(self, n: int) -> float:
        """``n`` probes back to back — the calibration spin run before
        and after the timed section.  Returns its duration."""
        t0 = time.perf_counter()
        for _ in range(n):
            self._sample()
        return time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_s(self) -> float:
        return statistics.median(self.durations)

    def nominal(self, t0: float, t1: float) -> float:
        """Nominal seconds of the interval ``[t0, t1]``."""
        times = np.asarray(self.times)
        durations = np.asarray(self.durations)
        # each probe speaks for the stretch nearer to it than to any other
        mid = (times[1:] + times[:-1]) / 2
        lo = np.clip(np.concatenate(([t0], mid)), t0, t1)
        hi = np.clip(np.concatenate((mid, [t1])), t0, t1)
        own = np.clip(np.minimum(times + durations, t1)
                      - np.maximum(times, t0), 0.0, None)
        return float(np.sum(np.clip(hi - lo - own, 0.0, None)
                            * (NOMINAL_PROBE_S / durations)))
