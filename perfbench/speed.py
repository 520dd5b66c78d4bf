"""Machine-speed probe that turns measured seconds into reference seconds.

On a shared 2-core cloud VM (Intel Xeon), the speed of one core flips
between a fast and a slow state (about 1.4x apart) every few seconds to
tens of seconds, and raw 30-second medians of one workload spread by
about 20% over ten runs.  So while a job runs, a timer signal
runs a fixed probe every INTERVAL_S in the same thread, and the job's
time is scaled by

    REFERENCE_S / (mean probe time during the job)

which is the job's time on a machine where the probe takes REFERENCE_S.
The probes' own time is taken out of the job's time first.  The probe does
the two kinds of work the pipeline does, none of it through filtra: dict
inserts of bytes keys, and numpy row eliminations in a Python loop.  A
change to the program cannot move it.  Over 28 runs each of six jobs, the
quartile spread of single job times was 12-26% raw and 4-6% scaled; a
probe of interpreter work alone gave 6-8%.

The probe allocates, and that moves the program's peak RSS by a few
percent from run to run (peak RSS also varies without it, less often).
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.001
INTERVAL_S = 0.025

_ROWS = np.random.default_rng(20261017).integers(0, 3, (12, 64))


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    seen: dict[bytes, int] = {}
    for i in range(2000):
        seen[(i * i % 97).to_bytes(2, "little")] = i
    a = _ROWS.copy()
    for r in range(len(a)):
        for i in range(len(a)):
            if i != r and a[i, r]:
                a[i] = (a[i] - a[i, r] * a[r]) % 3
    return time.perf_counter() - start


class Meter:
    """Times a block of work and samples the probe before, during and after it.

    Sampling during the block uses SIGALRM, so only one Meter may run at a
    time, in the main thread.  `during=False` probes only at the ends, for a
    block that waits on another process (whose CPU the probe would not share).
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[float] = []
        self.elapsed = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Meter":
        self.samples.append(probe())
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.samples[1:])
        self.samples.append(probe())
        self.elapsed = end - self._start - inside

    @property
    def reference(self) -> float:
        """The block's time scaled to reference speed."""
        return self.elapsed * REFERENCE_S * len(self.samples) / sum(self.samples)
