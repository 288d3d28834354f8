"""Host-speed correction of wall times.

The benchmark runs on a VM that shares its processor with other tenants.  Its
speed drifts by up to 1.9x, over periods from a fraction of a second to
minutes, and CPU time tracks wall time: the processor itself runs slower, so
every kind of work slows together.  A wall time alone therefore says as much
about the neighbours as about hkforge.

`Sampler` times a fixed reference computation before a timed region, every
SAMPLE_EVERY_S inside it (from a SIGALRM handler, between two bytecodes of
whatever runs), and after it.  The region's corrected time is its wall time,
less the time the samples inside it took, scaled by REFERENCE_S over the mean
sample.  It reads as seconds on a host where one sample takes REFERENCE_S.

The reference is a sparse product of two 24-term polynomials in three
variables, kept as a dict of exponent tuples mod 32003: the same kind of
interpreter work as hkforge's, without any hkforge code, so no change to
hkforge moves it.  The cyclic garbage collector is held off while it runs,
so a collection of the timed code's garbage never lands in a sample and out
of the timed region.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# About what one sample takes on an unloaded vCPU of the 2-vCPU x86_64 VM the
# benchmark was tuned on.
REFERENCE_S = 0.00075
SAMPLE_EVERY_S = 0.02
_REPS = 4
_P = 32003
_A = tuple(((i % 5, i % 3, i % 7), 1 + 37 * i % _P) for i in range(24))
_B = tuple(((i % 4, i % 6, i % 2), 1 + 91 * i % _P) for i in range(24))


def reference_sample() -> float:
    """Wall seconds of one run of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(_REPS):
        acc: dict[tuple[int, int, int], int] = {}
        for ea, ca in _A:
            for eb, cb in _B:
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                acc[key] = (acc.get(key, 0) + ca * cb) % _P
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Sampler:
    """Reference samples around and inside one timed region at a time.

        sampler.start()
        t0 = time.perf_counter(); ...; t1 = time.perf_counter()
        wall, corrected = sampler.stop(t0, t1)
    """

    def __init__(self):
        self._samples: list[float] = []
        # (start, duration) of each sample taken by the alarm handler
        self._inside: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(reference_sample())
        self._inside.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._samples = [reference_sample()]
        self._inside = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, begin: float, end: float, after: int = 1) -> tuple[float, float]:
        """(wall, corrected) seconds of the region timed from `begin` to
        `end`, given as `time.perf_counter()` stamps, both without the
        samples taken inside it; `after` samples close it."""
        # The handler stays installed: an alarm already due runs it once more,
        # into the samples of a region that has ended.
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._samples += [reference_sample() for _ in range(after)]
        wall = end - begin - sum(d for s, d in self._inside if begin <= s < end)
        return wall, wall * REFERENCE_S / statistics.fmean(self._samples)
