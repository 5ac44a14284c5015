"""Pass and set-up times rescaled to a fixed host speed.

The benchmark runs on a few cores of a shared host, whose speed for the
same single-threaded code drifts by up to 1.6x over seconds to minutes as
other tenants load the same cores.  Medians inside a run do not remove a
drift that lasts longer than the run.  So the clock samples the host's
speed as it goes: it times a fixed reference chunk of pure-Python work at
`start()`, every `interval` seconds while it runs (from a SIGALRM timer,
so samples fall inside long library calls too), and at `stop()`.  The
chunk multiplies two sparse polynomials with exact rational coefficients
held in tuple-keyed dicts, which is the kind of work the library spends
its time on; its time tracks the library's under the host's drift far
better than a tight integer loop does.

Between `start()` and `stop()` the clock keeps the wall time with the
chunks left out, and the time-weighted mean chunk time: each stretch of
work between two samples weighs the mean of those two samples by its
length.  The reference time is the wall time scaled by REF_CHUNK_S over
that mean: the time the work would take on a host where one chunk takes
REF_CHUNK_S, close to wall seconds on an unloaded 2-vCPU VM of the kind
the benchmark was written on.  A change to the library moves it like wall
time; a change of host speed mostly does not.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

REF_CHUNK_S = 0.008     # one chunk on an unloaded 2-vCPU VM (Python 3.11)


def _poly(rng, terms=40, nvars=5):
    return {tuple(rng.randint(0, 3) for _ in range(nvars)):
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(terms)}


_RNG = random.Random(5)
_LEFT, _RIGHT = _poly(_RNG), _poly(_RNG)


def _chunk():
    out: dict = {}
    for ea, ca in _LEFT.items():
        for eb, cb in _RIGHT.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def chunk_time():
    """Seconds one reference chunk takes now."""
    t0 = time.perf_counter()
    _chunk()
    return time.perf_counter() - t0


class RefClock:
    """Wall and reference time of the work between `start()` and `stop()`.

    `spent` is the time taken by the clock's own samples so far, for callers
    that time parts of the work and leave the samples out.
    """

    def __init__(self, interval=0.2):
        self.interval = interval
        self.raw = self.spent = self._weighted = 0.0
        self._chunk = self._t0 = 0.0
        self._sampling = False

    def start(self, sampling=True):
        """Begin an interval; without `sampling` the speed is sampled only at its ends."""
        self.raw = self.spent = self._weighted = 0.0
        self._chunk = chunk_time()
        self._t0 = time.perf_counter()
        if sampling:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        """End the interval; return (wall seconds, reference seconds), samples left out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        return self.raw, self.raw * REF_CHUNK_S * self.raw / self._weighted

    def _on_alarm(self, signum, frame):
        if not self._sampling:      # an alarm that arrives during a sample is dropped
            self._sample()

    def _sample(self):
        self._sampling = True
        t = time.perf_counter()
        chunk = chunk_time()
        self.raw += t - self._t0
        self._weighted += (t - self._t0) * (self._chunk + chunk) / 2
        self._chunk = chunk
        self._t0 = time.perf_counter()
        self.spent += self._t0 - t
        self._sampling = False
