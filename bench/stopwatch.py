"""Speed-normalized timing for a host whose speed drifts.

On the shared two-vCPU host this benchmark was built on, the same pass ran up
to about 1.4 times slower in some minutes than in others, with no steal time
reported. Raw wall times of runs made minutes apart therefore differ by more
than any bound worth having.

While a section of work runs, a SIGALRM handler times a short fixed sample of
work every ``SAMPLE_INTERVAL_S`` on the same thread: a small-int loop and a
chain of big-rational products. The sampling time is taken out of the
section's raw seconds, and the mean sample gives the host's speed during the
section, which rescales the seconds to a nominal host on which the sample
takes ``NOMINAL_SAMPLE_S``:

    nominal = raw * NOMINAL_SAMPLE_S / mean(sample seconds)

Nominal seconds equal raw seconds when the host runs at nominal speed. The
sample is the benchmark's own code, so no change to modwalk can move it.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

SAMPLE_INTERVAL_S = 0.25
NOMINAL_SAMPLE_S = 0.0025  # a round figure near the sample's time on the baseline host
_FACTOR = Fraction(2**61 - 1, 3**38 + 5)
_TERM = Fraction(7**20, 2**59 + 3)


def sample_s() -> float:
    """Seconds of one run of the fixed sample of work."""
    start = perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    x = Fraction(1)
    for _ in range(60):
        x = x * _FACTOR + _TERM
    return perf_counter() - start


class Stopwatch:
    """Context manager timing the sections of one pass; speed samples are
    taken from entry to exit.

    Inside the ``with`` block, :meth:`time` runs one section and returns its
    raw seconds (sampling time excluded); after it, :meth:`nominal` rescales
    raw seconds by the speed sampled over the whole block.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self.raw_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.samples.append(sample_s())
        self.sampling_s += perf_counter() - start

    def __enter__(self) -> "Stopwatch":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run ``fn()``; return its result and raw seconds."""
        sampled = self.sampling_s
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start - (self.sampling_s - sampled)
        self.raw_s += raw
        return result, raw

    def nominal(self, raw_s: float) -> float:
        return raw_s * NOMINAL_SAMPLE_S / statistics.fmean(self.samples)
