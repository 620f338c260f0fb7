"""Host-speed probe: a fixed kernel whose run time tracks how fast the host is now.

The benchmark runs on a small VM that shares its cores with other tenants'
load.  The same repetition can take 1.4 s in a quiet minute and 2 s in a
busy one, in regimes that last from seconds to minutes, and the process CPU
time rises with the wall time (the slowdown is contention for the core and
its caches, not waiting).  No statistic of a single window removes that.

``one_pass()`` reads how slow the host is now, from the time of three
fixed parts that stand for what the workloads do: a numpy sort, search and
prefix sum on a ``bulk``-sized particle array; an interpreted loop of numpy
calls on a ``wall``-sized array; and plain interpreted arithmetic.  Each
part's time is divided by its time at the reference speed, and the mean of
the three is the reading (1.0 at the reference speed).  A pass takes about
6 ms and depends on nothing in ``src/``, so a change to the program does
not change it.

``Sampler`` times a call and makes a pass right before it, every
``PERIOD_S`` of wall time during it (from a SIGALRM handler, between two
bytecodes of the call) and right after it.  The passes made during the call
are subtracted from its time, and the rest is divided by the mean reading:
the result is the time the call would have taken at the reference speed.

Candidate parts were timed during the repetitions of all three workloads
(over 2.5 to 3.5 minutes each).  Each part alone tracked some workloads
well and others badly: scaled by the sort part alone, the repetition times
still varied by 7.1% / 4.7% / 6.0% (coefficient of variation, ``wall`` /
``picard`` / ``bulk``), by the interpreted part alone 4.7% / 5.0% / 7.1%,
and by the mean of the three parts 5.7% / 3.6% / 4.6%, against 13.0% /
6.4% / 7.4% raw.  A fourth part, a random gather from a 1.6 MB array, added
nothing and would have moved the workload's peak memory.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Wall time between two passes during a call.
PERIOD_S = 0.25

_rng = np.random.default_rng(20190926)
_PARTICLES = _rng.random(20_000)
_SMALL = _rng.random(1_296)


def _sort_search() -> None:
    """A sort, search and prefix sum on a bulk-sized particle array."""
    ordered = np.sort(_PARTICLES)
    ranks = np.searchsorted(ordered, _PARTICLES)
    np.cumsum(ordered[ranks])


def _small_steps() -> None:
    """An interpreted loop of numpy calls on a wall-sized array."""
    x = _SMALL
    for _ in range(60):
        y = x * 0.5 + 0.25
        hit = y > 0.5
        if hit.any():
            x = np.where(hit, y - 0.1, y)
        float(x.max())


def _interpreted() -> None:
    """Plain interpreted arithmetic and dictionary stores."""
    acc, table = 0.0, {}
    for i in range(6_000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc


# Each part with its time on the quiet 2-core Intel Xeon VM the benchmark was
# built on (numpy 2.4.6).  The reference times weigh the parts equally and
# set the unit of the scaled times; a pass reads 1.0 at reference speed.
PARTS = ((_sort_search, 0.0036), (_small_steps, 0.0005), (_interpreted, 0.0007))


def one_pass() -> float:
    """How slow the host is now: 1.0 at the reference speed, 1.3 if 30% slower."""
    ratios = []
    for part, reference_s in PARTS:
        t0 = time.perf_counter()
        part()
        ratios.append((time.perf_counter() - t0) / reference_s)
    return statistics.fmean(ratios)


def passes(n: int) -> list[float]:
    return [one_pass() for _ in range(n)]


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the reference speed, given the passes made around them."""
    return seconds / statistics.fmean(samples)


class Sampler:
    """Context manager that times its body and samples the host speed.

    After the ``with`` block, ``seconds`` is the body's wall time less the
    passes made during it, ``samples`` the pass readings and ``scaled`` the
    body's time at the reference speed.  Main thread only.
    """

    def __enter__(self) -> "Sampler":
        self.samples = [one_pass()]
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(one_pass())
        self.paused += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(one_pass())
        self.seconds = elapsed - self.paused
        self.scaled = scale(self.seconds, self.samples)
