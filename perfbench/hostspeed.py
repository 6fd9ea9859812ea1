"""Host speed, sampled while the benchmark works, and divided out.

On a shared host the same work can take half again as long from one
minute to the next, and slow spells last tens of seconds, so a median
over a run's passes does not remove them.  While a :class:`Sampler` is
on, a timer signal interrupts the program every ``INTERVAL_S`` and times
a fixed slice of work made of the kinds in ``SLICES``, each a mix of
what one kind of program work does.  Two things follow:

* :func:`clock` is ``time.perf_counter`` minus the time spent in
  slices, so every duration the benchmark measures with it leaves the
  slices out;
* :meth:`Sampler.since` turns a duration measured over an interval into
  the time it would take on a host where each kind takes its reference
  time, using the mean slice time of that interval.

The slice is the benchmark's own code and never changes with the
program, so a faster program still reads faster; only the host's speed
is divided out.  Raw times are recorded next to the scaled ones.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

#: Wall time between two slices (s).
INTERVAL_S = 0.1
#: Slices an interval's scale rests on at least; a shorter interval
#: borrows the slices just before it.
MIN_SLICES = 20

_RNG = np.random.default_rng(20220516)
_A = _RNG.random((64, 64))
_SPD = _A @ _A.T + 64.0 * np.eye(64)
_RHS = _RNG.random(64)
#: A 127-point data set, the size a tuning session's GP grows to.
_X = np.linspace(0.0, 1.0, 127)
_D2 = (_X[:, None] - _X[None, :]) ** 2
_Y = np.sin(7.0 * _X)

#: Seconds spent in slices so far.
_hidden = 0.0


def clock() -> float:
    """``time.perf_counter()`` with the time spent in slices left out."""
    return time.perf_counter() - _hidden


def interpreted_slice() -> None:
    """Interpreted heap and dict traffic and small Cholesky solves, as
    in the event-driven simulator."""
    heap: List[int] = []
    table = {}
    for i in range(1500):
        heapq.heappush(heap, (i * 7919) % 1501)
        table[i & 511] = table.get(i & 511, 0) + i
    while heap:
        heapq.heappop(heap)
    for _ in range(3):
        np.linalg.solve(np.linalg.cholesky(_SPD), _RHS)


def _gp_nll(params: np.ndarray) -> float:
    alpha, theta = np.exp(params)
    k = alpha * np.exp(-0.5 * _D2 / theta) + 1e-3 * np.eye(len(_X))
    cho = cho_factor(k, lower=True)
    return 0.5 * _Y @ cho_solve(cho, _Y) + np.sum(np.log(np.diag(cho[0])))


def gp_slice() -> None:
    """One L-BFGS-B step of a Gaussian-process likelihood fit through
    scipy, as in ``GaussianProcess.fit``."""
    minimize(_gp_nll, x0=[0.0, -2.0], method="L-BFGS-B",
             options={"maxiter": 1})


#: Slice kinds: the work, and its median time on a calm 2-vCPU Xeon
#: host (s).  Only the unit of the scaled times depends on the latter.
#: Every object a slice makes is freed before it returns, so it never
#: leaves a garbage collection due.
SLICES = {
    "interpreted": (interpreted_slice, 0.0015),
    "gp": (gp_slice, 0.003),
}


class Sampler:
    """Times a slice of the given kinds every ``INTERVAL_S`` while it
    is on."""

    def __init__(self, kinds: Sequence[str]) -> None:
        self._work = [SLICES[kind][0] for kind in kinds]
        #: Slice time on the reference host (s).
        self.reference_s = sum(SLICES[kind][1] for kind in kinds)
        #: Slice durations in the order they ran.
        self.slices: List[float] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        global _hidden
        t0 = time.perf_counter()
        for work in self._work:
            work()
        dt = time.perf_counter() - t0
        self.slices.append(dt)
        _hidden += dt

    def __enter__(self) -> "Sampler":
        self._on_timer(None, None)  # so every interval has a slice
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[float, int]:
        """Start of an interval: the clock and the slices so far."""
        return clock(), len(self.slices)

    def since(self, mark: Tuple[float, int]) -> Tuple[float, float]:
        """``(seconds, scale)`` of the interval from ``mark`` to now:
        its duration without slices, and the factor that turns it into
        reference-host time (1.0 if the sampler never ran)."""
        start, first = mark
        seconds = clock() - start
        if not self.slices:
            return seconds, 1.0
        slices = self.slices[min(first, max(0, len(self.slices) - MIN_SLICES)):]
        return seconds, self.reference_s / statistics.fmean(slices)
