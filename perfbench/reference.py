"""A fixed reference computation that tracks how fast the host runs right now.

On a shared host the same code runs up to about 1.5 times slower in some
phases than in others, and the speed changes within a second as well as
over minutes, so separate runs of one workload disagree by more than any
regression worth catching.  :class:`SpeedProbe` therefore times this
computation right before an op, every ``PERIOD_S`` seconds while the op
runs (from a ``SIGALRM`` handler, with the handler's time taken out of the
op's time) and right after it; ``run.py`` divides the op's time by the mean
of those samples.

The work mirrors the program's mix (text parsing into tuples and a dict,
array building, a CSR matrix and sparse mat-vecs) and uses nothing from the
package, so a change to the package cannot change it.
"""
from __future__ import annotations

import gc
import signal
import time

import numpy as np
import scipy.sparse

N = 40_000
MATVECS = 200
PERIOD_S = 1.0


def reference() -> float:
    lines = [f"{i}\t{(i * 7919) % N}\t0.2" for i in range(N)]
    rows = [(int(a), int(b), float(w)) for a, b, w in (line.split("\t") for line in lines)]
    by_source = {row[0]: row for row in rows}
    src = np.fromiter((row[0] for row in rows), dtype=np.int64, count=N)
    dst = np.fromiter((row[1] for row in rows), dtype=np.int64, count=N)
    matrix = scipy.sparse.csr_matrix((np.full(N, 0.2), (src, dst)), shape=(N, N))
    x = np.ones(N)
    for _ in range(MATVECS):
        x = matrix @ x + 1.0
    return float(x[len(by_source) - 1])


def timed_reference() -> float:
    """Wall time of one :func:`reference` run.

    The cyclic collector is off meanwhile, so that a collection of the
    program's objects is never charged to the reference.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Samples the reference time around and during one op.

    Use as ``with SpeedProbe() as probe:`` around the op's timed region;
    ``probe.inside_s`` is the reference time spent inside that region.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _tick(self, signum, frame) -> None:
        elapsed = timed_reference()
        self.samples.append(elapsed)
        self.inside_s += elapsed

    def __enter__(self) -> SpeedProbe:
        self.samples.append(timed_reference())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(timed_reference())

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)
