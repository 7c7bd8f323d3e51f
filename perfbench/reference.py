"""A fixed reference computation that measures how fast the machine is now.

The benchmark runs on a few cores of a shared host, where the same op on
the same input takes up to twice as long from one minute to the next.  The
worker runs reference() before every op and after the last one, and
rescales each op's CPU time by how fast the reference ran around it: an op
that took t CPU seconds while the reference took r ms counts as
t * REFERENCE_MS / r "reference seconds".  The reference never calls
posgeom, so a change to the library moves the rescaled times exactly as it
moves the raw ones, while a slower or faster host moves both the op and
the reference and cancels out.

The reference mixes the kinds of work the workloads do: Fraction
arithmetic, dict-keyed sums of rationals, small numpy solves and a
vectorised numpy expression.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# CPU time of one reference() on the machine where the benchmark was set up
# (2 cores of an Intel Xeon, Python 3.11, numpy 2.4), when that host was
# quiet.  It only sets the scale of the rescaled times.
REFERENCE_MS = 2.0

_MATRIX = np.eye(6) * 6 + np.arange(36.0).reshape(6, 6) / 40
_GRID = np.linspace(0.1, 1.0, 2000)


def reference() -> float:
    """Run the reference computation once; returns its CPU time in ms."""
    began = time.process_time()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 17 - 8, i % 13 + 1) * Fraction(i, i + 7)
    sums: dict[int, Fraction] = {}
    for a in range(5):
        for b in range(5):
            sums[(a + b) % 7] = sums.get((a + b) % 7, 0) + Fraction(a + 1, b + 2)
    for _ in range(40):
        np.linalg.solve(_MATRIX, _GRID[:6])
    for _ in range(10):
        np.sum(np.exp(-_GRID) * _GRID**1.5)
    return (time.process_time() - began) * 1e3


def rescale(cpu: list[float], reference_ms: list[float]) -> list[float]:
    """Op CPU times in reference seconds.

    reference_ms[i] ran just before op i and reference_ms[i + 1] just after
    it.  Op i is rescaled by the median of the four samples around it, so
    that one disturbed reference sample does not move the op.
    """
    assert len(reference_ms) == len(cpu) + 1
    out = []
    for i, seconds in enumerate(cpu):
        local = statistics.median(reference_ms[max(0, i - 1) : i + 3])
        out.append(seconds * REFERENCE_MS / local)
    return out
