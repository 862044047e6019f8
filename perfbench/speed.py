"""The machine's momentary speed, measured with a fixed reference kernel.

The benchmark's host shares its cores: the speed of the same pure-Python
work drifts by up to about 1.7x, in stretches that last from seconds to
minutes.  The benchmark therefore times ``reference()`` (a fixed exact
elimination, independent of latconf) next to every op, and reports each
timing scaled to the *nominal speed*, the speed at which the reference
takes ``REFERENCE_S``:

    scaled time = wall time * REFERENCE_S / (reference time measured next to it)

A program change does not move the reference, so a change in a scaled
time is a change in the program; drift of the machine moves both and
cancels.  On a machine that is not shared, the scaled time is the wall
time up to a constant factor.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Time of one reference() call on a 2-vCPU Intel Xeon VM (Python 3.11.7)
# in its fast stretches: the nominal speed that timings are scaled to.
REFERENCE_S = 0.0010

# Samples on each side of an op's own two that its reference time is the
# median of: single samples jitter by several percent, and the drift is
# slow next to a dozen ops.
HALF_WIDTH = 5

# A fixed nonsingular 7x7 integer matrix
_MATRIX = [[(5 * i * i + 3 * j * j + 7 * i * j + i + 2 * j) % 19 - 9 for j in range(7)] for i in range(7)]


def reference():
    """Fraction Gaussian elimination of ``_MATRIX``; returns its determinant."""
    a = [[Fraction(x) for x in row] for row in _MATRIX]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def sample():
    """Wall time of one reference() call, after one untimed call that
    warms the caches the timed one uses.  The garbage collector is off
    meanwhile, so that the program's live objects, which a collection
    would have to walk, do not move the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_reference(samples, i):
    """Reference time around op ``i``: the median of the samples
    ``i - HALF_WIDTH`` to ``i + 1 + HALF_WIDTH``.  Sample ``j`` is taken
    just before op ``j``, so samples ``i`` and ``i + 1`` bracket op ``i``."""
    return statistics.median(samples[max(0, i - HALF_WIDTH):i + HALF_WIDTH + 2])


def scale(times, samples):
    """Scale each wall time to the nominal speed; ``samples`` has one
    more entry than ``times``."""
    return [t * REFERENCE_S / local_reference(samples, i) for i, t in enumerate(times)]
