"""Summation orders pinned by hand, so results do not depend on the
interpreter: numpy's float64 order for the LDA sweep and the FCM kernel
(which replace numpy reductions and must match them bit for bit), and
plain left to right for metrics, group admission and costs."""

from collections.abc import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...``, added strictly left to right.  Not
    ``sum()``: from Python 3.12 it compensates float rounding, so a
    total (and a ``> budget`` test on it) would depend on the
    interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def pairwise_sum(values):
    """``np.add.reduce`` over ``values``, added in numpy's order: fewer
    than 8 terms in sequence; up to 128 in eight strided accumulators
    joined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest in
    sequence; longer runs split at a multiple of 8 near the middle.  Not
    ``sum()``: from Python 3.12 it compensates float rounding.

    Addends are floats or equal-shape float64 arrays, added elementwise
    (as ``np.stack(values, -1).sum(-1)``); inputs are never written to.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            r0 = r0 + values[i]
            r1 = r1 + values[i + 1]
            r2 = r2 + values[i + 2]
            r3 = r3 + values[i + 3]
            r4 = r4 + values[i + 4]
            r5 = r5 + values[i + 5]
            r6 = r6 + values[i + 6]
            r7 = r7 + values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
