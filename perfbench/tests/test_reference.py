"""Reference-speed normalization.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import pytest

from perfbench import reference


def test_a_uniform_host_slowdown_cancels():
    ms = [1.0, 2.0, 3.0, 4.0] * 10
    refs = [0.3, 0.5] * 20
    slow = reference.normalized([v * 1.5 for v in ms], [r * 1.5 for r in refs])
    assert slow == pytest.approx(reference.normalized(ms, refs))


def test_a_slow_stretch_is_divided_by_its_own_slices():
    fast, slow = reference.NOMINAL_MS, 2 * reference.NOMINAL_MS
    window = reference.WINDOW
    refs = [fast] * (4 * window) + [slow] * (4 * window)
    ms = [1.0] * (4 * window) + [2.0] * (4 * window)
    out = reference.normalized(ms, refs)
    assert out[0] == pytest.approx(1.0)
    assert out[-1] == pytest.approx(1.0)


def test_the_slice_is_fixed_work():
    assert reference.work() == reference.work()
    assert reference.slice_ms() > 0.0
