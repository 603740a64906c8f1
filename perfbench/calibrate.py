"""Machine-speed calibration, so that times from a noisy shared host compare.

The speed of the hosts this benchmark runs on drifts by up to 2x within a
minute, and the drift moves pure-Python work of every kind alike.  So every
timed interval is bracketed by a fixed pure-Python calibration workload (the
kind of work the program does: dict updates keyed by sorted tuples, with
``Fraction`` products) and scaled by ``REFERENCE_MS / calibration_ms``: a
reported time is the wall time the interval would have taken on a machine
where the calibration takes ``REFERENCE_MS``.  The calibration is the
benchmark's own code; no change to wildcv can speed it up.  Raw wall times
are printed beside the calibrated ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 20.0

_BASE = {(i, j): Fraction(i - j, 1 + (i * j) % 3) for i in range(7) for j in range(7)}


def _work() -> dict:
    out: dict = {}
    for _ in range(2):
        for (i1, j1), c1 in _BASE.items():
            for (i2, j2), c2 in _BASE.items():
                key = tuple(sorted({(0, i1 + i2): 1, (1, j1 + j2): 1}))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def calibration_ms() -> float:
    """Wall time of one calibration run, in milliseconds."""
    t0 = perf_counter()
    _work()
    return (perf_counter() - t0) * 1e3


class Calibrated:
    """Scales intervals by the mean of the calibrations before and after."""

    def __init__(self):
        self.before = calibration_ms()

    def scale(self) -> float:
        """Calibrate again and return the factor for the interval just ended."""
        after = calibration_ms()
        factor = REFERENCE_MS / ((self.before + after) / 2)
        self.before = after
        return factor
