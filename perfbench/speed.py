"""Processor-speed calibration for timed calls.

On the machine these bounds were set on (2 vCPUs of a 2.1 GHz Xeon), the
processor's speed flips between two levels up to 1.8x apart. Each level
lasts for seconds, and the share of time at each drifts over minutes, so raw
call times vary between runs by more than any useful regression bound. The
harness therefore times a fixed kernel between calls: the same kind of
work lurwit does, small numpy operations driven from Python, but no lurwit
code. Each call's time is scaled by REFERENCE_S over the kernel time
measured around it. Reported times are thus times at the speed where the
kernel takes REFERENCE_S. A change to lurwit moves them; a change of the
processor's speed level does not.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1.0e-3  # kernel time at the reference speed
EVERY_S = 0.05  # calibrate before a call if this long has passed since the last calibration

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_RHO = np.eye(4, dtype=complex) / 4.0


def kernel_seconds() -> float:
    """Time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(30):
        op = np.kron(_SX, _I2)
        total += float(np.trace(_RHO @ op).real)
        total += float(np.linalg.eigvalsh(_RHO + 0.1 * op)[0])
        total += len(str({"value": total}))
    return time.perf_counter() - start


def calibration_seconds() -> float:
    """The faster of two kernel runs, so that an interrupt in one does not count."""
    return min(kernel_seconds(), kernel_seconds())


class Calibrator:
    """Kernel times taken between calls, and the scale for a call between two of them."""

    def __init__(self):
        self.samples = []
        self._last = -float("inf")

    def calibrate(self) -> None:
        self.samples.append(calibration_seconds())
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Calibrate if due; the index of the latest sample, to pass to `scale` after the call."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.calibrate()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """REFERENCE_S over the mean kernel time of sample `index` and the one after it."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return REFERENCE_S / ((self.samples[index] + after) / 2.0)
