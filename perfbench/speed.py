"""Host-speed normalization of benchmark timings.

On a shared host the same interpreter-bound code runs up to ~1.8x slower
for seconds at a time, depending on what the neighbours do.  A fixed
pure-Python kernel that does not touch valkit is timed next to the
measured work; each measured time is scaled by

    REF_KERNEL_S / (median of the kernel times around it)

which turns it into seconds at the reference speed, the speed at which the
kernel takes REF_KERNEL_S.  A change to valkit moves the measured times and
not the kernel, so it shows in full; a change of host speed moves both and
cancels to first order.
"""
from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.002
# Kernel samples are taken at most every INTERVAL_S; a measured time is
# scaled by the median of the SIDE samples before and SIDE after it.
INTERVAL_S = 0.1
SIDE = 2


def kernel() -> Fraction:
    """Exact-rational arithmetic and hashing, like valkit's own inner loops."""
    acc = Fraction(0)
    seen: dict[Fraction, int] = {}
    for i in range(1, 400):
        x = Fraction(i, 7 + i % 11)
        acc += x * x
        seen[x] = seen.get(x, 0) + 1
    return acc


class Speed:
    """Tracks the host speed through kernel samples taken between measurements."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        for _ in range(SIDE):
            self.sample(force=True)

    def sample(self, force: bool = False) -> None:
        """Time the kernel if INTERVAL_S has passed since the last sample."""
        now = time.perf_counter()
        if force or now - self.at[-1] >= INTERVAL_S:
            kernel()
            self.kernel_s.append(time.perf_counter() - now)
            self.at.append(now)

    def scale(self, t: float) -> float:
        """Factor from measured seconds at time `t` to reference seconds."""
        i = bisect.bisect_right(self.at, t)
        window = self.kernel_s[max(0, i - SIDE) : i + SIDE]
        return REF_KERNEL_S / statistics.median(window)
