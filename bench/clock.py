"""Wall time scaled to a nominal machine speed.

The benchmark runs on shared virtual machines whose speed changes under it.
On a shared 2-vCPU virtual machine one fixed `surfaces` op took either about 9.5 or about
17 ms, switching between the two every few seconds, with CPU time equal to
wall time: the processor itself slows down, which no choice of clock avoids.
A fixed reference kernel shows the same factor of about 1.8.

So every op time is multiplied by NOMINAL_S / (kernel time measured right
before and after it), which reads as "seconds on this machine when the kernel
takes NOMINAL_S".  With the kernel timed after every op, the median of 600
such 10 ms ops varied by 2 % (quartile distance over median) between 10 s
stretches, against 8 % unscaled; for ops of 4 s with 100 ms kernel windows,
2 % against 11 %.  The kernel is the benchmark's own code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import signal
import time

NOMINAL_S = 0.0025        # kernel time in the slower of the two states above
TICK_S = 0.02             # timer period of a TickSampler
NOMINAL_TICK_S = 0.00019  # tick_kernel time in the slower state


def kernel() -> complex:
    """Fixed interpreter and small-array work, like the ops' own mix."""
    import numpy as np  # here, so that child interpreters can tick without it

    acc = 0j
    z = 0.3 + 0.1j
    for k in range(1500):
        acc = acc * z + complex(k % 7, 1)
        acc = acc / (abs(acc) + 1.0)
    m = np.arange(49, dtype=np.int64).reshape(7, 7) % 5
    for k in range(100):
        m = (m @ m) % 7
        np.linalg.det(np.eye(4) + 0.01 * k)
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedClock:
    """Scales each op's wall time by the kernel time measured around it.

    The kernel is timed once before the first op and after every op; an op's
    time is multiplied by NOMINAL_S over the mean of the samples on its two
    sides.  This suits ops of milliseconds: the speed changes every few
    seconds, so it rarely changes during one.
    """

    def __init__(self, sample=time_kernel):
        self._sample = sample
        self._last = self._sample()
        self.scaled: list[tuple[float, object]] = []

    def add(self, seconds: float, tag: object = None) -> None:
        now = self._sample()
        self.scaled.append((seconds * NOMINAL_S / ((self._last + now) / 2), tag))
        self._last = now


def tick_kernel() -> complex:
    """Interpreter-only work of about 0.2 ms, small enough to run every tick."""
    acc = 0j
    z = 0.3 + 0.1j
    for k in range(300):
        acc = acc * z + complex(k % 7, 1)
        acc = acc / (abs(acc) + 1.0)
    return acc


class TickSampler:
    """Times tick_kernel from a SIGALRM handler every TICK_S of wall time.

    The handler runs between bytecodes of whatever the process is doing, so
    the ticks sample the speed during the op itself.
    """

    def __init__(self):
        self.count = 0
        self.total_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        tick_kernel()
        self.total_s += time.perf_counter() - start
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def scale_ticked(wall_s: float, count: int, total_s: float) -> float:
    """An op's wall time less its ticks, at the speed where a tick takes
    NOMINAL_TICK_S; the plain wall time if no tick ran."""
    if not count:
        return wall_s
    return (wall_s - total_s) * NOMINAL_TICK_S / (total_s / count)
