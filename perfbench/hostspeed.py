"""Scale measured host time to a reference host speed.

The shared 2-core x86-64 host this benchmark was tuned on switches
between two speeds about 1.6x apart, each held from a fraction of a
second to over a minute, so the same op's host time moved by more than
the benchmark's bounds between runs of the same code. A fixed
pure-Python kernel that never touches the program is therefore timed
beside it: before the first op, after every ``INTERVAL_S`` of program
time and at the end of the phase. A stretch of program time between two
kernel timings is reported as ``seconds * REFERENCE_S / kernel``, where
``kernel`` is the mean of those two timings.

A reported second is thus a second on a host that runs the kernel in
:data:`REFERENCE_S`. A change of the program moves it as a plain second
would; a change of host speed moves the kernel by about the same factor
and cancels out. The kernel allocates nothing the cyclic garbage
collector tracks, so the program's heap cannot slow it down through a
collection.
"""

from __future__ import annotations

import time
from typing import List

clock = time.perf_counter

#: Loop steps of one kernel timing (2.6 ms on the tuning host at its
#: faster speed, 4.2 ms at its slower one).
KERNEL_STEPS = 3000
#: Kernel time of the reference host, in seconds.
REFERENCE_S = 0.003
#: Program time between two kernel timings, in seconds.
INTERVAL_S = 0.05


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 1


_TABLE = {i: i for i in range(4096)}
_SLOTS = list(range(4096))
_CELL = _Cell()
#: 4 MiB of list slots, past the core's own caches: random reads of it
#: feel the shared cache and memory contention the program feels.
_FAR = [0] * (1 << 19)


def _step(x: int, i: int) -> int:
    return (x * 31 + i) & 0xFFF


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Dict, list, attribute and call work on preallocated state: the
    interpreter's common paths, on small ints only."""
    table, slots, cell, step, far = _TABLE, _SLOTS, _CELL, _step, _FAR
    x = y = 0
    for i in range(steps):
        x = step(x, i)
        y = (y * 1103515245 + 12345) & 0x7FFFF
        table[x] = (table[x] + 1) & 0xFFF
        slots[x] = slots[(x * 7) & 0xFFF] ^ (i & 0xFFF)
        cell.a = cell.b + x + far[y]
        cell.b = cell.a & 0xFF
        far[y ^ 0x40000] = cell.b
    return x


def kernel_s() -> float:
    """Host seconds of one kernel run."""
    start = clock()
    kernel()
    return clock() - start


class HostSpeed:
    """Kernel timings taken between ops, and the scaling they give.

    A *segment* is the index of the kernel timing that opened the
    stretch of program time an op ran in; :meth:`scale` divides by the
    mean of that timing and the next one.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.kernel: List[float] = []
        self._since = 0.0

    @property
    def segment(self) -> int:
        return len(self.kernel) - 1

    def calibrate(self) -> None:
        self.kernel.append(kernel_s())
        self._since = 0.0

    def spent(self, seconds: float) -> None:
        """Count ``seconds`` of program time; time the kernel once an
        interval's worth has run since the last timing."""
        self._since += seconds
        if self._since >= self.interval_s:
            self.calibrate()

    def scale(self, seconds: float, segment: int) -> float:
        """``seconds`` spent in ``segment``, in reference seconds."""
        around = (self.kernel[segment] + self.kernel[segment + 1]) / 2
        return seconds * REFERENCE_S / around


def timed(call, *args) -> tuple:
    """Run ``call(*args)`` between two kernel timings; return its host
    seconds and its reference seconds."""
    before = kernel_s()
    start = clock()
    call(*args)
    seconds = clock() - start
    after = kernel_s()
    return seconds, seconds * REFERENCE_S / ((before + after) / 2)
