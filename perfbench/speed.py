"""How fast the machine runs plain Python while an operation runs.

The benchmark's cores are shared with other machines' work, and the speed
of the same code drifts by up to ~1.7x, over seconds to minutes.  While the
operations run, a SIGALRM handler times a fixed kernel, which does not touch
the toolkit, every PERIOD_S seconds.  An operation's times are scaled by
REFERENCE_S over the kernel's mean time during it, so they read as seconds
at the reference speed.  The kernel costs about 0.3% of the time it
samples, the same share on every commit.

The mean, with the slowest and fastest tenth of the samples left out,
follows the slowdown that an operation sees over its whole length.  Over
ten rounds of the four timed operations on the reference machine, scaling
by it left a spread (standard deviation over mean) of 2-6% between rounds;
scaling by the median left 4-9%, and raw times varied 7-16%.

Work that the toolkit spreads over worker processes does not slow the
kernel much: the alarm wakes the waiting main process, and the scheduler
runs a waking task ahead of busy ones.  With a pool of two busy workers on
the reference machine, the kernel read a median 1.00x its single-process
time over eight rounds (0.92-1.03x, as the machine drifted between the two
halves of a round).  Sampling only before and after each operation was
tried: the machine's speed drifts during a 15 s audit call, and its scaled
time then differed by up to 1.7x between runs.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter

# The kernel's mean on the machine the benchmark was written on, when it
# was quiet: 2 shared Xeon cores at 2.0 GHz, Python 3.11.7.
REFERENCE_S = 0.00030
PERIOD_S = 0.1
KERNEL_REPS = 15

# The kernel's data, made once: the kernel allocates no container, so the
# garbage collector never runs inside it, whatever the toolkit has left on
# the heap.
_VALUES = [0] * 256
_LINES = [[(i + s) % 256 for s in range(1, 10)] for i in range(0, 256, 8)]
_TABLE = {i: i * 3 for i in range(64)}


def kernel() -> int:
    """Interpreter-bound work with a small working set: list and dict
    indexing, bit operations and branches, as in the toolkit's inner loops."""
    values, lines, table = _VALUES, _LINES, _TABLE
    for j in range(256):
        values[j] = 0
    total = 0
    for rep in range(15):
        for i in range(len(lines)):
            seen = 0
            unset = 0
            for j in lines[i]:
                v = values[j]
                if v == 0:
                    unset += 1
                else:
                    seen |= 1 << v
            values[(i * 8 + rep) % 256] = (seen.bit_count() + unset) % 7
            total += table[(total + unset) & 63] & 15
    return total


def kernel_times(reps: int = KERNEL_REPS) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def scale(times: list[float]) -> float:
    """Factor from wall seconds to seconds at the reference speed: the
    reference over the mean kernel time, without its top and bottom tenth."""
    cut = len(times) // 10
    return REFERENCE_S / mean(sorted(times)[cut:len(times) - cut])


class Sampler:
    """Times the kernel every PERIOD_S seconds of wall time while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
