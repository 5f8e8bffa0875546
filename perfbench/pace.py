"""Times scaled to the host's uncontended CPU speed.

The benchmark shares a small virtual machine with other tenants, and its CPU
runs slower while they are busy (a tight pure-Python loop by about 1.4 times,
the workloads by up to 1.7 times), in spells of a fraction of a second to
minutes.  That swings a plain wall-clock throughput by more than
any bound a regression check can use.  So every timed phase is paced:
a timer signal interrupts the work every :data:`INTERVAL` seconds and times
a fixed pure-Python :func:`kernel` in the handler.  The time spent in the
handler is taken out of the phase's time, and what is left is divided by the
slowdown ``(mean(kernel samples) / REFERENCE_KERNEL_S) ** SENSITIVITY``: the
phase's time on the host at the speed it had when nothing else ran.  A
change to the program moves the scaled time as it moves the plain one; a
busy neighbour moves the kernel samples with the work and cancels out.

The kernel's loop fits in the first-level cache, while the workloads touch
far more memory, so a busy neighbour slows them more than it slows the
kernel: regressing the log of a serve's time on the log of its kernel mean,
over the serves of one seed, gave slopes of 1.1 to 2.6 (median about 1.6)
on the four workloads.  :data:`SENSITIVITY` is that slope, rounded down.

:data:`REFERENCE_KERNEL_S` is the kernel's time on an uncontended vCPU of
the 2-vCPU x86-64 KVM guest the benchmark was defined on (Python 3.11);
only the ratio between two runs on one host matters.  The unscaled times are
kept next to the scaled ones in the result file.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

clock = time.perf_counter

#: Seconds between two speed samples.
INTERVAL = 0.04
#: Iterations of the kernel's loop (about 0.65 ms on an uncontended vCPU).
KERNEL_LOOPS = 10_000
#: The kernel's time, in seconds, at the host's uncontended speed.
REFERENCE_KERNEL_S = 0.00065
#: How many times as much, in log terms, the work slows as the kernel.
SENSITIVITY = 1.5


def kernel() -> float:
    """Seconds one run of a fixed pure-Python loop takes now."""
    start = clock()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    return clock() - start


@dataclass
class Window:
    """One paced phase: its time with the handler's taken out, and the
    kernel samples taken while it ran (one at each edge at least)."""

    net_s: float = 0.0
    samples: list[float] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """How much slower than uncontended the work ran in this window."""
        return (statistics.fmean(self.samples) / REFERENCE_KERNEL_S) ** SENSITIVITY

    def scaled(self, seconds: float | None = None) -> float:
        """``seconds`` (the window's own net time by default) at uncontended speed."""
        return (self.net_s if seconds is None else seconds) / self.slowdown


class Pacer:
    """Samples the kernel from a timer signal while it is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent in the signal handler so far.
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = clock()
        self.samples.append(kernel())
        self.spent += clock() - start

    def net_clock(self) -> float:
        """The clock, less the time spent in the handler so far."""
        return clock() - self.spent

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def window(self):
        """Time the block, net of the handler, with the kernel sampled around it."""
        result = Window(samples=[kernel()])
        first = len(self.samples)
        start = self.net_clock()
        try:
            yield result
        finally:
            result.net_s = self.net_clock() - start
            result.samples.extend(self.samples[first:])
            result.samples.append(kernel())
