"""Speed samples: how fast the machine runs, taken while a batch runs.

The reference machine is a 2-vCPU VM on a shared host.  With nothing else
running in the VM, its speed swings by up to 1.7x, over seconds and for up
to a minute, and the kernel reports no steal time: a pure-Python loop, its
CPU time and the program all slow down together.  Runs of a few tens of
seconds each land in a different phase of those swings, so their raw times
spread by more than a regression bound.

An untraced batch therefore interleaves a fixed kernel with the program,
from the moment the program is imported: a one-shot ``SIGALRM`` timer
interrupts the program every ``PERIOD_S``, and the handler times one run of
:func:`kernel`, then re-arms the timer.  The kernel is part of the
benchmark, never of the program, so a change to the program cannot move it.
``measure.py`` removes the kernel's own time from every window it measures
and scales what is left by ``measure.REF_NS`` over the mean kernel time
around that window (see ``measure.calibrated``).  Traced batches take no
samples, so that no span holds kernel time.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

PERIOD_S = 0.025  # from the end of one sample to the start of the next
_COSTS = [np.random.default_rng(0).random((n, n)) for n in (4, 9, 27)]  # the grids' sizes


def kernel() -> float:
    """About 1 ms, in thirds: interpreter loop, small numpy operations and
    ``linear_sum_assignment`` on the cost-matrix sizes the workloads solve.

    The program spends its time in the same three kinds of code.  Measured
    on the reference machine, a kernel mixing them tracks the program's
    swings better than any one of them alone.
    """
    x = 0
    for j in range(7_000):
        x += j * j
    a = np.arange(64.0)
    for _ in range(150):
        a = (a * 1.0001 + 0.5).clip(0.0, 1e6)
    for j in range(100):
        linear_sum_assignment(_COSTS[j % 3])
    return x + float(a[0])


class Sampler:
    """Takes one ``(start_ns, end_ns)`` kernel sample every ``PERIOD_S``."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []

    def _tick(self, signum, frame) -> None:
        start = time.monotonic_ns()
        kernel()
        self.samples.append((start, time.monotonic_ns()))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
