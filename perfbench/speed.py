"""The machine-speed reference that every reported time is scaled by.

On a shared virtual machine the same single-threaded work runs up to
about 45% faster or slower for a minute or more at a time, and by a
smaller, changing amount from one second to the next (2-vCPU x86_64 VM,
Python 3.11: a qbern table took 0.099 s in one half-minute and 0.143 s in
the next; during one 25 s verify pass a small kernel took a median of
7.2, 9.7, 7.1, 7.8, 6.6 and 6.0 ms in successive 5 s windows).  Runs made
minutes apart then disagree by more than any useful bound.  A small
pure-Python kernel timed *interleaved* with the same work slows and
speeds up with the machine; timed only before and after a long section,
it does not track the speed in between.

So during a timed pass a :class:`Sampler` runs the kernel from a timer
signal every ``INTERVAL`` seconds, between two bytecodes of whatever
qbern is doing.  Its :meth:`Sampler.clock` leaves out the time spent in
the kernel, and its :meth:`Sampler.scaled_clock` advances, between two
kernel runs, by the work time elapsed times ``NOMINAL_KERNEL_S`` over the
median of the last ``WINDOW`` kernel times: seconds at a nominal machine
speed.  Around the set-ups, which run in child processes, kernel runs
alternate with the children instead, and :func:`factor` scales them.
On that machine, five runs per workload read wall_s with a quartile
spread of 22-30% of the median unscaled and 3-4% scaled.

The kernel mixes interpreter work on a 1024-entry dict of small ints with
big-integer multiplication and division, the two kinds of work qbern
does; with the dict part alone, the scaled table-deep and random-q times
spread twice as much.  It runs with the garbage collector off, so the
program's heap cannot slow it: a change that makes qbern slower still
reads slower, a slow phase of the machine does not.  The unscaled times
are printed and saved beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable

DICT_ITERS = 25_000
BIG_ITERS = 25
A, B = 3**3000, 7**2500  # about 4800 and 7000 bits
# About the kernel's median time on the machine the benchmark was tuned
# on (a 2-vCPU x86_64 VM, Python 3.11.7); it only sets the unit, so scaled
# times read as seconds on that machine at its usual speed.
NOMINAL_KERNEL_S = 0.0065
INTERVAL = 0.25  # seconds between kernel runs during a timed pass
WINDOW = 5  # kernel runs whose median gives the current speed


def kernel() -> int:
    """Interpreter work on small ints and a dict, then big-int arithmetic."""
    d: dict[int, int] = {}
    for i in range(DICT_ITERS):
        d[i & 1023] = d.get(i & 1023, 0) + i
    x = 0
    for i in range(BIG_ITERS):
        x ^= (A * B + i) // (B + i)
    return len(d) + (x & 1)


def timed_kernel(clock: Callable[[], float] = time.perf_counter) -> float:
    """One kernel run's seconds, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        kernel()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def factor(kernel_s: list[float]) -> float:
    """Scaled seconds per second for work during which the kernel took
    ``kernel_s``."""
    return NOMINAL_KERNEL_S / statistics.median(kernel_s)


class Sampler:
    """Runs the kernel when the ``with`` block starts and then every
    ``interval`` seconds of wall time, from a ``SIGALRM`` handler in this
    thread; ``kernel_s`` collects the kernel times."""

    def __init__(self, base: Callable[[], float] = time.perf_counter, interval: float = INTERVAL):
        self.base = base
        self.interval = interval
        self.kernel_s: list[float] = []
        self.paused_s = 0.0
        # (clock() at the last kernel run, scaled_clock() then, its rate
        # since); one tuple, so that a handler between two reads cannot
        # mix the values of two kernel runs
        self._state = (0.0, 0.0, 1.0)

    def clock(self) -> float:
        """The base clock minus the time spent running the kernel."""
        # paused_s is read first: a kernel run between the two reads then
        # counts as work once, and no interval comes out negative
        paused = self.paused_s
        return self.base() - paused

    def scaled_clock(self) -> float:
        """:meth:`clock`, scaled piecewise to the nominal machine speed."""
        mark, scaled, rate = self._state
        return scaled + (self.clock() - mark) * rate

    def _tick(self, signum=None, frame=None) -> None:
        now = self.clock()
        mark, scaled, rate = self._state
        t0 = self.base()
        self.kernel_s.append(timed_kernel(self.base))
        self.paused_s += self.base() - t0
        self._state = (now, scaled + (now - mark) * rate, factor(self.kernel_s[-WINDOW:]))

    def __enter__(self) -> "Sampler":
        self._state = (self.clock(), 0.0, 1.0)
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
