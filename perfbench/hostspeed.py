"""Host-speed index: how fast this host runs plain Python right now.

The benchmark's host shares its cores with other tenants, and its speed
moves by up to about 1.4x within seconds and across minutes. Set-up
time, peak memory and outputs are unaffected, but every timing follows
the host. So the end-to-end timings are reported at a *reference host
speed*. While a round runs, a timer signal samples a fixed pure-Python
kernel every :data:`INTERVAL_S` on the measuring thread. The median
kernel time is the round's speed index, and a timing is scaled by
``REFERENCE_KERNEL_S / index``. The kernel is the benchmark's own code,
so a change to the program moves the scaled timings exactly as it moves
the raw ones. The raw timings are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

#: Kernel time on this host in its fast state (Intel Xeon, 2 vCPUs);
#: scaled timings read as seconds on a host that fast.
REFERENCE_KERNEL_S = 2.5e-4
INTERVAL_S = 0.02


def kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


#: The active sampler, for :func:`sample_here`.
_active: "Sampler | None" = None


class Sampler:
    """Samples the kernel on ``SIGALRM`` while active (main thread)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> "Sampler":
        global _active
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < 5:  # too short a window: sample directly
            self.samples.extend(time_kernel() for _ in range(20))

    def index(self) -> float:
        return statistics.median(self.samples)


def sample_here() -> None:
    """Add one kernel sample from the calling thread.  Workload threads
    that do the measured work call this between requests, so the index
    also sees the cores they run on, not only the main thread's."""
    sampler = _active
    if sampler is not None:
        sampler.samples.append(time_kernel())


@contextlib.contextmanager
def threads_without_timer():
    """Block the sampler's signal while threads are created here: they
    inherit the mask, so ``SIGALRM`` is only ever delivered to the
    measuring thread.  A signal landing in one of the service's worker
    threads would cut short sqlite's busy-wait sleeps, so its lock
    timeout would expire early and the program would behave
    differently under measurement."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def scale(seconds: float, index: float) -> float:
    return seconds * REFERENCE_KERNEL_S / index
