"""Machine-speed sampling, to take host contention out of the timings.

On the 2-vCPU VM the benchmark was tuned on, other tenants slow the same
code in two ways.  The hypervisor takes the vCPUs away for a while
("steal" time): wall times grew up to 3x in such phases while CPU times
stayed put.  And the CPU itself runs slower when neighbours share its
caches and cores, by up to 1.7x; that shows in CPU time as much as in wall
time, and changes within milliseconds as well as over minutes.

The first is taken out by timing a task by the CPU time its own threads
used (`busy_seconds`).  The second is calibrated: while a `SpeedMeter` is
open, a SIGALRM handler runs a fixed reference kernel every `TICK_S`
seconds, in the middle of the workload, and records the kernel's thread
CPU time.  Those times sample the machine's speed at the moments the
workload runs; CPU time leaves out waits for the GIL, so those waits do not
read as slowness while `sweep` runs its own threads.

`calibrate` turns a task's busy time into the seconds it would take on a
machine where the kernel takes its reference time: busy time, less the
handler's own time, times the reference over the kernel time sampled
during the task.  That kernel time is the mean of the fastest `KEEP` of
the samples: a mean, because a task's time adds up the speed over its
whole run, and without the slowest samples, which follow a context switch
or a GIL hand-off and run on cold caches.
"""
from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

TICK_S = 0.01
KEEP = 0.8
# About each kernel's usual time on the VM the bounds were tuned on (Intel
# Xeon at 2.0 GHz, Python 3.11), so calibrated seconds read close to wall
# seconds there.
NUMPY_REFERENCE_S = 125e-6
INTERPRETER_REFERENCE_S = 60e-6

STAT = "/proc/stat"
USER_HZ = os.sysconf("SC_CLK_TCK")

_KEYS = tuple(range(64))
_TABLE = {key: key * 0.5 for key in _KEYS}


def interpreter_kernel() -> float:
    """Reference work for set-up, which imports numpy itself: dict lookups,
    float arithmetic, a keyed sort and a builtin reduction."""
    total = 0.0
    for _ in range(6):
        for key in _KEYS:
            total += _TABLE[key] * 1.0001
        total += sum(sorted(_KEYS, key=lambda x: -x)[:4])
    return total


def numpy_kernel():
    """Reference work for the solves, one piece per kind of work they do:
    Python arithmetic between small numpy products (the solver's loops),
    the four-operand order-3 contraction of the Lipschitz guard's
    `operator_norm` at a small size, and dense matrix products (the BLAS
    behind `eigh` and the trust-region solves at n=200).  Each kind slows
    by its own amount when the host is loaded."""
    import numpy as np

    matrix = np.arange(16.0).reshape(4, 4) / 20
    tensor = np.arange(216.0).reshape(6, 6, 6) / 216
    directions = np.arange(96.0).reshape(16, 6) / 96
    square = np.arange(4096.0).reshape(64, 64) / 4096

    def run() -> float:
        total = 0.0
        x = matrix[0]
        for _ in range(8):
            x = matrix @ x
            total += float(x[0])
            for j in range(20):
                total += j * 0.5
        values = np.einsum("ijk,ai,aj,ak->a", tensor, directions, directions, directions)
        product = square @ square + square @ square.T
        return total + float(values.max()) + float(product[0, 0])

    return run


def stolen_seconds(stat: str = STAT) -> float:
    """CPU seconds the hypervisor has taken from this machine's vCPUs since
    boot, summed over all of them: the `steal` field of the `cpu` line of
    /proc/stat, in ticks of 1/USER_HZ s.  0 where it is not reported."""
    try:
        with open(stat) as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / USER_HZ if fields[:1] == ["cpu"] and len(fields) > 8 else 0.0


def busy_seconds(wall: float, cpu: float, stolen: float) -> float:
    """A task's time without the time the hypervisor took from it.

    `cpu` is the CPU time of all the process's threads over the task and
    `stolen` the steal time of all vCPUs over it.  Steal accrues only on a
    vCPU that has a thread to run, so the task's threads wanted
    `cpu + stolen` seconds and got `cpu`; with the same share of the wall
    removed, one thread's time becomes its CPU time and two threads that
    run side by side lose half the steal each.  A single-threaded task
    passes its CPU time directly (steal is read in 10 ms ticks, too coarse
    for tasks of tens of milliseconds).
    """
    total = cpu + stolen
    return wall * cpu / total if total > 0 else wall


class SpeedMeter:
    """Kernel samples taken from SIGALRM; use in the main thread.

    `starts[i]` is when sample i's handler began, on the `time.perf_counter`
    clock; `handler_s[i]` is the handler's CPU time and `kernel_s[i]` that of
    its timed kernel run.  The first, untimed run refills the caches the
    workload displaced.
    """

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.starts = []
        self.handler_s = []
        self.kernel_s = []
        self._previous = None

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        begin = time.thread_time()
        self.kernel()
        timed = time.thread_time()
        self.kernel()
        end = time.thread_time()
        self.starts.append(start)
        self.handler_s.append(end - begin)
        self.kernel_s.append(end - timed)

    def _window(self, start: float, end: float) -> tuple:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def kernel_time(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean of the fastest `KEEP` of the kernel times sampled in
        [start, end); with no sample there, the samples just before and just
        after stand in."""
        lo, hi = self._window(start, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if lo == hi:
            raise RuntimeError("the speed meter took no samples")
        fastest = sorted(self.kernel_s[lo:hi])
        return statistics.fmean(fastest[:max(1, round(KEEP * len(fastest)))])

    def handler_time(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """CPU seconds the handler took from the work in [start, end)."""
        lo, hi = self._window(start, end)
        return sum(self.handler_s[lo:hi])

    def calibrate(self, start: float, wall: float, busy: float) -> float:
        """Calibrated seconds of a task that ran for `wall` seconds from
        `start` and was busy for `busy` of them (see `busy_seconds`)."""
        end = start + wall
        own = busy - self.handler_time(start, end)
        return own * self.reference_s / self.kernel_time(start, end)
