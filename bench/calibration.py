"""Machine-speed calibration, measured in a separate process.

The speed of a shared virtual machine drifts: on a 2-vCPU host a fixed
loop was measured taking from 83 to 129 ms within 30 s, in short phases
that differ between the two vCPUs.  Op times are therefore reported in
*reference seconds*: each op's host time is divided by the calibration
slice time measured around it and multiplied by ``REF_SLICE_S``.

Slices run in a child process (``python -m bench.calibration``) that
imports nothing of the program, so no change to the program can slow
the slices and hide its own cost.  Before each slice the child moves
to the vCPU the measuring process last ran on, because slices taken on
the other vCPU barely correlate with op times.  The measuring process
waits while a slice runs, so the vCPU is free for it.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

from . import ROOT

#: Seconds one slice takes on the reference machine.
REF_SLICE_S = 0.010
#: Iterations of the slice loop (the loop of ``repro.benchref``'s
#: ``calibrate()``, shortened to about 10 ms).
SLICE_LOOPS = 150_000
#: At most one slice per this much wall time (about 5% of a run).
SLICE_EVERY_S = 0.2
#: An op is scaled by the median of the slices taken from this long
#: before it starts to this long after it ends: short enough to follow
#: the machine's speed phases, long enough to hold several slices.
WINDOW_S = 1.0


def slice_s() -> float:
    """Host seconds of one calibration slice, a fixed integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(SLICE_LOOPS):
        acc += i & 1023
    return time.perf_counter() - start


def current_cpu() -> int:
    """The vCPU this process last ran on, or -1 if unknown."""
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


class Calibrator:
    """The measuring side: starts the slice process, asks it for slices
    between ops and turns op times into reference seconds."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "bench.calibration"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        #: (perf_counter when taken, slice seconds), in time order.
        self.samples: List[Tuple[float, float]] = []
        #: CPU seconds this process used while waiting for slices.  The
        #: waiting thread is blocked, so this is other threads' work; it
        #: may have competed with the slices and made them slower.
        self.busy_during_slices_s = 0.0
        self._next = 0.0

    def take(self) -> float:
        """One slice, run by the child on this process's vCPU."""
        t = time.perf_counter()
        cpu = time.process_time()
        self._proc.stdin.write(f"{current_cpu()}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        self.busy_during_slices_s += time.process_time() - cpu
        self.samples.append((t, float(line)))
        return self.samples[-1][1]

    def contended(self) -> bool:
        """Whether other threads of this process ran for more than a
        tenth of the slice time: the program left work running between
        ops, and scaling would hide part of its cost."""
        return self.busy_during_slices_s > 0.1 * sum(s for _, s in self.samples)

    def tick(self) -> None:
        """Take a slice unless one was taken in the last ``SLICE_EVERY_S``."""
        if time.perf_counter() >= self._next:
            self.take()
            self._next = time.perf_counter() + SLICE_EVERY_S

    def reference_s(self, start: float, host_s: float) -> float:
        """``host_s`` seconds from ``start`` on, in reference seconds.

        Divides by the median slice from ``WINDOW_S`` before ``start``
        to ``WINDOW_S`` after the end.  A :meth:`tick` just before every
        op puts at least one slice in that window.
        """
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + host_s + WINDOW_S)
        around = statistics.median(s for _, s in self.samples[lo:hi])
        return host_s * REF_SLICE_S / around

    def median_slice_s(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def main() -> None:
    """The slice process: one line in (a vCPU number, -1 for any), one
    slice time out, until standard input closes."""
    for line in sys.stdin:
        cpu = int(line)
        if cpu >= 0 and hasattr(os, "sched_setaffinity"):
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the vCPU is outside this process's set
                pass
        print(repr(slice_s()), flush=True)


if __name__ == "__main__":
    main()
