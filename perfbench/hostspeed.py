"""Host-speed probe: how fast the core ran while an op ran.

On a shared host a core's speed changes with the other tenants' load: a
fixed loop takes about 1x in one moment and 2x in the next, and a state can
last from a fraction of a second to minutes.  Wall times of the same op then
spread more than any useful bound.  The probe cancels that.  A thread in the
benchmark's process, pinned with it (and with every child it starts) to one
CPU, times a short fixed piece of work every few milliseconds.  Work that
takes ``t`` seconds of CPU time where it takes ``NOMINAL_S`` on an unloaded
core means the core ran at ``NOMINAL_S / t`` of full speed at that moment
(on this kind of host CPU time stretches with the load just as wall time
does, while CPU time spent on the benchmark's own child is not counted), so

    host-adjusted time = wall time x mean over the op's probes of NOMINAL_S / t

is the time the op would have taken at full speed.  The harness reports
host-adjusted times as its time metrics and keeps the raw wall times next to
them.  The probe holds the interpreter lock for far less than the lock's
switch interval, so the op's thread never cuts it short.

The probe's work is big-float Horner evaluation in mpmath, outside relroots,
so no change to the package moves it.  A loop of small-integer arithmetic
was tried first: it slows less than the package's code when the host is
loaded, so adjusted times still rose with the load.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import mpmath as mp

# The probe's time on an unloaded core of an Intel Xeon 2-vCPU virtual
# machine (Python 3.11, mpmath 1.3); only a scale, the same for every run
# and commit.
NOMINAL_S = 8.0e-5
PROBE_PRECISION_BITS = 256
PROBE_COEFFS = tuple(mp.mpf(k) / 7 for k in range(1, 13))
PROBE_POINT = mp.mpf(7) / 10
PROBE_INTERVAL_S = 0.01
# An op shorter than the probe interval still sees the probes this close to it.
WINDOW_SLACK_S = 0.05


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads and children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _probe_once() -> float:
    """CPU time of the probe's work, so time the CPU gives a child is not counted."""
    start = time.thread_time()
    with mp.workprec(PROBE_PRECISION_BITS):
        for _ in range(2):
            acc = PROBE_COEFFS[-1]
            for c in PROBE_COEFFS[:-1]:
                acc = acc * PROBE_POINT + c
    return time.thread_time() - start


class SpeedProbe:
    """Samples the core's speed from a background thread while it is open."""

    def __init__(self) -> None:
        self.times: list[float] = []   # probe start times
        self.speeds: list[float] = []  # NOMINAL_S / probe duration
        self._adopted: list[tuple[list[float], list[float]]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            self.speeds.append(NOMINAL_S / _probe_once())
            self.times.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        samples = list(zip(self.times, self.speeds))
        for times, speeds in self._adopted:
            samples = [s for s in samples if not times[0] <= s[0] <= times[-1]]
            samples += zip(times, speeds)
        samples.sort()
        self.times = [t for t, _ in samples]
        self.speeds = [v for _, v in samples]

    def adopt(self, times: list[float], speeds: list[float]) -> None:
        """Use a child's own samples in place of this thread's while the child probed.

        Probed from this process while a child runs, the core reads slower than
        the child finds it: adjusted child times fell as the load rose."""
        if times:
            self._adopted.append((times, speeds))

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed of the core over [start, end], widened by the slack."""
        lo = bisect.bisect_left(self.times, start - WINDOW_SLACK_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_SLACK_S)
        if lo == hi:  # a call held the interpreter lock throughout: use the probes around it
            lo, hi = max(lo - 1, 0), hi + 1
        if not self.speeds[lo:hi]:
            raise RuntimeError("the speed probe took no sample")
        return statistics.fmean(self.speeds[lo:hi])

    def adjusted(self, start: float, end: float) -> float:
        """Host-adjusted duration of [start, end]: the time it takes at full speed."""
        return (end - start) * self.speed(start, end)
