"""Calibrated timing: wall time scaled by the machine's speed right then.

On the shared 2-vCPU VM this benchmark was tuned on, each vCPU runs
~40% slower for stretches of seconds to minutes, independently of the
other.  Best-of-N passes could not hide stretches longer than a run:
the raw pass time of ``replay-risky`` spread 31% over ten runs.

So while a run measures, one sampler thread per CPU (pinned to that
CPU; the program's own affinity is left alone) times a fixed
pure-Python probe every ``INTERVAL_S``.  An operation's time is then
reported in *reference seconds*: its wall time times ``REFERENCE_S``
over the mean probe time seen from ``MARGIN_S`` before the operation to
``MARGIN_S`` after it.  Probes are evenly spaced in time, so the mean
weighs a slow stretch by its share of the operation; probes over twice
the window's median (the thread was preempted) are dropped.

Which CPUs count: when the clock follows a thread (a workload whose
work runs in the main thread), each CPU's mean probe is weighed by the
share of ticks at which that thread was last seen on it; otherwise (a
pool workload, busy on every CPU) the CPUs weigh the same.

``REFERENCE_S`` is the probe's time on that VM in its fast state, so on
that VM reference seconds are the seconds the operation takes when
nothing slows it.  Raw wall times stay in the run stamp.

The probe takes about 0.2 ms every 50 ms, and the threads hold no lock
the program uses, so a pool forking workers meanwhile is unaffected.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import threading
import time

#: The probe's fast-state time on the 2-vCPU VM (Python 3.11.7) the
#: bounds in BENCHMARK.json were set on.
REFERENCE_S = 0.000135
INTERVAL_S = 0.05
MARGIN_S = 0.25


def _probe() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(1500):
        table[i & 127] = table.get(i & 127, 0) + i
    return time.perf_counter() - t0


def _cpu_of(tid: int) -> int:
    """The CPU the thread last ran on (field 39 of its stat line)."""
    with open(f"/proc/self/task/{tid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class Clock:
    """Times operations in reference seconds.

    ``follow`` is the native id of the thread whose CPU weighs the
    probes, or None to weigh every CPU alike.
    """

    def __init__(self, follow=None) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._samples = {cpu: ([], []) for cpu in self.cpus}  # (starts, secs)
        self._follow = follow
        self._seen = ([], [])  # (tick, CPU the followed thread was on)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in self.cpus
        ]
        for thread in self._threads:
            thread.start()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        starts, secs = self._samples[cpu]
        watch = self._follow is not None and cpu == self.cpus[0]
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            secs.append(_probe())
            starts.append(t0)
            if watch:
                try:
                    where = _cpu_of(self._follow)
                except (OSError, ValueError, IndexError):
                    continue
                self._seen[0].append(t0)
                self._seen[1].append(where)

    def close(self) -> None:
        if self._stop.is_set():
            return
        time.sleep(MARGIN_S)  # samples after the last operation
        self._stop.set()
        for thread in self._threads:
            thread.join()

    @contextlib.contextmanager
    def timed(self, op: str, windows: dict):
        """Record ``op``'s (start, end) into ``windows``."""
        t0 = time.perf_counter()
        yield
        windows[op] = (t0, time.perf_counter())

    def _weights(self, t0: float, t1: float) -> dict:
        """Each CPU's share of the followed thread's ticks in the window
        (every CPU alike when nothing is followed or seen)."""
        ticks, where = self._seen
        lo = bisect.bisect_left(ticks, t0 - MARGIN_S)
        hi = bisect.bisect_right(ticks, t1 + MARGIN_S)
        counts = dict.fromkeys(self.cpus, 0)
        for cpu in where[lo:hi]:
            if cpu in counts:
                counts[cpu] += 1
        if not any(counts.values()):
            return dict.fromkeys(self.cpus, 1)
        return counts

    def speed(self, t0: float, t1: float) -> float:
        """Mean probe time per CPU over the window, weighed by
        ``_weights``; the next sample stands in where a CPU has none."""
        total = weight_sum = 0.0
        for cpu, weight in self._weights(t0, t1).items():
            starts, secs = self._samples[cpu]
            if not secs or not weight:
                continue
            lo = bisect.bisect_left(starts, t0 - MARGIN_S)
            hi = bisect.bisect_right(starts, t1 + MARGIN_S)
            if lo == hi:  # no sample in the window: the next one after
                lo = min(lo, len(secs) - 1)
                hi = lo + 1
            window = secs[lo:hi]
            cap = 2 * statistics.median(window)
            total += weight * statistics.fmean(s for s in window if s <= cap)
            weight_sum += weight
        return total / weight_sum if weight_sum else REFERENCE_S

    def calibrated(self, window) -> float:
        t0, t1 = window
        return (t1 - t0) * REFERENCE_S / self.speed(t0, t1)

    def probe_quantiles(self) -> list:
        """Deciles of every probe, in ms, for the run stamp."""
        secs = [s for _starts, values in self._samples.values() for s in values]
        if len(secs) < 2:
            return []
        return [1000 * q for q in statistics.quantiles(secs, n=10)]
