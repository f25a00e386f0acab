"""Host speed probe: a fixed reference computation interleaved with the timed work.

On a shared host the same command's wall time moves by up to 1.5x over
tens of seconds, with the speed of the whole virtual CPU, while the
speed seen half a second apart is strongly correlated.  The probe runs a
fixed computation of its own every INTERVAL_S seconds from a SIGALRM
handler, in the same process and on the same pinned CPU as the command.
It spends about half its time in numpy transcendentals and a cumulative
sum on 32768 points (a working set of about a megabyte) and half in many
different small numpy calls and some interpreted Python on 2048 points.
Alone, the first part's slowdown fell short of the solver's on the
stepping workloads, and the second part's overshot it on the CSV
writing one; the mix tracked all three workloads, command by command,
more closely than either (and than probes of 2048 or 262144 points, or
of interpreted Python only).  `scaled` then takes an interval of
the command, removes the probe's own time from it and rescales each
stretch between two probes by REFERENCE_S over the local probe time:
seconds at the reference host speed.  The probe never touches novlab,
so a change of the program moves the scaled time exactly as it moves
the wall time on a quiet host; only the host's speed is factored out.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.5
# About the probe's duration, back to back, on a 2.0 GHz Xeon vCPU in a
# quiet spell: scaled times are quoted at that host speed.
REFERENCE_S = 0.008

_X = np.linspace(-8.0, 8.0, 32768)
_G = np.linspace(-20.0, 20.0, 2048)
_R = np.random.default_rng(0).standard_normal(2048)


def _reference_work() -> float:
    acc = 0.0
    for k in range(6):
        y = np.exp(-np.abs(_X) * (1.0 + 1e-3 * k))
        acc += float(np.cumsum(np.sin(y) * np.cos(y))[-1])
    for k in range(18):
        a = np.exp(-np.abs(_G - 0.01 * k))
        b = np.sin(_G) ** 2 + np.cos(_R) ** 2
        c = np.cumsum(b * np.diff(a).mean())
        idx = np.searchsorted(_G, _G[::7] + 0.1).clip(0, _G.size - 1)
        m = np.where(a > 0.5, b, -b)
        acc += float(np.einsum("i,i->", a, b)) + float(np.max(np.abs(m)))
        acc += float(np.min(a)) + float(np.argmax(b)) + float(a[idx].sum())
        acc += float((np.tanh(a) * np.arctan2(a, b + 1.0))[k])
        acc += float(np.hypot(a, b).sum()) + float(np.sort(_R + k)[0])
        acc += float(np.concatenate([c[:10], m[-10:]]).sum())
        acc += max(sorted(i * i for i in range(30)))
    return acc


def pin_to_one_cpu() -> int:
    """Keep this process (and its children) on one CPU; returns it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Samples the reference computation; active as a context manager."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list = []
        self.ends: list = []
        self._previous = None

    def sample(self) -> None:
        t0 = perf_counter()
        _reference_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def durations(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the probe, at reference speed.

        Each stretch between consecutive probes is weighted by
        REFERENCE_S over the mean duration of the two probes around it;
        stretches before the first or after the last probe use the
        nearest one.  Needs at least one sample.
        """
        durations = self.durations()
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.starts, end)
        total = 0.0
        left = start
        for i in range(first, last + 1):
            right = self.starts[i] if i < len(self.starts) else end
            right = min(right, end)
            around = durations[max(i - 1, 0):i + 1] or durations[-1:]
            if right > left:
                total += (right - left) * REFERENCE_S / statistics.fmean(around)
            if i < len(self.ends):
                left = max(left, self.ends[i])
        return total
