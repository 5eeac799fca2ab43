"""Host-speed adjustment of timed intervals.

The benchmark runs on a few cores of a shared host whose speed for this
process flips between a fast and a slow mode (1.7-2.5x apart) every
few seconds, as other tenants come and go; pinning to one core does not
help. Raw wall times therefore spread by 30-45 % between runs of the
same code. The ``Meter`` below samples the host's speed all through a
run: a ``SIGALRM`` every ``INTERVAL_S`` of wall time runs a fixed probe
in the benchmark's own thread and records how long it took. The probe's
mix of work is the one whose slowdown best tracked the job times of all
three workloads, fitted on per-part probe timings taken during jobs;
a pass over a 4 MiB array tracked them worst.

``Meter.adjusted(a, b)`` turns the wall interval ``[a, b]`` into seconds
at reference speed: the probes' own time is left out, and each stretch
between two probes counts its length times the host speed there: the
mean of ``REFERENCE_PROBE_S / probe time`` over the ``WINDOW`` probes
around it. The probes take about 2.5 % of the run.
``REFERENCE_PROBE_S`` is what the probe takes in the fast mode of a
2-vCPU x86-64 cloud host, so adjusted seconds read close to wall
seconds there. A change to the program moves the interval but not the
probe, so it shows in full; a change of host speed moves both.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
WINDOW = 5
REFERENCE_PROBE_S = 0.25e-3

_ROW = [float(i) * 0.37 for i in range(48)]
_VEC = np.linspace(0.0, 1.0, 64)


def probe() -> float:
    """Fixed work whose time tracks host speed: by time, about 10 %
    interpreter loops, 20 % float text and 70 % small NumPy calls."""
    acc = 0.0
    for _ in range(9):
        for a, b in zip(_ROW, _ROW[1:]):
            acc += (b - a) * 0.5
    for _ in range(2):
        text = ",".join(f"{v:.17g}" for v in _ROW[:24])
        acc += sum(float(c) for c in text.split(","))
    for i in range(44):
        acc += float(np.prod(_VEC[i:i + 8] + 1.0))
    return acc


class Meter:
    """Samples host speed on a timer; adjusts wall intervals by it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        probe()
        self.starts.append(started)
        self.ends.append(perf_counter())

    def start(self) -> None:
        probe()  # first call pays for imports and caches
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _arrays(self):
        starts = np.array(self.starts)
        ends = np.array(self.ends)
        durations = ends - starts
        padded = np.pad(REFERENCE_PROBE_S / durations, WINDOW // 2, mode="edge")
        speed = np.lib.stride_tricks.sliding_window_view(padded, WINDOW).mean(axis=1)
        return starts, ends, durations, speed

    def clock(self, t, scaled: bool = True) -> np.ndarray:
        """Seconds at reference speed from the first probe's start to each
        wall time in ``t`` (negative before it), leaving out the probes.
        With ``scaled=False``, wall seconds outside the probes."""
        if len(self.starts) < WINDOW:
            raise RuntimeError(f"only {len(self.starts)} host-speed samples; the run is too short")
        starts, ends, _, speed = self._arrays()
        if not scaled:
            speed = np.ones_like(speed)
        t = np.asarray(t, dtype=float)
        # The gap before probe i runs from the end of probe i-1 to the start
        # of probe i at probe i's speed; the clock stands still in a probe.
        at_start = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * speed[1:])))
        last = np.searchsorted(starts, t, side="right") - 1
        j = np.maximum(last, 0)
        next_speed = speed[np.minimum(last + 1, len(speed) - 1)]
        inside = at_start[j] + np.maximum(t - ends[j], 0.0) * next_speed
        return np.where(last < 0, (t - starts[0]) * speed[0], inside)

    def adjusted(self, a: float, b: float) -> float:
        """Seconds at reference speed spent in ``[a, b]`` outside the probes."""
        return float(self.adjusted_many([(a, b)])[0])

    def unprobed(self, a: float, b: float) -> float:
        """Wall seconds spent in ``[a, b]`` outside the probes."""
        a, b = self.clock([a, b], scaled=False)
        return float(b - a)

    def adjusted_many(self, intervals) -> np.ndarray:
        """``adjusted`` for each ``(a, b)`` in ``intervals``."""
        ab = np.asarray(intervals, dtype=float).reshape(-1, 2)
        return self.clock(ab[:, 1]) - self.clock(ab[:, 0])

    def summary(self) -> dict:
        """Probe count, time share and quantiles of the probe time, for the run record."""
        starts, ends, durations, _ = self._arrays()
        span = ends[-1] - starts[0]
        q = np.quantile(durations, [0.05, 0.5, 0.95])
        return {"probes": len(durations), "probe_share": float(durations.sum() / span),
                "probe_s_p5": float(q[0]), "probe_s_p50": float(q[1]), "probe_s_p95": float(q[2])}
