"""Event-time containers: the check of event times and homogeneous samples.

A realization is an ordered vector of k event times together with a shared
start time. Ties are allowed (they place the realization on the boundary,
where every depth in this package is zero), but decreasing times are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_array, check_number, check_numbers


class EventTimeError(DataError):
    """An event time that is not finite or precedes the time before it.

    ``row`` is the 0-based realization and ``column`` the 1-based event.
    """

    def __init__(self, row: int, column: int, reason: str):
        super().__init__(f"realization {row}, column {column}: {reason}")
        self.row, self.column, self.reason = row, column, reason


def check_times(start: float, times: np.ndarray) -> None:
    """The one check of event times: a nonempty (n, k) matrix, finite and
    nondecreasing along each row from ``start``.

    A few whole-array reductions decide; neighbouring times are compared
    event-major (``order="C"`` on the transposed matrix), one long loop per
    event rather than a short one per row. Only the last column is tested
    for finiteness: a finite start, ``t1 >= start``, every neighbour
    comparison true (a NaN fails each) and a finite last time put every
    time between two finite numbers. Only after a failure is the first bad
    cell (in row-major order) located; it is raised as an
    :class:`EventTimeError`.
    """
    if times.ndim != 2 or times.shape[0] < 1 or times.shape[1] < 1:
        raise DataError(f"event times must form a nonempty (n, k) matrix, got shape {times.shape}")
    if not math.isfinite(start):
        raise DataError(f"the start time {start} is not finite")
    if (np.isfinite(times[:, -1]).all() and (times[:, 0] >= start).all()
            and np.greater_equal(times.T[1:], times.T[:-1], order="C").all()):
        return
    previous = np.concatenate([np.full((times.shape[0], 1), start), times[:, :-1]], axis=1)
    row, col = divmod(int(np.argmax(~(np.isfinite(times) & (times >= previous)))), times.shape[1])
    value = times[row, col]
    if not math.isfinite(value):
        reason = "value is not finite"
    elif col == 0:
        reason = f"first event {value} precedes the start t0={start}"
    else:
        reason = f"event time {value} precedes the previous event {previous[row, col]}"
    raise EventTimeError(row, col + 1, reason)


def gap_matrix(times: np.ndarray, first) -> np.ndarray:
    """The one formula for inter-event gaps, over an event-major (k, ...)
    array: ``gaps[j] = times[j] - times[j-1]``, the first gap being
    ``first``, the first offset from the start (``times[0] - start``).
    Trailing axes ride along. One subtraction serves the whole array, and
    the result is contiguous: one row per event."""
    gaps = np.empty(times.shape)
    gaps[0] = first
    np.subtract(times[1:], times[:-1], out=gaps[1:])
    return gaps


# Kept only as the check of one realization in depth's scalar functions; perfbench's tracer wraps its __init__.
@dataclass(frozen=True)
class EventSequence:
    """One realization: start time and k nondecreasing event times, each a
    number that fits in a float (see :func:`~tppdepth.errors.check_number`)."""

    start: float
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "start", check_number("start", self.start))
        object.__setattr__(self, "times", check_numbers("times", self.times, "every event time"))
        check_times(self.start, np.array([self.times]))

    @property
    def k(self) -> int:
        return len(self.times)


class SampleSet:
    """A homogeneous collection of realizations sharing k and the start time.

    Stores the event times as a read-only (n, k) float matrix; row order is
    preserved and meaningful (realization indices refer to rows). The start
    is a number that fits in a float (see :func:`~tppdepth.errors.check_number`),
    and the times are a matrix of real numbers: a text, bool or complex cell
    is an error, not converted. A sample cannot be changed after
    construction, so it remembers, per depth kernel, the last result
    computed on it (see :meth:`_memo`).
    """

    __slots__ = ("start", "times", "_memos")

    def __init__(self, start: float, times):
        start = check_number("start", start)
        arr = check_array("event times must form an (n, k) matrix of numbers", times)
        # Always a copy, into a buffer owned by immutable bytes: a caller's
        # later writes to ``times`` reach neither the sample nor what it
        # remembers, and the times cannot be made writable again.
        arr = np.frombuffer(arr.tobytes(), dtype=float).reshape(arr.shape)
        check_times(start, arr)
        for name, value in (("start", start), ("times", arr), ("_memos", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a SampleSet cannot be changed; cannot set {name!r}")

    def _memo(self, name: str, key, compute) -> dict[str, np.ndarray]:
        """The named arrays ``compute()`` returns for this sample, remembered under ``name``.

        One entry per name: it is reused while ``key`` (bytes, or a tuple
        of shapes and bytes, so keys compare bits) stays the same, and a
        new key replaces the whole entry, with whatever a caller added to
        it. Its arrays are made read-only; callers hand out copies.
        """
        entry = self._memos.get(name)
        if entry is None or entry[0] != key:
            arrays = compute()
            for a in arrays.values():
                a.setflags(write=False)
            entry = self._memos[name] = (key, arrays)
        return entry[1]

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def k(self) -> int:
        return self.times.shape[1]

    def durations(self) -> np.ndarray:
        """Last event time minus start, per realization."""
        return self.times[:, -1] - self.start

    def gaps(self) -> np.ndarray:
        """(n, k) view of the inter-event gaps, first column from the start;
        its transpose is contiguous."""
        return gap_matrix(self.times.T, self.times[:, 0] - self.start).T
