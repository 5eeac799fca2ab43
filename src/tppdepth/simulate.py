"""Seeded generator for the two benchmark point processes.

Both processes are observed up to their first k events and have
independent exponential gaps: a constant rate for the homogeneous kind
(``hpp``), and one rate per event count for the state-dependent kind
(rate j applies while j-1 events have occurred).

Gaps are drawn by inverse CDF, ``-log(1 - U) / rate`` with U in [0, 1),
from a counter-based generator (Philox) keyed by the seed, so the output
is a pure function of (config, seed). Row i of the uniform draw is the
stream slice belonging to realization i, which is what a partitioned
parallel implementation would reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import DataError, check_count, check_number, check_numbers, check_seed, shown
from .sequences import SampleSet

# The process kinds; the kind decides how many rates a config holds.
KINDS = ("hpp", "state-dependent")


@dataclass(frozen=True)
class SimConfig:
    """Generator settings.

    ``rates`` has length 1 for the homogeneous kind (the constant rate)
    and length k for the state-dependent kind. ``k``, ``n`` and ``seed``
    are integers; a float with an integer value such as ``1e5`` is taken,
    a bool or a fractional value is an error, and the n*k float64 times
    must fit in one numpy array. Each rate and ``start`` is a number that
    fits in a float (see :func:`~tppdepth.errors.check_number`).
    """

    kind: str
    rates: tuple[float, ...]
    k: int
    n: int
    start: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "n"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        object.__setattr__(self, "rates", check_numbers("rates", self.rates, "every rate"))
        object.__setattr__(self, "start", check_number("start", self.start))
        if self.kind not in KINDS:
            raise DataError(f"unknown process kind {shown(self.kind)}")
        count = self.n * self.k
        if count * 8 > np.iinfo(np.intp).max:
            count = count if count < 2**1024 else Decimal(count)  # an int's .3g goes through a float
            raise DataError(f"n*k = {count:.3g} event times do not fit in one array")
        if not all(math.isfinite(r) and r > 0 for r in self.rates):
            raise DataError("every rate must be positive and finite")
        needed = 1 if self.kind == "hpp" else self.k
        if len(self.rates) != needed:
            raise DataError(f"{self.kind} with k={self.k} takes {needed} rate(s), got {len(self.rates)}")
        if not math.isfinite(self.start):
            raise DataError("start must be finite")
        object.__setattr__(self, "seed", check_seed(self.seed))


@np.errstate(over="ignore")
def simulate(config: SimConfig) -> SampleSet:
    """First k events of the configured process: gap j is exponential with
    rate ``rates[j]``, and the single rate of the homogeneous kind serves
    every gap. A time that overflows (a tiny rate, a start near the float
    maximum) is left to the sample's check."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    times = rng.random((config.n, config.k))
    # -log1p(-u) / rate, one operation at a time in place: no array beside the draws.
    np.negative(times, out=times)
    np.log1p(times, out=times)
    np.negative(times, out=times)
    times /= np.asarray(config.rates)
    for j in range(1, config.k):  # the cumulative sum of the gaps, in numpy's order, a column at a time
        times[:, j] += times[:, j - 1]
    times += config.start
    return SampleSet(config.start, times)
