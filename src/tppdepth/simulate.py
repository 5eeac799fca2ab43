"""Seeded generators for the two benchmark point processes.

Both processes are observed up to their first k events and have
independent exponential gaps: a constant rate for the homogeneous case,
and one rate per event count for the state-dependent case (rate j applies
while j-1 events have occurred).

Gaps are drawn by inverse CDF, ``-log(1 - U) / rate`` with U in [0, 1),
from a counter-based generator (Philox) keyed by the seed, so the output
is a pure function of (config, seed). Row i of the uniform draw is the
stream slice belonging to realization i, which is what a partitioned
parallel implementation would reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .sequences import SampleSet

KIND_HPP = "hpp"
KIND_STATE_DEPENDENT = "state-dependent"


def check_seed(seed: int) -> None:
    """Raise a DataError unless ``0 <= seed < 2**64``, the one seed domain."""
    if not 0 <= seed < 2**64:
        raise DataError(f"seed must fit in 64 unsigned bits, got {seed}")


@dataclass(frozen=True)
class SimConfig:
    """Generator settings.

    ``rates`` has length 1 for the homogeneous kind (the constant rate)
    and length k for the state-dependent kind.
    """

    kind: str
    rates: tuple[float, ...]
    k: int
    n: int
    start: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind not in (KIND_HPP, KIND_STATE_DEPENDENT):
            raise DataError(f"unknown process kind {self.kind!r}")
        if self.k < 1:
            raise DataError("k must be at least 1")
        if self.n < 1:
            raise DataError("n must be at least 1")
        if not all(math.isfinite(r) and r > 0 for r in self.rates):
            raise DataError("every rate must be positive and finite")
        if self.kind == KIND_HPP and len(self.rates) != 1:
            raise DataError(f"hpp takes a single rate, got {len(self.rates)}")
        if self.kind == KIND_STATE_DEPENDENT and len(self.rates) != self.k:
            raise DataError(
                f"state-dependent needs one rate per event: got {len(self.rates)} rates for k={self.k}"
            )
        if not math.isfinite(self.start):
            raise DataError("start must be finite")
        check_seed(self.seed)


def _generate(config: SimConfig, per_event_rates: np.ndarray) -> SampleSet:
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u = rng.random((config.n, config.k))
    gaps = -np.log1p(-u) / per_event_rates
    return SampleSet(config.start, config.start + np.cumsum(gaps, axis=1))


def simulate_hpp(config: SimConfig) -> SampleSet:
    """First k events of a homogeneous process: i.i.d. exponential gaps."""
    if config.kind != KIND_HPP:
        raise DataError(f"config kind is {config.kind!r}, expected {KIND_HPP!r}")
    return _generate(config, np.full(config.k, config.rates[0]))


def simulate_state_dependent(config: SimConfig) -> SampleSet:
    """First k events with a piecewise-constant, count-dependent rate."""
    if config.kind != KIND_STATE_DEPENDENT:
        raise DataError(f"config kind is {config.kind!r}, expected {KIND_STATE_DEPENDENT!r}")
    return _generate(config, np.asarray(config.rates, dtype=float))


def simulate(config: SimConfig) -> SampleSet:
    """Dispatch on the configured kind."""
    if config.kind == KIND_HPP:
        return simulate_hpp(config)
    return simulate_state_dependent(config)
