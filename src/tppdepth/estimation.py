"""Moment estimation from a sample of realizations.

Fits the quantities the depth formulas need (mean and variance of the
duration, mean normalized gaps) and the mean/covariance pair for the
multivariate Mahalanobis baseline. Variances and covariances use the
unbiased n-1 denominator.
"""

from __future__ import annotations

import math

import numpy as np

from .depth import DepthParams
from .errors import DataError
from .sequences import SampleSet


def fit_params(sample: SampleSet, horizon: float | None = None) -> DepthParams:
    """Estimate depth parameters from a sample.

    Every realization must last a positive amount of time (a zero-duration
    realization has no normalized gaps and aborts the fit), at least two
    distinct durations are required for a usable variance, and a mean or
    variance of the durations that overflows is a :class:`DataError`.
    """
    if sample.n < 2:
        raise DataError(f"need at least 2 realizations to fit, got {sample.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        durations = sample.durations()
        mu_last = float(durations.mean())
        var_last = float(durations.var(ddof=1))
    bad = np.nonzero(durations <= 0)[0]
    if bad.size:
        raise DataError(
            f"realization {int(bad[0])} has zero duration; normalized gaps are undefined"
        )
    for moment, value in (("mean", mu_last), ("variance", var_last)):
        if not math.isfinite(value):
            raise DataError(f"the duration {moment} overflows: the largest duration is {durations.max():.6g}")
    if not var_last > 0:
        raise DataError("degenerate variance: all realizations share the same duration")
    u_bar = sample.gaps() / durations[:, None]
    return DepthParams(
        start=sample.start,
        mu_last=mu_last,
        var_last=var_last,
        u_bar=u_bar.mean(axis=0),
        horizon=horizon,
    )


def fit_mahalanobis(sample: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise mean and unbiased covariance of the event-time vectors.

    A singular covariance is returned as-is; the depth evaluation applies
    its ridge policy when inverting.
    """
    if sample.n < 2:
        raise DataError(f"need at least 2 realizations to fit, got {sample.n}")
    mean = sample.times.mean(axis=0)
    cov = np.atleast_2d(np.cov(sample.times, rowvar=False, ddof=1))
    return mean, cov
