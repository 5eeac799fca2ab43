"""Moment estimation from a sample of realizations.

Fits the quantities the depth formulas need (mean and variance of the
duration, mean normalized gaps) and the mean/covariance pair for the
multivariate Mahalanobis baseline. Variances and covariances use the
unbiased n-1 denominator.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .depth import U_BAR_SUM_TOL, DepthParams, cumulative_times
from .errors import DataError
from .sequences import SampleSet, check_times, gap_matrix


def fit_stack(times: np.ndarray, start: np.ndarray, gaps_out=None) -> SimpleNamespace:
    """The moment fit of c samples at once: the one formula of the fitted fields.

    ``times`` is an event-major (k, c, n) stack (k events, c samples, n
    rows) and ``start`` holds one start per sample. Returns
    ``PARAM_FIELDS`` as arrays over c (``u_bar`` is (c, k); ``horizon`` is
    ``mu_last``). ``gaps_out``, a float (n, c, k) array, receives the
    normalized gaps, so that a caller fitting stack after stack reuses one
    buffer.

    Each sample is checked as :class:`SampleSet`, :func:`fit_params` and
    :class:`DepthParams` check one sample; the first failing sample raises
    their :class:`DataError`. The layout keeps the bits of a fit of one
    sample: the duration moments reduce one contiguous row per sample
    (pairwise sums), and ``u_bar`` is a mean over the leading row axis of
    the normalized gaps (sequential sums).
    """
    k, c, n = times.shape
    if n < 2:  # after the first sample's own check, as one sample at a time would fail
        check_times(float(start[0]), times[:, 0].T)
        raise DataError(f"need at least 2 realizations to fit, got {n}")
    with np.errstate(all="ignore"):
        durations = np.subtract(times[-1], start[:, None], order="C")
        mu_last = durations.mean(axis=1)
        var_last = durations.var(axis=1, ddof=1)
        gaps = gap_matrix(times, times[0] - start[:, None])
        # The times check: a NaN time leaves a NaN gap, an infinite one a
        # negative or NaN gap or an infinite mean duration. One whole-stack
        # minimum decides; only after a failure is it taken per sample.
        ok = np.full(c, True) if gaps.min() >= 0 else gaps.min(axis=(0, 2)) >= 0
        gaps /= durations
        fractions = np.empty((n, c, k)) if gaps_out is None else gaps_out
        fractions[...] = gaps.T
        u_bar = fractions.mean(axis=0)
        center = start[:, None] + cumulative_times(mu_last, u_bar)
        ok &= ((durations > 0).all(axis=1) & np.isfinite(mu_last) & np.isfinite(var_last) & (var_last > 0)
               & ((u_bar > 0) & (u_bar <= 1)).all(axis=1)
               & (np.abs(u_bar.sum(axis=1) - 1.0) <= U_BAR_SUM_TOL)
               & (np.diff(center, axis=1) > 0).all(axis=1) & (center[:, 0] > start))
    if not ok.all():
        i = int(np.argmin(ok))
        check_times(float(start[i]), times[:, i].T)
        bad = np.nonzero(durations[i] <= 0)[0]
        if bad.size:
            raise DataError(f"realization {int(bad[0])} has zero duration; normalized gaps are undefined")
        for moment, value in (("mean", mu_last[i]), ("variance", var_last[i])):
            if not math.isfinite(value):
                raise DataError(f"the duration {moment} overflows: the largest duration is {durations[i].max():.6g}")
        if not var_last[i] > 0:
            raise DataError("degenerate variance: all realizations share the same duration")
        DepthParams(start[i], mu_last[i], var_last[i], u_bar[i])
    return SimpleNamespace(start=start, mu_last=mu_last, var_last=var_last, u_bar=u_bar, horizon=mu_last)


def fit_params(sample: SampleSet) -> DepthParams:
    """Estimate depth parameters from a sample: :func:`fit_stack` at c = 1.

    Every realization must last a positive amount of time (a zero-duration
    realization has no normalized gaps and aborts the fit), at least two
    distinct durations are required for a usable variance, and a mean or
    variance of the durations that overflows is a :class:`DataError`.
    The horizon is the default, ``mu_last``; ``dataclasses.replace(params,
    horizon=h)`` gives the params with another.
    """
    fields = fit_stack(sample.times.T[:, None], np.array([sample.start]))
    return DepthParams(sample.start, fields.mu_last[0], fields.var_last[0], fields.u_bar[0])


def fit_mahalanobis(sample: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise mean and unbiased covariance of the event-time vectors.

    A singular covariance is returned as-is; the depth evaluation applies
    its ridge policy when inverting. The column mean is taken once and the
    covariance follows ``np.cov(times, rowvar=False, ddof=1)`` step by
    step (centre the (k, n) view, multiply it by its transpose, scale by
    ``1 / (n - 1)``), so both keep numpy's bits. The sample remembers its
    fit, so a second call on it computes nothing; every call returns a
    fresh ``(mean, cov)`` the caller owns.
    """
    if sample.n < 2:
        raise DataError(f"need at least 2 realizations to fit, got {sample.n}")
    fit = sample._memo("fit_mahalanobis", None, lambda: _mean_and_cov(sample.times))
    return fit["mean"].copy(), fit["cov"].copy()


def _mean_and_cov(times: np.ndarray) -> dict[str, np.ndarray]:
    mean = times.mean(axis=0)
    centred = np.subtract(times, mean).T  # np.cov's (k, n) view of its centred copy
    cov = np.dot(centred, centred.T.conj())
    cov *= np.true_divide(1, times.shape[0] - 1)
    return {"mean": mean, "cov": cov}
