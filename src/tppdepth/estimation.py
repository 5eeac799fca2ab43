"""Moment estimation from a sample of realizations.

Fits the quantities the depth formulas need (mean and variance of the
duration, mean normalized gaps) and the mean/covariance pair for the
multivariate Mahalanobis baseline. Variances and covariances use the
unbiased n-1 denominator.

It is also the one owner of how the estimator answers a moved sample
``t -> a*t + b`` (P3): in closed form (:func:`affine_fields`) and by
refitting every moved sample (:func:`fit_moved`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .depth import BLOCK_ROWS, PARAM_FIELDS, U_BAR_SUM_TOL, DepthParams, cumulative_times
from .errors import DataError
from .sequences import SampleSet, check_times, gap_matrix

# Rows of the stacked samples fit_moved fits at once: bounds its
# temporaries whatever the number of moved samples.
REFIT_ROWS = 4 * BLOCK_ROWS

# Bytes of the buffer that u_bar's sum copies one chunk of normalized gaps
# into: it stays in cache, and it is no larger than malloc's default mmap
# threshold, so it is reused heap memory, not a fresh mapping per fit.
U_BAR_CHUNK_BYTES = 1 << 17


def fit_stack(times: np.ndarray, start: np.ndarray) -> SimpleNamespace:
    """The moment fit of c samples at once: the one formula of the fitted fields.

    ``times`` is an event-major (k, c, n) stack (k events, c samples, n
    rows) and ``start`` holds one start per sample. Returns
    ``PARAM_FIELDS`` as arrays over c (``u_bar`` is (c, k); ``horizon`` is
    ``mu_last``).

    Each sample is checked as :class:`SampleSet`, :func:`fit_params` and
    :class:`DepthParams` check one sample; the first failing sample raises
    their :class:`DataError`. The layout keeps the bits of a fit of one
    sample: the duration moments reduce one contiguous row per sample
    (pairwise sums), and ``u_bar`` is the mean over the rows of the
    normalized gaps that numpy takes of an (n, c, k) array (sequential
    sums), summed a cache-sized chunk at a time (:func:`_row_axis_mean`).
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
        u_bar = np.ascontiguousarray(_row_axis_mean(gaps.reshape(k * c, n)).reshape(k, c).T)
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


def _row_axis_mean(columns: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(columns.T).mean(axis=0)`` of an (m, n) array,
    bit for bit, without that (n, m) copy.

    numpy sums a C-contiguous (n, m) array over its rows one row at a
    time, each column in row order. So each chunk of ``columns`` is copied,
    transposed, into rows 1.. of one reused buffer; row 0 carries the
    running sum (-0.0 at first, which adds exactly), and ``np.add.reduce``
    continues the sum over the chunk. At m = 1 numpy sums pairwise
    instead, but there (k = 1, one sample) every normalized gap is 1 or
    NaN, which any order sums exactly.
    """
    m, n = columns.shape
    rows = min(n, max(1, U_BAR_CHUNK_BYTES // (columns.itemsize * m) - 1))
    buffer = np.empty((rows + 1, m))
    total = np.full(m, -0.0)
    for lo in range(0, n, rows):
        chunk = columns[:, lo:lo + rows].T
        part = buffer[:chunk.shape[0] + 1]
        part[0] = total
        part[1:] = chunk
        np.add.reduce(part, axis=0, out=total)
    return total / n


def affine_fields(params, a, b) -> SimpleNamespace:
    """Fitted fields of the population transformed by t -> a*t + b, a > 0.

    Matches what refitting on the transformed sample produces: the start
    maps through a*t + b (so do eta, big_m and the center, which derive
    from it), mu and the horizon scale by a, the variance by a**2, and the
    proportions are untouched. ``a`` and ``b`` may be arrays, one
    transform per row, for :func:`depth_columns`.
    """
    return SimpleNamespace(start=a * params.start + b, mu_last=a * params.mu_last,
                           var_last=a * a * params.var_last, u_bar=params.u_bar, horizon=a * params.horizon)


def fit_moved(times: np.ndarray, start: float, a: np.ndarray, b: np.ndarray) -> SimpleNamespace:
    """The fitted fields of every moved sample ``a[i] * X + b[i]``, started at
    ``a[i] * start + b[i]``, of an event-major (k, n) sample X: bit for bit
    one :func:`fit_params` per moved sample, with its checks.

    Stacks of whole samples, at most ``REFIT_ROWS`` rows (or one sample),
    are fitted at once by :func:`fit_stack`. Each block copies the sample
    into its stack and fills (c, n) scale and shift operands, so the
    multiply and the add run in place, one contiguous loop per event
    rather than one per sample. The stack and the operands live in buffers
    reused by every block: fresh block-sized arrays would often come from
    new pages, one page fault per 4 KiB each time.
    """
    k, n = times.shape
    per_block = max(1, REFIT_ROWS // n)
    size = min(per_block, a.size) * n
    buffer, operands = np.empty(k * size), np.empty((2, size))
    fitted = []
    for lo in range(0, a.size, per_block):
        block = slice(lo, lo + per_block)
        c = a[block].size
        scale, shift = (part[:c * n].reshape(c, n) for part in operands)
        scale[...] = a[block, None]
        shift[...] = b[block, None]
        stack = buffer[:k * c * n].reshape(k, c, n)
        stack[...] = times[:, None]
        stack *= scale
        stack += shift
        fitted.append(fit_stack(stack, a[block] * start + b[block]))
    return SimpleNamespace(**{f: np.concatenate([vars(p)[f] for p in fitted]) for f in PARAM_FIELDS})


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
