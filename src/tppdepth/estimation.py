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

from .depth import BLOCK_ROWS, U_BAR_SUM_TOL, DepthParams, cumulative_times
from .errors import DataError
from .sequences import SampleSet, check_times

# Rows of the stacked samples fit_moved fits at once: bounds its
# temporaries whatever the number of moved samples.
REFIT_ROWS = 4 * BLOCK_ROWS

# Bytes of the buffer that fit_stack's u_bar sum copies one chunk of
# normalized gaps into: it stays in cache, and it is no larger than
# malloc's default mmap threshold, so it is reused heap memory, not a
# fresh mapping per fit.
U_BAR_CHUNK_BYTES = 1 << 17


def fit_stack(times: np.ndarray, start: np.ndarray) -> SimpleNamespace:
    """The moment fit of c samples at once, with the checks of a fit of one.

    ``times`` is an event-major (k, c, n) stack (k events, c samples, n
    rows) and ``start`` holds one start per sample. Returns
    ``PARAM_FIELDS`` as arrays over c (``u_bar`` is (c, k); ``horizon`` is
    ``mu_last``), the moments of :func:`_moments`.

    Each sample is checked as :class:`SampleSet`, :func:`fit_params` and
    :class:`DepthParams` check one sample; the first failing sample raises
    their :class:`DataError`; :class:`DepthParams` owns the rules of the
    fitted fields, which :func:`_fields_pass` repeats batched.
    """
    k, c, n = times.shape
    if n < 2:  # after the first sample's own check, as one sample at a time would fail
        check_times(float(start[0]), times[:, 0].T)
        raise DataError(f"need at least 2 realizations to fit, got {n}")
    gaps, durations = np.empty(times.shape), np.empty((c, n))
    # The deviations go in gaps[0], which holds no gap until they are summed.
    u_buffer = np.empty(max(U_BAR_CHUNK_BYTES // gaps.itemsize, 2 * k * c))
    mu_last, var_last, u_bar, ok = _moments(times, start, gaps, (durations, gaps[0]), u_buffer)
    ok &= _fields_pass(start, mu_last, var_last, u_bar)
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


@np.errstate(all="ignore")
def _moments(times, start, gaps, scratch, u_buffer):
    """The one formula of the fitted moments of c stacked samples, unchecked:
    ``mu_last``, ``var_last``, the (c, k) ``u_bar`` and, per sample, whether
    its gaps are all >= 0 (a NaN, infinite or decreasing time fails).

    ``times`` is an event-major (k, c, n) stack. The normalized gaps go to
    ``gaps``, which may be ``times`` itself (each gap is written one event
    at a time from the last); ``scratch`` holds the (c, n) durations and
    their squared deviations (which may be ``gaps[0]``), and ``u_buffer``
    is :func:`_row_axis_mean`'s. The bits are those of a fit of one sample:
    the duration moments are pairwise sums over one contiguous row per
    sample (the variance by numpy's own ``_var`` steps, from the mean's
    sum), and ``u_bar`` is the sequential mean over the rows that numpy
    takes of an (n, c, k) array.
    """
    k, c, n = times.shape
    durations, deviations = scratch
    np.subtract(times[-1], start[:, None], out=durations)
    mu_last = np.add.reduce(durations, axis=1) / n
    np.subtract(durations, mu_last[:, None], out=deviations)
    np.multiply(deviations, deviations, out=deviations)
    var_last = np.add.reduce(deviations, axis=1) / (n - 1)
    for j in range(k - 1, 0, -1):
        np.subtract(times[j], times[j - 1], out=gaps[j])
    np.subtract(times[0], start[:, None], out=gaps[0])
    # One whole-stack minimum decides; only after a failure is it taken per sample.
    times_pass = np.full(c, True) if gaps.min() >= 0 else gaps.min(axis=(0, 2)) >= 0
    gaps /= durations
    u_bar = np.ascontiguousarray(_row_axis_mean(gaps.reshape(k * c, n), u_buffer).reshape(k, c).T)
    return mu_last, var_last, u_bar, times_pass


def _fields_pass(start, mu_last, var_last, u_bar) -> np.ndarray:
    """Per sample, whether its fitted fields keep :class:`DepthParams`' rules,
    batched: finite moments, a positive variance, each ``u_bar`` entry in
    (0, 1] with a sum of 1 within ``U_BAR_SUM_TOL``, and a strictly
    increasing center after the start. A zero duration leaves a NaN
    ``u_bar``, so it fails here too."""
    with np.errstate(all="ignore"):
        center = start[:, None] + cumulative_times(mu_last, u_bar)
        return (np.isfinite(mu_last) & np.isfinite(var_last) & (var_last > 0)
                & ((u_bar > 0) & (u_bar <= 1)).all(axis=1)
                & (np.abs(u_bar.sum(axis=1) - 1.0) <= U_BAR_SUM_TOL)
                & (np.diff(center, axis=1) > 0).all(axis=1) & (center[:, 0] > start))


def _row_axis_mean(columns: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(columns.T).mean(axis=0)`` of an (m, n) array,
    bit for bit, without that (n, m) copy.

    numpy sums a C-contiguous (n, m) array over its rows one row at a
    time, each column in row order. So each chunk of ``columns`` is copied,
    transposed, into rows 1.. of ``buffer`` (a flat array of at least 2m
    entries, as many rows as fit); row 0 carries the running sum (-0.0 at
    first, which adds exactly), and ``np.add.reduce`` continues the sum
    over the chunk. At m = 1 numpy sums pairwise instead, but there (k = 1,
    one sample) every normalized gap is 1 or NaN, which any order sums
    exactly.
    """
    m, n = columns.shape
    rows = min(n, buffer.size // m - 1)
    total = np.full(m, -0.0)
    for lo in range(0, n, rows):
        chunk = columns[:, lo:lo + rows].T
        part = buffer[:(chunk.shape[0] + 1) * m].reshape(-1, m)
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
    go through :func:`_moments` at once. Each block copies the sample into
    its stack and fills (c, n) scale and shift operands, so the multiply
    and the add run in place, one contiguous loop per event rather than
    one per sample; the operands then hold the durations and their
    deviations, and the gaps replace the times in the stack. The stack,
    the operands and the buffer of ``u_bar``'s sum (one chunk per block)
    are allocated once per call: fresh block-sized arrays would often come
    from new pages, one page fault per 4 KiB each time. The fields' rules
    are checked after the last block, ``BLOCK_ROWS`` moved samples at a
    time; the first failing one is refitted alone by :func:`fit_stack`,
    which raises its error.
    """
    k, n = times.shape
    trials = a.size
    per_block = max(1, REFIT_ROWS // n)
    width = min(per_block, trials)  # samples in the widest block
    buffer, operands = np.empty(k * width * n), np.empty((2, width * n))
    u_buffer = np.empty((min(n, REFIT_ROWS) + 1) * k * width)
    starts = a * start + b
    mu_last, var_last, u_bar, ok = np.empty(trials), np.empty(trials), np.empty((trials, k)), np.empty(trials, bool)
    for lo in range(0, trials, per_block):
        block = slice(lo, lo + per_block)
        c = a[block].size
        scale, shift = (part[:c * n].reshape(c, n) for part in operands)
        scale[...] = a[block, None]
        shift[...] = b[block, None]
        stack = buffer[:k * c * n].reshape(k, c, n)
        stack[...] = times[:, None]
        stack *= scale
        stack += shift
        mu_last[block], var_last[block], u_bar[block], ok[block] = _moments(
            stack, starts[block], stack, (scale, shift), u_buffer)
    for lo in range(0, trials, BLOCK_ROWS):  # BLOCK_ROWS trials at a time bound the temporaries
        rows = slice(lo, lo + BLOCK_ROWS)
        ok[rows] &= _fields_pass(starts[rows], mu_last[rows], var_last[rows], u_bar[rows])
    if not ok.all():
        i = int(np.argmin(ok))
        fit_stack((times * a[i] + b[i])[:, None], starts[i:i + 1])
    return SimpleNamespace(start=starts, mu_last=mu_last, var_last=var_last, u_bar=u_bar, horizon=mu_last)


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
