"""Depth evaluation for first-k-event realizations.

The depth of a realization factors into two pieces:

* a marginal factor ``omega(s_k) ** (|s_k - eta| / horizon)`` built from
  the normalized one-dimensional Mahalanobis depth of the last event
  time, and
* a conditional factor, the weighted geometric mean of the realization's
  normalized gaps measured against their expected proportions ``u_bar``.

Both factors live in [0, 1]; their product is 1 exactly at the central
event-time vector and 0 on the boundary (any zero gap). A multivariate
Mahalanobis depth on the raw event-time vector is included as the
comparison baseline.

Each formula is written once, in an array kernel over an (n, k) matrix of
event times: :func:`depth_columns`, :func:`hpp_conditional_column` and
:func:`mahalanobis_column`. The scalar functions take one realization as a
(k,) vector of absolute times, from the params' start (or a given one),
and are batches of one, so scalar and batch results agree bit for bit.
After subtracting the start once, the kernels read it only in the
exact-center test. The gaps of a block are one event-major (k, B) array,
and a sum over the k columns is taken column by column (:func:`_row_sum`),
in the order numpy's own row sum uses, so each row keeps the bits of
``.sum(axis=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DataError, check_array, check_number, check_numbers
from .sequences import EventSequence, gap_matrix

U_BAR_SUM_TOL = 1e-12
_RIDGE = 1e-10
# Rows per kernel block: bounds the kernels' temporaries independently of n.
BLOCK_ROWS = 4096
# The fitted fields of DepthParams; k, eta, big_m and the center derive from them.
PARAM_FIELDS = ("start", "mu_last", "var_last", "u_bar", "horizon")
BREAKDOWN_FIELDS = ("omega", "exponent", "marginal_factor", "conditional", "product")


def cumulative_times(duration, proportions) -> np.ndarray:
    """Offsets from the start ``duration * cumsum(proportions)``.

    The last cumulative proportion is pinned to exactly 1, so the last
    offset is ``duration`` bitwise. ``duration`` may be a scalar or a
    per-row array, ``proportions`` a (k,) vector or one row per
    realization. The result is the transpose of an event-major (k, ...)
    array, one contiguous row per event; the sum runs event by event, in
    the order (and so with the bits) of ``np.cumsum`` along the last axis.
    """
    columns = np.moveaxis(np.asarray(proportions, dtype=float), -1, 0)
    duration = np.asarray(duration, dtype=float)
    out = np.empty((columns.shape[0], *np.broadcast_shapes(duration.shape, columns.shape[1:])))
    out[0] = columns[0]
    for j in range(1, columns.shape[0] - 1):
        out[j] = out[j - 1] + columns[j]
    out[-1] = 1.0
    out *= duration
    return np.moveaxis(out, 0, -1)


# The message of each rule of broken_rules, in order, formatted with the fields and the u_bar sum.
RULES = (
    "parameters must be finite",
    "degenerate variance of the last event time: {var_last}",
    "degenerate horizon: {horizon} is not positive",
    "every gap proportion must lie in (0, 1]",
    f"gap proportions must sum to 1 within {U_BAR_SUM_TOL}, got {{total!r}}",
    "mean duration must be positive and finite",
    "eta, big_m and the central event times must be finite",
    "central event times must be strictly increasing",
)


@np.errstate(all="ignore")
def broken_rules(start, mu_last, var_last, u_bar, horizon):
    """The one statement of the rules of the fitted fields, ``PARAM_FIELDS``
    as arrays over c samples (``u_bar`` is (c, k), k >= 1). Returns, per
    sample, the index in ``RULES`` of the first rule broken (``len(RULES)``
    if none), the ``u_bar`` sum and the center. A NaN breaks every rule."""
    total = u_bar.sum(axis=1)
    center = start[:, None] + cumulative_times(mu_last, u_bar)
    kept = (np.isfinite((start, mu_last, var_last, horizon)).all(axis=0),
            var_last > 0,
            horizon > 0,
            ((u_bar > 0) & (u_bar <= 1)).all(axis=1),
            np.abs(total - 1.0) <= U_BAR_SUM_TOL,
            mu_last > 0,
            np.isfinite(center).all(axis=1) & np.isfinite(start + horizon),  # eta is the center's last time
            (np.diff(center, axis=1) > 0).all(axis=1) & (center[:, 0] > start),
            np.zeros(start.shape, bool))  # argmin's pick, len(RULES), where every rule is kept
    return np.argmin(kept, axis=0), total, center


@dataclass(frozen=True)
class DepthParams:
    """Fitted quantities needed to evaluate depths for one population, held
    to the rules of :func:`broken_rules` (the first broken one raises).

    Only the start and the fitted durations and proportions are fields;
    ``k``, ``eta``, ``big_m = start + horizon`` and ``center`` are derived
    (the center once, when built). ``eta`` is where the marginal depth peaks
    (the mean last event time, because the one-dimensional Mahalanobis
    depth is maximal at the mean, with maximum 1, so no numerical
    normalization is needed). ``horizon`` scales the marginal exponent and
    defaults to ``mu_last``. Each field, and each entry of ``u_bar``, is a
    number that fits in a float (see :func:`~tppdepth.errors.check_number`).
    """

    start: float
    mu_last: float
    var_last: float
    u_bar: tuple[float, ...]
    horizon: float | None = None

    def __post_init__(self):
        if self.horizon is None:
            object.__setattr__(self, "horizon", self.mu_last)
        for name in ("start", "mu_last", "var_last", "horizon"):
            object.__setattr__(self, name, check_number(name, getattr(self, name)))
        object.__setattr__(self, "u_bar", check_numbers("u_bar", self.u_bar, "every u_bar entry"))
        if not self.u_bar:
            raise DataError("gap proportions must be a nonempty vector")
        broken, total, center = broken_rules(*(np.array([getattr(self, name)]) for name in PARAM_FIELDS))
        if broken[0] < len(RULES):
            raise DataError(RULES[broken[0]].format(**vars(self), total=total[0]))
        object.__setattr__(self, "_center", tuple(center[0].tolist()))

    @property
    def k(self) -> int:
        return len(self.u_bar)

    @property
    def eta(self) -> float:
        """``start + mu_last``; bitwise the last entry of the center."""
        return self.start + self.mu_last

    @property
    def big_m(self) -> float:
        return self.start + self.horizon

    @property
    def center(self) -> tuple[float, ...]:
        """``start + mu_last * cumsum(u_bar)``, the last entry bitwise ``eta``; kept from construction."""
        return self._center


@np.errstate(all="ignore")
def _marginal(duration, p, out=None):
    # omega, the distance exponent and the marginal factor of a duration,
    # written into ``out`` (three arrays) when given. An exponent of 0 gives
    # a factor of 1 regardless of the base (at eta): w**0 is 1 for every w,
    # 0, inf and NaN included.
    dev = np.subtract(duration, p.mu_last)
    w, exponent, factor = out if out is not None else (np.empty(dev.shape) for _ in range(3))
    np.multiply(dev, dev, out=w)
    w /= p.var_last
    w += 1.0
    np.divide(1.0, w, out=w)
    np.abs(dev, out=exponent)
    exponent /= p.horizon
    np.power(w, exponent, out=factor)
    np.minimum(factor, 1.0, out=factor)
    return w, exponent, factor


def _blocks(n: int):
    return [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)]


def _row_sum(terms):
    """Elementwise sum of a list of equal-shape arrays (or of the rows of
    an array), in the order ``np.add.reduce`` takes along a contiguous
    last axis.

    That is numpy's pairwise summation started from +0.0: fewer than 8
    terms left to right; up to 128 in eight lanes, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover terms left
    to right; more than 128 split at ``h = n//2 - (n//2) % 8`` and summed
    halfwise. Adding one array per column costs one pass per term, where a
    reduction over a short last axis pays a call per row. Only the sign and
    payload of a NaN may differ from numpy's.
    """
    n = len(terms)
    if n > 128:
        h = n // 2 - (n // 2) % 8
        return _row_sum(terms[:h]) + _row_sum(terms[h:])
    total, rest = 0.0 + terms[0], terms[1:]  # numpy's +0.0 start: a sum of zeros is +0.0
    if n >= 8:
        r = [total, *terms[1:8]]
        for lo in range(8, n - n % 8, 8):
            r = [a + b for a, b in zip(r, terms[lo:lo + 8])]
        total, rest = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), terms[n - n % 8:]
    for t in rest:
        total += t
    return total


@np.errstate(all="ignore")
def depth_columns(times, params) -> dict[str, np.ndarray]:
    """Depth breakdown of every row of an (n, k) event-time matrix.

    Returns one array per name in ``BREAKDOWN_FIELDS``. ``params`` is a
    :class:`DepthParams` or any object with its fitted fields
    (``PARAM_FIELDS``); each field is shared by all rows or holds one entry
    per row. Each block subtracts the start once: the marginal factor and
    the first gap read the offsets ``o = t - start``, the later gaps the
    times. The conditional factor is a log-space weighted sum masked to
    exactly 0 on any row with a zero gap. A row equal to the center (in
    absolute time) has every depth field exactly 1 (exponent 0), so
    rounding in the fitted cumulative proportions cannot push the maximum
    below 1; only rows whose last time equals the center's last time
    (``start + mu_last``) are compared in full. Rows are evaluated in
    blocks of ``BLOCK_ROWS``, each written in place into views of the
    returned columns.
    """
    times = np.asarray(times, dtype=float)
    n = times.shape[0]
    fields = {name: np.asarray(getattr(params, name), dtype=float) for name in PARAM_FIELDS}
    # A per-row field has one more dimension than its shared form.
    per_row = [name for name, v in fields.items() if v.ndim == 1 + (name == "u_bar")]
    out = {name: np.empty(n) for name in BREAKDOWN_FIELDS}
    for rows in _blocks(n):
        t = times[rows]
        p = SimpleNamespace(**{**fields, **{name: fields[name][rows] for name in per_row}})
        w, exponent, factor, conditional, product = (out[name][rows] for name in BREAKDOWN_FIELDS)
        first, last = t[:, 0] - p.start, t[:, -1] - p.start
        _marginal(last, p, (w, exponent, factor))
        gaps = gap_matrix(t.T, first)
        u = np.atleast_2d(p.u_bar).T
        terms = np.log(gaps)
        terms -= np.log(last * u)
        terms *= u
        np.exp(_row_sum(terms), out=conditional)
        np.minimum(conditional, 1.0, out=conditional)
        conditional[~np.logical_and.reduce(gaps > 0.0)] = 0.0
        np.multiply(factor, conditional, out=product)
        at_eta = np.flatnonzero(t[:, -1] == p.start + p.mu_last)
        if at_eta.size:
            centers = np.broadcast_to(p.start[..., None] + cumulative_times(p.mu_last, p.u_bar), t.shape)
            center = at_eta[(t[at_eta] == centers[at_eta]).all(axis=1)]
            exponent[center] = 0.0
            for column in (w, factor, conditional, product):
                column[center] = 1.0
    return out


@np.errstate(all="ignore")
def hpp_conditional_column(times, start: float) -> np.ndarray:
    """Uniform-proportion conditional depth of every row of an (n, k) matrix.

    ``k * prod(((s_i - s_{i-1}) / (s_k - s_0)) ** (1/k))``, the closed
    form the general conditional depth reduces to when every expected
    proportion is 1/k; exactly 0 on any row with a zero gap. Each block is
    written in place into a view of the returned column.
    """
    times = np.asarray(times, dtype=float)
    n, k = times.shape
    out = np.empty(n)
    for rows in _blocks(n):
        t = times[rows]
        value = out[rows]
        gaps = gap_matrix(t.T, t[:, 0] - start)
        positive = np.logical_and.reduce(gaps > 0.0)
        log_sum = _row_sum(np.log(gaps, out=gaps))
        log_sum /= k
        log_sum += np.log(k)
        log_sum -= np.log(t[:, -1] - start)
        np.exp(log_sum, out=value)
        np.minimum(value, 1.0, out=value)
        value[~positive] = 0.0
    return out


@np.errstate(all="ignore")
def mahalanobis_column(times, mean, covariance) -> np.ndarray:
    """Multivariate Mahalanobis depth ``1 / (1 + (s-m)' C^-1 (s-m))`` per row.

    The mean and the symmetrized covariance must be finite numbers (text
    and bools are not; see :func:`~tppdepth.errors.check_array`) and match
    the k columns. If the Cholesky factorization of the covariance fails, it
    is ridged once with ``1e-10 * trace(C)/k`` on the diagonal; if it is
    still not positive definite a :class:`DataError` is raised. One
    Cholesky factor and one solve serve every row. A row whose distance
    overflows has depth exactly 0.
    """
    times = np.asarray(times, dtype=float)
    n, k = times.shape
    m = check_array("the Mahalanobis mean must be an array of numbers", mean).reshape(-1)
    c = check_array("the Mahalanobis covariance must be an array of numbers", covariance)
    if m.size != k or c.shape != (k, k):
        raise DataError(f"shape mismatch: times {times.shape}, mean {m.shape}, covariance {c.shape}")
    c = 0.5 * (c + c.T)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
        raise DataError("the Mahalanobis mean and the symmetrized covariance must be finite")
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        ridge = _RIDGE * float(np.trace(c)) / k
        try:
            chol = np.linalg.cholesky(c + ridge * np.eye(k))
        except np.linalg.LinAlgError:
            raise DataError("covariance matrix is singular even after ridge regularization") from None
    # Whitening by the inverse factor, elementwise, keeps each row's value
    # independent of how many rows share the call.
    whiten = np.linalg.solve(chol, np.eye(k))
    out = np.empty(n)
    for rows in _blocks(n):
        d = np.subtract(times[rows].T, m[:, None], order="C")
        y = [_row_sum([d_j * w_ij for d_j, w_ij in zip(d, w_i)]) for w_i in whiten]
        distance = _row_sum([y_i * y_i for y_i in y])
        out[rows] = 1.0 / (1.0 + np.where(np.isnan(distance), np.inf, distance))  # NaN: inf - inf
    return out


def require_match(data, params: DepthParams) -> None:
    """Raise a DataError unless ``data`` (an EventSequence or a SampleSet)
    has the event count and the start time of ``params``."""
    if data.k != params.k or data.start != params.start:
        what = "realization" if isinstance(data, EventSequence) else "sample"
        raise DataError(f"{what} (k={data.k}, start={data.start}) does not match "
                        f"parameters (k={params.k}, start={params.start})")


def _row(times, params: DepthParams) -> np.ndarray:
    seq = EventSequence(params.start, times)
    require_match(seq, params)
    return np.array([seq.times])


def marginal_depth_d1(last_time: float, params: DepthParams) -> float:
    """One-dimensional Mahalanobis depth of the last event time.

    ``1 / (1 + (last_time - start - mu_last)**2 / var_last)``; equals 1
    exactly when the duration matches the mean duration.
    """
    return float(_marginal(np.array([check_number("last_time", last_time)]) - params.start, params)[0][0])


def marginal_factor(last_time: float, params: DepthParams) -> float:
    """``marginal_depth_d1(last_time) ** (|last_time - eta| / horizon)``.

    The exponent is computed first; when it is 0 the factor is 1
    regardless of the base, which keeps the factor continuous at eta.
    """
    return float(_marginal(np.array([check_number("last_time", last_time)]) - params.start, params)[2][0])


def conditional_depth(times, params: DepthParams) -> float:
    """Weighted geometric mean of normalized gaps against ``u_bar``.

    ``prod(((s_i - s_{i-1}) / ((s_k - s_0) * u_bar[i])) ** u_bar[i])``,
    evaluated in log space. Exactly 0 when any gap is zero; at most 1 by
    the weighted AM-GM bound, with equality only when the normalized gaps
    match ``u_bar``.
    """
    return float(depth_columns(_row(times, params), params)["conditional"][0])


def hpp_conditional_depth(times, start: float) -> float:
    """Conditional depth under uniform expected proportions, from ``start``.

    The batch of one of :func:`hpp_conditional_column`. Agrees with
    :func:`conditional_depth` at uniform ``u_bar`` to rounding error.
    """
    seq = EventSequence(start, times)
    return float(hpp_conditional_column(np.array([seq.times]), seq.start)[0])


def product_depth(times, params: DepthParams) -> dict[str, float]:
    """Full depth of a realization: marginal factor times conditional depth.

    The batch of one of :func:`depth_columns`: one float per name in
    ``BREAKDOWN_FIELDS``, in that order. The central event-time vector is
    the unique maximizer, with depth exactly 1.
    """
    return {name: float(v[0]) for name, v in depth_columns(_row(times, params), params).items()}


def mahalanobis_depth(times, mean, covariance) -> float:
    """Multivariate Mahalanobis depth of one event-time vector; the batch of
    one of :func:`mahalanobis_column`."""
    row = np.array([check_numbers("times", times, "every entry of times")])
    return float(mahalanobis_column(row, mean, covariance)[0])
