"""Ranking, contour grids, boundary comparisons, and property verification.

Ranks are competition ranks: rank 1 is the deepest realization, exact ties
share the smallest rank of their block, and the next rank skips by the
block size. Boundary realizations all have depth exactly 0, so with any
interior realization present they form the trailing tied block.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .depth import (
    BLOCK_ROWS,
    BREAKDOWN_FIELDS,
    PARAM_FIELDS,
    DepthParams,
    _blocks,
    _row_sum,
    cumulative_times,
    depth_columns,
    hpp_conditional_column,
    mahalanobis_column,
    marginal_depth_d1,
    require_match,
)
from .errors import DataError, check_array, check_count, check_number, check_seed, is_number, shown
from .estimation import affine_fields, fit_mahalanobis, fit_moved
from .sequences import SampleSet, check_times, gap_matrix

# Each method's kernel, as the name of its memo entry, and its column there.
_KERNELS = {
    "product": ("depth_columns", "product"),
    "marginal": ("depth_columns", "marginal_factor"),
    "conditional": ("depth_columns", "conditional"),
    "hpp-conditional": ("hpp_conditional_column", "hpp-conditional"),
    "mahalanobis": ("mahalanobis_column", "mahalanobis"),
}
METHODS = tuple(_KERNELS)

INFINITY_DEPTH_TOL = 1e-6
SCALE_SHIFT_RTOL = 1e-10
RAY_SLACK = 1e-9
HPP_CONSISTENCY_RTOL = 1e-12
FRACTION_SLACK = 1e-9
DEFAULT_RAYS = 1000
# The (least, most) values of the counts that size an allocation
# (resolution**2 contour nodes, trials x k draws, 101 points per ray); the
# CLI bounds its flags by these too.
COUNT_CAPS = {"resolution": (2, 2001), "trials": (1, 10**6), "rays": (1, 10**5)}
ALPHA_GRID_POINTS = 101
_ENTRY = namedtuple("Entry", "index depth rank")


class RankEntries(np.recarray):
    """``RankTable.entries``; a loop over it yields ``(index, depth, rank)`` named tuples of Python numbers."""

    def __iter__(self):  # a block of rows at a time: about 7x faster than numpy's own record rows
        for rows in _blocks(self.size):
            yield from map(_ENTRY._make, zip(*(self[rows][name].tolist() for name in _ENTRY._fields)))


@dataclass(frozen=True, eq=False)
class RankTable:
    """Depths and competition ranks, indexed by row.

    ``order`` lists row indices deepest first (ties by row index).
    """

    method: str
    depths: np.ndarray
    ranks: np.ndarray

    @property
    def n(self) -> int:
        return self.depths.size

    @property
    def order(self) -> np.ndarray:
        return np.argsort(self.ranks, kind="stable")

    @property
    def entries(self) -> RankEntries:
        """The rows deepest first, as one record array with fields ``index``, ``depth`` and ``rank``."""
        order = self.order
        return np.rec.fromarrays([order, self.depths[order], self.ranks[order]], names=_ENTRY._fields).view(RankEntries)

    def ranks_by_index(self) -> np.ndarray:
        return self.ranks.copy()

    def depths_by_index(self) -> np.ndarray:
        return self.depths.copy()


@dataclass(frozen=True)
class ContourGrid:
    """Dense depth evaluation over a rectangle of (s1, s2) nodes.

    ``values[i, j]`` is the depth at ``(axis1[i], axis2[j])``. Nodes that
    violate ``start <= s1 <= s2`` hold 0 by convention for the gap-based
    methods; the Mahalanobis baseline is evaluated everywhere.
    """

    method: str
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class NearBoundarySummary:
    """Mean ranks of the near-boundary subset under both depths; ``indices`` is a read-only int64 array."""

    threshold: float
    sample_size: int
    indices: np.ndarray
    mean_product_rank: float
    mean_mahalanobis_rank: float

    @property
    def subset_size(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one randomized property check.

    ``worst_margin`` is the largest observed excess over what the property
    allows; any positive margin is a violation, so a passing check has
    ``violations == 0`` and a nonpositive worst margin.
    """

    name: str
    trials: int
    violations: int
    worst_margin: float


@dataclass(frozen=True)
class PropertyReport:
    """Results of the full randomized property suite."""

    seed: int
    trials: int
    rays: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.violations == 0 for c in self.checks)


def _competition_ranks(values: np.ndarray) -> np.ndarray:
    # Each row takes the 1-based position where its run of equal values
    # starts in the deepest-first order. A tie block gets its start rank
    # whatever order the sort leaves inside it, so the sort need not be
    # stable. NaN sorts last and is never equal, so each NaN is its own run;
    # the m NaN rows take the ranks n-m+1..n in row order.
    n = values.size
    order = np.argsort(-values)
    ordered = values[order]
    starts = np.arange(1, n + 1)
    starts[1:][ordered[1:] == ordered[:-1]] = 0  # a row equal to the one before it starts no run
    del ordered  # freed before the ranks are allocated
    np.maximum.accumulate(starts, out=starts)
    ranks = np.empty(n, dtype=int)
    ranks[order] = starts
    nan_rows = np.flatnonzero(np.isnan(values))
    ranks[nan_rows] = np.arange(n - nan_rows.size + 1, n + 1)
    return ranks


def _pair(baseline) -> tuple[np.ndarray, np.ndarray]:
    # The mean and covariance arrays of a baseline, which must be a pair of
    # arrays of numbers (text and bools are not).
    what = "a baseline must be a (mean, covariance) pair of numeric arrays"
    try:
        mean, cov = baseline
    except (TypeError, ValueError):
        raise DataError(what) from None
    return check_array(what, mean), check_array(what, cov)


def _kernel(method: str, times: np.ndarray, start: float, params, baseline) -> dict[str, np.ndarray]:
    """The named columns of ``method``'s kernel on the rows of ``times``: those
    of :func:`depth_columns`, or one column named after the method."""
    if method == "mahalanobis":
        mean, cov = baseline
        return {method: mahalanobis_column(times, mean, cov)}
    if method == "hpp-conditional":
        return {method: hpp_conditional_column(times, start)}
    return depth_columns(times, params)


def _kept(sample: SampleSet, params: DepthParams | None, method: str, baseline) -> tuple[dict, str]:
    """The sample's memo entry for ``method``'s kernel, and the method's column in it.

    Checks the method and the params, and fits the sample's own baseline
    when none is given. The key is the exact bits of what the kernel reads
    besides the times: the fitted fields, or the baseline's shapes and values."""
    if method not in METHODS:
        raise DataError(f"unknown method {shown(method)}; expected one of {METHODS}")
    if method == "mahalanobis":
        baseline = baseline if baseline is not None else fit_mahalanobis(sample)
        mean, cov = _pair(baseline)
        key = mean.shape, mean.tobytes(), cov.shape, cov.tobytes()
    elif method == "hpp-conditional":
        key = None
    elif params is None:
        raise DataError(f"method {method!r} needs fitted parameters")
    else:
        require_match(sample, params)
        key = np.hstack([getattr(params, name) for name in PARAM_FIELDS]).tobytes()
    slot, column = _KERNELS[method]
    return sample._memo(slot, key, lambda: _kernel(method, sample.times, sample.start, params, baseline)), column


def _ranks(entry: dict, column: str) -> np.ndarray:
    # The competition ranks of one memo column, kept in its entry, so a new
    # key drops them with the column.
    name = f"rank {column}"
    if name not in entry:
        entry[name] = _competition_ranks(entry[column])
        entry[name].setflags(write=False)
    return entry[name]


def depth_breakdown(
    sample: SampleSet,
    params: DepthParams,
    baseline: tuple | None = None,
) -> dict[str, np.ndarray]:
    """Product-depth breakdown columns (``BREAKDOWN_FIELDS``) of every
    realization, plus ``baseline_mahalanobis`` when a baseline is given.

    The columns come from the sample's memo (see :func:`depth_values`);
    the dict and its arrays are new on every call."""
    entry, _ = _kept(sample, params, "product", None)
    columns = {name: entry[name].copy() for name in BREAKDOWN_FIELDS}
    if baseline is not None:
        entry, column = _kept(sample, None, "mahalanobis", baseline)
        columns["baseline_mahalanobis"] = entry[column].copy()
    return columns


def depth_values(
    sample: SampleSet,
    params: DepthParams | None,
    method: str,
    baseline: tuple | None = None,
) -> np.ndarray:
    """Depth of every realization in the sample under one method.

    The ``marginal`` method is the marginal factor of the product (the
    normalized last-event depth raised to its distance exponent); it
    orders realizations identically to the unexponentiated form.
    ``mahalanobis`` fits its mean and covariance on the sample itself
    when no baseline is supplied.

    The sample keeps one memo entry per kernel (product, marginal and
    conditional share one), so a kernel runs again only for new params or
    a new baseline. The returned array is a copy the caller owns.
    """
    entry, column = _kept(sample, params, method, baseline)
    return entry[column].copy()


def rank(
    sample: SampleSet,
    params: DepthParams | None,
    method: str,
    baseline: tuple | None = None,
) -> RankTable:
    """Rank the sample deepest first under the chosen method.

    The depths are those of :func:`depth_values`. Their ranks are kept in
    the same memo entry as the depth column, so a second ranking under
    the same key computes nothing, and a new key drops them. The table
    holds copies the caller owns."""
    entry, column = _kept(sample, params, method, baseline)
    return RankTable(method, entry[column].copy(), _ranks(entry, column).copy())


def contour_grid(
    params: DepthParams,
    method: str,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: int,
    baseline: tuple | None = None,
) -> ContourGrid:
    """Evaluate a depth on a k=2 rectangle of (s1, s2) nodes, ``resolution``
    per axis: an integer within ``COUNT_CAPS["resolution"]`` (``3.0`` is
    one; ``2.5`` and ``True`` are not). Each range is a (low, high) pair of
    finite numbers, low below high. Every method reads ``params`` (the
    start masks the nodes)."""
    if method not in METHODS:
        raise DataError(f"unknown method {shown(method)}; expected one of {METHODS}")
    if params is None:
        raise DataError(f"method {method!r} needs fitted parameters")
    resolution = check_count("resolution", resolution, *COUNT_CAPS["resolution"])
    ranges = []
    for name, ends in (("s1", x_range), ("s2", y_range)):
        try:
            lo, hi = ends
        except (TypeError, ValueError):
            lo = hi = None
        if not (is_number(lo) and is_number(hi)):
            raise DataError(f"the {name} range must be a (low, high) pair of numbers, got {shown(ends)}")
        lo, hi = (check_number(f"the {name} range ends", end) for end in (lo, hi))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DataError(f"bad {name} range ({lo}, {hi})")
        ranges.append((lo, hi))
    if method == "mahalanobis":
        if baseline is None:
            raise DataError("mahalanobis contours need a fitted (mean, covariance) baseline")
        k, needed = _pair(baseline)[0].size, "a k=2 baseline"
    else:
        k, needed = params.k, "k=2 parameters"
    if k != 2:
        raise DataError(f"contour grids for method {method!r} need {needed}, got k={k}")
    axis1, axis2 = (np.linspace(lo, hi, resolution) for lo, hi in ranges)
    s1, s2 = np.meshgrid(axis1, axis2, indexing="ij")
    inside = np.ones_like(s1, dtype=bool) if method == "mahalanobis" else (params.start <= s1) & (s1 <= s2)
    values = np.zeros(s1.shape)
    nodes = np.stack([s1[inside], s2[inside]], axis=1)
    values[inside] = _kernel(method, nodes, params.start, params, baseline)[_KERNELS[method][1]]
    return ContourGrid(method=method, axis1=axis1, axis2=axis2, values=values)


def near_boundary_comparison(
    sample: SampleSet,
    params: DepthParams,
    threshold: float,
) -> NearBoundarySummary:
    """Compare mean ranks of near-boundary realizations under both depths.

    A realization is near the boundary when its smallest normalized gap
    (first gap measured from the start) falls below the threshold; a
    zero-duration realization counts as fully on the boundary. The
    Mahalanobis ranks use a mean and covariance fitted on this sample.
    An empty subset is reported with NaN mean ranks rather than an error.
    Both rankings are those of :func:`rank`, read from the sample's memo,
    so after ``rank`` on the same sample and params no kernel, no fit and
    no ranking runs again.
    """
    if not (is_number(threshold) and 0 < threshold <= 1):
        raise DataError(f"threshold must be in (0, 1], got {shown(threshold)}")
    ranks = [_ranks(*_kept(sample, params, method, None)) for method in ("product", "mahalanobis")]
    # The smallest gap of each row, a block of (k, BLOCK_ROWS) gaps at a time,
    # divided once by its duration: for a duration d > 0, correctly rounded
    # division is monotone, so min_j(g_j / d) = (min_j g_j) / d bit for bit.
    times, durations, smallest = sample.times, sample.durations(), np.empty(sample.n)
    for rows in _blocks(sample.n):
        np.minimum.reduce(gap_matrix(times[rows].T, times[rows, 0] - sample.start), out=smallest[rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        smallest /= durations
    subset = np.flatnonzero(np.where(durations > 0, smallest, 0.0) < threshold)
    means = np.stack([r[subset] for r in ranks]).mean(axis=1).tolist() if subset.size else (math.nan, math.nan)
    subset.setflags(write=False)
    return NearBoundarySummary(float(threshold), sample.n, subset, *means)


def weighted_fraction_gap(a, b, alpha) -> np.ndarray:
    """Left minus right side of the weighted-fraction inequality, per row.

    For nonnegative rows a, b (b strictly positive) and mixing weight
    alpha in [0, 1]:

        sum_i (a_i - b_i) / ((1-alpha) + alpha * a_i/b_i)
            <= (sum a - sum b) / ((1-alpha) + alpha * sum(a)/sum(b))

    Returns the gap (LHS - RHS); values above a small slack are
    violations. This is the inequality that makes the log-depth
    nonincreasing along center rays. ``a`` and ``b`` are one row or a
    matrix of rows of the same shape, with at least one column, and
    ``alpha`` holds one weight per row. Each must hold numbers (see
    :func:`~tppdepth.errors.check_array`), and a NaN or an infinity is out
    of range.
    """
    a = np.atleast_2d(check_array("a must be an array of numbers", a))
    b = np.atleast_2d(check_array("b must be an array of numbers", b))
    alpha = check_array("alpha must be an array of numbers", alpha).reshape(-1)
    if a.ndim != 2 or a.shape[1] < 1:
        raise DataError(f"a must be one row or a matrix of rows, with at least one column, got shape {a.shape}")
    if a.shape != b.shape or alpha.size != a.shape[0]:
        raise DataError(f"shape mismatch: a {a.shape}, b {b.shape}, alpha {alpha.shape}")
    if not np.all((0 <= a) & (a < np.inf) & (0 < b) & (b < np.inf)):
        raise DataError("requires finite a >= 0 and b > 0")
    if not np.all((0 <= alpha) & (alpha <= 1)):
        raise DataError("alpha must lie in [0, 1]")
    return _fraction_gap(a.T, b.T, alpha)


def _fraction_gap(a, b, alpha) -> np.ndarray:
    # The gap of weighted_fraction_gap, unchecked, over event-major (k, n)
    # rows; each sum over k is _row_sum's, so a row keeps ``.sum(axis=1)``'s bits.
    lhs = _row_sum((a - b) / ((1.0 - alpha) + alpha * (a / b)))
    sa = _row_sum(a)
    sb = _row_sum(b)
    rhs = (sa - sb) / ((1.0 - alpha) + alpha * (sa / sb))
    return lhs - rhs


def _proportions(rng: np.random.Generator, shape, moderate: bool = False) -> np.ndarray:
    # Uniform on the simplex via normalized exponentials. The moderate form
    # is bounded away from the simplex boundary, for identity checks where
    # a vanishing gap would amplify cancellation far beyond the tolerance.
    # Drawn row by row, in stream order; returned as the transpose of an
    # event-major (k, trials) array.
    e = rng.exponential(1.0, size=shape)
    if moderate:
        e += 0.5
    total = _row_sum(e.T)
    if not moderate:
        empty = total == 0.0
        e[empty] = 1.0
        total[empty] = shape[-1]  # the sum of k ones
    return np.divide(e.T, total, order="C").T


def _interior_times(rng, params: DepthParams, trials: int, moderate: bool = False) -> np.ndarray:
    proportions = _proportions(rng, (trials, params.k), moderate)
    low, high = (0.3, 3.0) if moderate else (0.05, 5.0)
    durations = params.mu_last * rng.uniform(low, high, size=trials)
    return cumulative_times(durations, proportions)


def _boundary_times(rng, params: DepthParams, trials: int, every: int = 1) -> np.ndarray:
    # Interior rows, with rows 0, every, 2*every, ... moved onto the
    # boundary by setting one gap to exactly 0.
    times = _interior_times(rng, params, trials)
    rows = np.arange(0, trials, every)
    j = rng.integers(0, params.k, size=rows.size)
    times[rows, j] = np.where(j > 0, times[rows, np.maximum(j - 1, 0)], 0.0)
    return times


def _tally(name: str, trials: int, margins: np.ndarray) -> PropertyCheck:
    # A NaN margin (a check that could not be evaluated) is a violation.
    return PropertyCheck(name, trials, int(np.count_nonzero(~(margins <= 0))), float(np.max(margins)))


def _product(times: np.ndarray, params) -> np.ndarray:
    return depth_columns(times, params)["product"]


def _check_boundary_vanishing(rng, params, trials) -> PropertyCheck:
    return _tally("P1-boundary", trials, _product(_boundary_times(rng, params, trials), params))


def _check_vanishing_at_infinity(rng, params, trials) -> PropertyCheck:
    far_duration = params.mu_last + 100.0 * max(math.sqrt(params.var_last), params.horizon)
    times = cumulative_times(far_duration, _proportions(rng, (trials, params.k)))
    return _tally("P1-infinity", trials, _product(times, params) - INFINITY_DEPTH_TOL)


def _check_maximality(rng, params, trials) -> PropertyCheck:
    center_depth = _product(np.array([params.center]), params)[0]
    # The marginal depth must peak at exactly 1 at eta, which is what
    # licenses the unit normalizer.
    peak = marginal_depth_d1(params.eta, params)
    margins = _product(_boundary_times(rng, params, trials, every=10), params) - center_depth
    return _tally("P2", trials, np.concatenate([[abs(center_depth - 1.0), abs(peak - 1.0)], margins]))


def _check_scale_shift(rng, params, trials, offsets) -> PropertyCheck:
    a = rng.uniform(0.1, 10.0, size=trials)
    b = params.mu_last * rng.uniform(-10.0, 10.0, size=trials)
    times = _interior_times(rng, params, trials, moderate=True)
    if offsets is None:
        base, moved_params = params, affine_fields(params, a, b)
    else:
        # The reference is the refit of the unmoved offsets (one more moved
        # sample, a = 1 and b = 0), not ``params``: a sample the params were
        # not fitted from must not read as a failure of the invariance.
        refits = vars(fit_moved(offsets, params.start, np.append(a, 1.0), np.append(b, 0.0)))
        base = SimpleNamespace(**{f: refits[f][-1] for f in PARAM_FIELDS})
        moved_params = SimpleNamespace(**{f: refits[f][:-1] for f in PARAM_FIELDS})
    reference = _product(times, base)
    moved = _product((a * times.T + b).T, moved_params)
    # Equal depths deviate by 0, also where both underflow to 0.
    deviation = np.abs(moved - reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(deviation == 0.0, 0.0, deviation / reference)
    return _tally("P3", trials, relative - SCALE_SHIFT_RTOL)


def _check_ray_monotonicity(rng, params, rays) -> PropertyCheck:
    targets = _boundary_times(rng, params, rays, every=10).T
    alphas = np.linspace(0.0, 1.0, ALPHA_GRID_POINTS)
    # Convex form of offsets: rounding is monotone and nothing falls below 0.
    # Each chunk is event-major, (k, rays, points).
    from_center = (1.0 - alphas) * np.asarray(params.center)[:, None, None]
    margins = np.empty(rays)
    chunk = max(1, BLOCK_ROWS // ALPHA_GRID_POINTS)
    for lo in range(0, rays, chunk):
        times = alphas * targets[:, lo:lo + chunk, None]
        times += from_center
        values = _product(times.reshape(params.k, -1).T, params).reshape(-1, ALPHA_GRID_POINTS)
        # Nonincreasing along the ray, with the minimum at the far end (alpha = 1).
        rises = np.max(np.diff(values, axis=1) - RAY_SLACK, axis=1)
        margins[lo:lo + chunk] = np.maximum(rises, values[:, -1] - values.min(axis=1) - RAY_SLACK)
    return _tally("P4", rays, margins)


def _check_hpp_consistency(rng, params, trials) -> PropertyCheck:
    k = params.k
    uniform = replace(params, u_bar=(1.0 / k,) * k)
    times = _interior_times(rng, params, trials)
    closed_form = hpp_conditional_column(times, 0.0)
    general = depth_columns(times, uniform)["conditional"]
    scale = np.maximum(closed_form, general)
    with np.errstate(invalid="ignore"):
        relative = np.where(scale > 0, np.abs(closed_form - general) / scale, 0.0)
    return _tally("hpp-consistency", trials, relative - HPP_CONSISTENCY_RTOL)


def _check_young_range(rng, params, trials) -> PropertyCheck:
    columns = depth_columns(_boundary_times(rng, params, trials, every=10), params)
    cond = columns["conditional"]
    prod = columns["product"]
    margins = np.max([cond - 1.0, -cond, prod - 1.0, -prod], axis=0)
    return _tally("young-range", trials, margins)


def _check_weighted_fraction(rng, trials) -> PropertyCheck:
    sizes = rng.integers(1, 11, size=trials)
    margins = []
    for k in range(1, 11):
        count = int(np.count_nonzero(sizes == k))
        if count == 0:
            continue
        a = 10.0 * np.subtract(1.0, rng.random((count, k)).T, order="C")
        b = 10.0 * np.subtract(1.0, rng.random((count, k)).T, order="C")
        alpha = rng.random(count)
        margins.append(_fraction_gap(a, b, alpha) - FRACTION_SLACK)
    return _tally("weighted-fraction", trials, np.concatenate(margins))


@np.errstate(over="ignore")
def verify_properties(
    params: DepthParams,
    trials: int,
    seed: int,
    rays: int = DEFAULT_RAYS,
    sample: SampleSet | None = None,
) -> PropertyReport:
    """Randomized verification of the depth's structural properties.

    Runs ``trials`` random checks per property (``rays`` rays of 101
    points for the monotonicity check) and reports violation counts with
    worst margins; the report is a pure function of the inputs. The checks
    run on params moved to start 0, where the (shift-invariant) depth is
    the same. When ``sample`` is given, the scale-shift check refits every
    moved sample (:func:`estimation.fit_moved`) from one event-major copy of
    it at start 0, and compares with the refit of that copy unmoved, so it
    tests the estimator on the sample it is given, whatever the params were
    fitted from; otherwise it maps the fitted parameters
    (:func:`estimation.affine_fields`), the same mapping the estimator applies.
    A transformed field that overflows (a horizon or variance near the
    float maximum, scaled) becomes inf, the limit the depth formulas take.
    ``seed``, ``trials`` and ``rays`` must be integers (``1e3`` is one;
    ``True`` and ``2.5`` are not), ``trials`` and ``rays`` within their
    ``COUNT_CAPS``.
    """
    seed = check_seed(seed)
    trials = check_count("trials", trials, *COUNT_CAPS["trials"])
    rays = check_count("rays", rays, *COUNT_CAPS["rays"])
    offsets = None
    if sample is not None:
        require_match(sample, params)
        offsets = np.subtract(sample.times.T, sample.start, order="C")
        check_times(0.0, offsets.T)
    params = replace(params, start=0.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    checks = (
        _check_boundary_vanishing(rng, params, trials),
        _check_vanishing_at_infinity(rng, params, trials),
        _check_maximality(rng, params, trials),
        _check_scale_shift(rng, params, trials, offsets),
        _check_ray_monotonicity(rng, params, rays),
        _check_hpp_consistency(rng, params, trials),
        _check_young_range(rng, params, trials),
        _check_weighted_fraction(rng, trials),
    )
    return PropertyReport(seed=seed, trials=trials, rays=rays, checks=checks)
