"""Output checks for benchmark jobs.

The oracles are straight vectorized NumPy versions of the depth formulas
(direct powers and products, no log space), written apart from the
package so they stay an independent route. Tolerances are the test
suite's own: 1e-9 relative for the product, conditional and
uniform-proportion forms, 1e-12 for the marginal factor and the
Mahalanobis baseline. A relative tolerance never admits a nonzero value
where the oracle gives exactly 0.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

PARAM_FIELDS = ("start", "mu_last", "var_last", "u_bar", "eta", "big_m")
TOLERANCES = {
    "product": 1e-9,
    "conditional": 1e-9,
    "hpp-conditional": 1e-9,
    "marginal": 1e-12,
    "mahalanobis": 1e-12,
}
# Methods whose depth is exactly 0 whenever a gap is zero.
GAP_METHODS = ("product", "conditional", "hpp-conditional")


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def param_fields(params) -> dict:
    """The depth parameters from a ``DepthParams`` or a params JSON document."""
    get = params.__getitem__ if isinstance(params, dict) else lambda f: getattr(params, f)
    fields = {f: get(f) for f in PARAM_FIELDS}
    fields["u_bar"] = np.asarray(fields["u_bar"], dtype=float)
    return fields


def gaps(times: np.ndarray, start: float) -> np.ndarray:
    return np.diff(times, axis=1, prepend=start)


def oracle(method: str, times: np.ndarray, fields: dict, baseline=None) -> np.ndarray:
    """Depth of each row of the (n, k) event-time matrix under one method."""
    start = fields["start"]
    last = times[:, -1]
    total = last - start
    g = gaps(times, start)
    interior = (total > 0) & np.all(g > 0, axis=1)
    safe_total = np.where(total > 0, total, 1.0)[:, None]
    if method == "mahalanobis":
        mean, cov = (np.asarray(a, dtype=float) for a in baseline)
        dev = times - mean
        d2 = np.einsum("ij,jk,ik->i", dev, np.linalg.inv(cov), dev)
        return 1.0 / (1.0 + d2)
    if method == "hpp-conditional":
        k = times.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            value = k * np.prod((g / safe_total) ** (1.0 / k), axis=1)
        return np.where(interior, value, 0.0)
    w = 1.0 / (1.0 + (last - start - fields["mu_last"]) ** 2 / fields["var_last"])
    exponent = np.abs(last - fields["eta"]) / (fields["big_m"] - start)
    marginal = np.where(exponent == 0.0, 1.0, w**exponent)
    if method == "marginal":
        return marginal
    u = fields["u_bar"]
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(interior, np.prod((g / (safe_total * u)) ** u, axis=1), 0.0)
    if method == "conditional":
        return conditional
    return marginal * conditional


def require_close(label: str, got, expected, rel: float) -> None:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(got.shape == expected.shape, f"{label}: shape {got.shape}, expected {expected.shape}")
    ok = np.abs(got - expected) <= np.maximum(rel * np.abs(expected), 1e-300)
    if not ok.all():
        i = int(np.argmin(ok))
        raise CheckFailed(f"{label}: row {i} is {got[i]!r}, expected {expected[i]!r} within rel {rel}")


def check_depths(label: str, method: str, values, times, fields, baseline=None) -> None:
    """Values match the oracle, and every zero-gap row has depth exactly 0."""
    values = np.asarray(values, dtype=float)
    require(values.shape == (times.shape[0],),
            f"{label}: {values.shape} values for {times.shape[0]} rows")
    require_close(label, values, oracle(method, times, fields, baseline), TOLERANCES[method])
    if method in GAP_METHODS:
        on_boundary = np.any(gaps(times, fields["start"]) == 0.0, axis=1)
        require(np.all(values[on_boundary] == 0.0), f"{label}: a zero-gap row has nonzero depth")


def check_ranks(label: str, depth_by_index, rank_by_index) -> None:
    """Competition ranks, deepest first, exactly as ``rankdata(-depth, "min")``."""
    expected = rankdata(-np.asarray(depth_by_index), method="min")
    require(np.array_equal(np.asarray(rank_by_index), expected.astype(np.int64)),
            f"{label}: ranks differ from rankdata(-depth, method='min')")


def require_same_bits(label: str, a, b) -> None:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    require(a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)),
            f"{label}: values differ bit for bit")


def check_contour(grid, fields, baseline) -> None:
    """Values in [0, 1]; gap methods are 0 off the start <= s1 <= s2 wedge and
    on its zero-gap edges, and match the oracle inside it."""
    label = f"contour {grid.method}"
    values = grid.values
    require(np.all((values >= 0.0) & (values <= 1.0)), f"{label}: a value lies outside [0, 1]")
    s1, s2 = np.meshgrid(grid.axis1, grid.axis2, indexing="ij")
    times = np.stack([s1.ravel(), s2.ravel()], axis=1)
    if grid.method == "mahalanobis":
        require_close(label, values.ravel(), oracle("mahalanobis", times, fields, baseline),
                      TOLERANCES["mahalanobis"])
        return
    wedge = ((fields["start"] <= s1) & (s1 <= s2)).ravel()
    require(np.all(values.ravel()[~wedge] == 0.0), f"{label}: a node off the wedge is nonzero")
    check_depths(label, grid.method, values.ravel()[wedge], times[wedge], fields)


def check_report(label: str, report) -> None:
    bad = [c.name for c in report.checks if c.violations != 0]
    require(report.passed and not bad, f"{label}: property violations in {bad}")
