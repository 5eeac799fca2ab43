"""CSV and JSON ingestion/emission.

Samples are plain CSV matrices, one realization per row, event-time
columns only; the start time travels out-of-band (a flag or argument)
because it is shared by the whole dataset. All floating values are
written with 17 significant digits so files round-trip bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .analysis import ContourGrid, NearBoundarySummary, PropertyReport, RankTable
from .depth import BREAKDOWN_FIELDS, DepthParams
from .errors import DataError
from .sequences import SampleSet

SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def load_csv(path, t0: float = 0.0) -> SampleSet:
    """Read a sample from CSV; an optional header row is skipped.

    Rows must be rectangular, numeric, finite, and nondecreasing from t0;
    errors name the offending row (1-based file line) and column.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        raw_rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not raw_rows:
        raise DataError(f"{path}: no data rows")
    first_line = 1
    try:
        [float(cell) for cell in raw_rows[0]]
    except ValueError:
        raw_rows = raw_rows[1:]
        first_line = 2
        if not raw_rows:
            raise DataError(f"{path}: no data rows after the header") from None
    k = len(raw_rows[0])
    rows = []
    for offset, row in enumerate(raw_rows):
        line = first_line + offset
        if len(row) != k:
            raise DataError(f"{path}: row at line {line} has {len(row)} columns, expected {k}")
        parsed = []
        for col, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row at line {line}, column {col}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row at line {line}, column {col}: value is not finite")
            parsed.append(value)
        previous = float(t0)
        for col, value in enumerate(parsed, start=1):
            if value < previous:
                raise DataError(
                    f"{path}: row at line {line} is not nondecreasing from t0={t0} at column {col}"
                )
            previous = value
        rows.append(parsed)
    return SampleSet(float(t0), rows)


def save_sample_csv(sample: SampleSet, path) -> None:
    """Write the sample matrix as headerless CSV (one realization per row)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for row in sample.times:
            writer.writerow([_fmt(v) for v in row])


def load_sim_config_json(path) -> dict:
    """Read generator settings from JSON: kind, rates, k, n, start, seed."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object of generator settings")
    known = {"kind", "rates", "k", "n", "start", "seed"}
    unknown = set(doc) - known
    if unknown:
        raise DataError(f"{path}: unknown generator settings {sorted(unknown)}")
    return doc


def params_to_dict(params: DepthParams, baseline: tuple | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "k": params.k,
        "start": params.start,
        "mu_last": params.mu_last,
        "var_last": params.var_last,
        "u_bar": list(params.u_bar),
        "eta": params.eta,
        "big_m": params.big_m,
        "center": list(params.center),
    }
    if baseline is not None:
        mean, cov = baseline
        doc["mahalanobis_mean"] = [float(v) for v in np.asarray(mean).reshape(-1)]
        doc["mahalanobis_cov"] = [[float(v) for v in row] for row in np.asarray(cov)]
    return doc


def save_params_json(params: DepthParams, path, baseline: tuple | None = None) -> None:
    """Write fitted parameters (and, optionally, the baseline moments)."""
    Path(path).write_text(json.dumps(params_to_dict(params, baseline), indent=2) + "\n")


def load_params_json(path) -> tuple[DepthParams, tuple | None]:
    """Read fitted parameters; returns (params, baseline-or-None)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    try:
        params = DepthParams(
            k=doc["k"],
            start=doc["start"],
            mu_last=doc["mu_last"],
            var_last=doc["var_last"],
            u_bar=tuple(doc["u_bar"]),
            eta=doc["eta"],
            big_m=doc["big_m"],
            center=tuple(doc["center"]),
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    baseline = None
    if "mahalanobis_mean" in doc and "mahalanobis_cov" in doc:
        baseline = (
            np.asarray(doc["mahalanobis_mean"], dtype=float),
            np.asarray(doc["mahalanobis_cov"], dtype=float),
        )
    return params, baseline


def save_rank_table(table: RankTable, path, fmt: str = "csv") -> None:
    path = Path(path)
    rows = zip(table.order.tolist(), table.depths[table.order].tolist(), table.ranks[table.order].tolist())
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "depth", "rank", "method"])
            for index, depth, rank in rows:
                writer.writerow([index, _fmt(depth), rank, table.method])
    elif fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "method": table.method,
            "entries": [{"index": i, "depth": d, "rank": r} for i, d, r in rows],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r}")


def load_rank_table_csv(path) -> RankTable:
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["index", "depth", "rank", "method"]:
            raise DataError(f"{path}: not a rank table (header {header})")
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path}: empty rank table")
    order = np.array([int(row[0]) for row in rows])
    if not np.array_equal(np.sort(order), np.arange(order.size)):
        raise DataError(f"{path}: indices are not a permutation of the rows")
    depths = np.empty(order.size)
    ranks = np.empty(order.size, dtype=int)
    depths[order] = [float(row[1]) for row in rows]
    ranks[order] = [int(row[2]) for row in rows]
    return RankTable(method=rows[-1][3], order=order, depths=depths, ranks=ranks)


def save_contour(grid: ContourGrid, path, fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        # Long form: one node per row.
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["s1", "s2", "method", "value"])
            for i, x in enumerate(grid.axis1):
                for j, y in enumerate(grid.axis2):
                    writer.writerow([_fmt(x), _fmt(y), grid.method, _fmt(grid.values[i, j])])
    elif fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "method": grid.method,
            "axis1": [float(v) for v in grid.axis1],
            "axis2": [float(v) for v in grid.axis2],
            "values": [[float(v) for v in row] for row in grid.values],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r}")


def report_to_dict(report: PropertyReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": report.seed,
        "trials": report.trials,
        "rays": report.rays,
        "passed": report.passed,
        "properties": [
            {
                "name": c.name,
                "trials": c.trials,
                "violations": c.violations,
                "worst_margin": c.worst_margin,
            }
            for c in report.checks
        ],
    }


def save_report(report: PropertyReport, path, fmt: str = "json") -> None:
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
    elif fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "trials", "violations", "worst_margin"])
            for c in report.checks:
                writer.writerow([c.name, c.trials, c.violations, _fmt(c.worst_margin)])
    else:
        raise DataError(f"unknown format {fmt!r}")


def save_breakdowns(columns: dict, path, fmt: str = "csv") -> None:
    """Write per-realization depth decompositions, indexed by row.

    ``columns`` maps each name in ``BREAKDOWN_FIELDS``, and optionally
    ``baseline_mahalanobis``, to one value per realization (as returned by
    :func:`tppdepth.analysis.depth_breakdown`).
    """
    path = Path(path)
    names = [name for name in (*BREAKDOWN_FIELDS, "baseline_mahalanobis") if name in columns]
    rows = list(zip(*(np.asarray(columns[name]).tolist() for name in names)))
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", *names])
            for index, row in enumerate(rows):
                writer.writerow([index, *(_fmt(v) for v in row)])
    elif fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "entries": [
                {"index": index, **entry, "baseline_mahalanobis": entry.get("baseline_mahalanobis")}
                for index, entry in enumerate(dict(zip(names, row)) for row in rows)
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r}")


def save_values(indices, values, method: str, path, fmt: str = "csv") -> None:
    """Write a plain per-realization value table for one method."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "method", "value"])
            for i, v in zip(indices, values):
                writer.writerow([int(i), method, _fmt(v)])
    elif fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "method": method,
            "entries": [{"index": int(i), "value": float(v)} for i, v in zip(indices, values)],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r}")


def summary_to_dict(summary: NearBoundarySummary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": summary.threshold,
        "sample_size": summary.sample_size,
        "subset_size": summary.subset_size,
        "indices": list(summary.indices),
        "mean_product_rank": summary.mean_product_rank,
        "mean_mahalanobis_rank": summary.mean_mahalanobis_rank,
    }


def emit_results(result, fmt: str, path) -> None:
    """Write any supported result object to disk in the chosen format."""
    if isinstance(result, SampleSet):
        if fmt != "csv":
            raise DataError("samples are emitted as CSV")
        save_sample_csv(result, path)
    elif isinstance(result, RankTable):
        save_rank_table(result, path, fmt)
    elif isinstance(result, ContourGrid):
        save_contour(result, path, fmt)
    elif isinstance(result, PropertyReport):
        save_report(result, path, fmt)
    elif isinstance(result, NearBoundarySummary):
        if fmt != "json":
            raise DataError("near-boundary summaries are emitted as JSON")
        Path(path).write_text(json.dumps(summary_to_dict(result), indent=2) + "\n")
    else:
        raise DataError(f"cannot emit object of type {type(result).__name__}")
