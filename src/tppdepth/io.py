"""CSV and JSON ingestion/emission.

Samples are plain CSV matrices, one realization per row, event-time
columns only; the start time travels out-of-band (a flag or argument)
because it is shared by the whole dataset. CSV floats are written with 17
significant digits and JSON floats as their ``repr``, so files round-trip
bit for bit.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import ContourGrid, NearBoundarySummary, PropertyReport, RankTable
from .depth import BLOCK_ROWS, BREAKDOWN_FIELDS, PARAM_FIELDS, DepthParams
from .errors import DataError
from .sequences import EventTimeError, SampleSet

SCHEMA_VERSION = 1
# Generator settings a config file may hold, each with its conversion.
_SIM_SETTINGS = {
    "kind": str,
    "rates": lambda rates: tuple(float(r) for r in rates),
    "k": int,
    "n": int,
    "start": float,
    "seed": int,
}


def _cells(column) -> list:
    # Cells of a float array carry 17 significant digits; any other cell is
    # written as the csv module writes it (str).
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    return [format(v, ".17g") for v in values] if column.dtype.kind == "f" else values


def _write(path, fmt: str, header=None, columns=(), document=None) -> None:
    """Write one output file; the only code that knows the file formats.

    ``csv``: the ``header`` row (none when it is ``None``), then one row
    per entry of the equal-length ``columns``, in the csv module's default
    dialect (``\\r\\n`` line ends); see :func:`_cells`. Rows are written in
    blocks of ``BLOCK_ROWS``, which bounds the text held at once.
    ``json``: ``schema_version``, then the fields that ``document()``
    returns, indented by 2, with a trailing newline; ``document`` is called
    only for this format.
    """
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            if header is not None:
                writer.writerow(header)
            for lo in range(0, len(columns[0]), BLOCK_ROWS):
                writer.writerows(zip(*(_cells(c[lo:lo + BLOCK_ROWS]) for c in columns)))
    elif fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, **document()}
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r}")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, t0: float = 0.0) -> SampleSet:
    """Read a sample from CSV.

    Blank lines are skipped, and a first row in which no cell is a number
    is a header. This function only parses cells: :class:`SampleSet`
    checks the event times, and its errors are reported here with the
    file's own line number and the column.
    """
    path = Path(path)
    rows, lines, header = [], [], False
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for cells in reader:
            if not any(cell.strip() for cell in cells):
                continue
            line = reader.line_num
            if rows and len(cells) != len(rows[0]):
                raise DataError(
                    f"{path}: row at line {line} has {len(cells)} columns, expected {len(rows[0])}"
                )
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError:
                numeric = [_is_number(cell) for cell in cells]
                if not (rows or header or any(numeric)):
                    header = True
                    continue
                col = numeric.index(False)
                raise DataError(
                    f"{path}: row at line {line}, column {col + 1}: {cells[col]!r} is not a number"
                ) from None
            lines.append(line)
    if not rows:
        raise DataError(f"{path}: no data rows" + (" after the header" if header else ""))
    try:
        return SampleSet(t0, rows)
    except EventTimeError as exc:
        raise DataError(f"{path}: row at line {lines[exc.row]}, column {exc.column}: {exc.reason}") from None


def save_sample_csv(sample: SampleSet, path) -> None:
    """Write the sample matrix as headerless CSV (one realization per row)."""
    _write(path, "csv", columns=list(sample.times.T))


def _read_json(path) -> dict:
    # A JSON object with a schema_version (if any) that this version reads.
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise DataError(f"{path}: schema_version {version!r} is newer than {SCHEMA_VERSION} or not a number")
    return doc


def load_sim_config_json(path) -> dict:
    """Read generator settings from JSON: kind, rates, k, n, start, seed."""
    doc = _read_json(path)
    unknown = set(doc) - {*_SIM_SETTINGS, "schema_version"}
    if unknown:
        raise DataError(f"{path}: unknown generator settings {sorted(unknown)}")
    try:
        return {key: convert(doc[key]) for key, convert in _SIM_SETTINGS.items() if key in doc}
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad generator setting ({exc})") from None


def save_params_json(params: DepthParams, path, baseline: tuple | None = None) -> None:
    """Write fitted parameters (and, optionally, the baseline moments)."""

    def document():
        doc = dict(vars(params))
        if baseline is not None:
            mean, cov = baseline
            doc["mahalanobis_mean"] = np.asarray(mean, dtype=float).reshape(-1).tolist()
            doc["mahalanobis_cov"] = np.asarray(cov, dtype=float).tolist()
        return doc

    _write(path, "json", document=document)


def load_params_json(path) -> tuple[DepthParams, tuple | None]:
    """Read fitted parameters; returns (params, baseline-or-None)."""
    doc = _read_json(path)
    try:
        params = DepthParams(**{field: doc[field] for field in ("k", *PARAM_FIELDS)})
        baseline = None
        if "mahalanobis_mean" in doc and "mahalanobis_cov" in doc:
            baseline = (
                np.asarray(doc["mahalanobis_mean"], dtype=float),
                np.asarray(doc["mahalanobis_cov"], dtype=float),
            )
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad parameters ({exc})") from None
    return params, baseline


def save_rank_table(table: RankTable, path, fmt: str = "csv") -> None:
    order = table.order
    columns = [order, table.depths[order], table.ranks[order], [table.method] * order.size]
    _write(path, fmt, ["index", "depth", "rank", "method"], columns, lambda: {
        "method": table.method,
        "entries": [{"index": i, "depth": d, "rank": r}
                    for i, d, r in zip(*(c.tolist() for c in columns[:3]))],
    })


def save_contour(grid: ContourGrid, path, fmt: str = "csv") -> None:
    """Write a contour grid: long form in CSV (one node per row), axes and
    the value matrix in JSON."""
    axis1, axis2, values = (np.asarray(a, dtype=float) for a in (grid.axis1, grid.axis2, grid.values))
    columns = [np.repeat(axis1, axis2.size), np.tile(axis2, axis1.size), [grid.method] * values.size,
               values.ravel()]
    _write(path, fmt, ["s1", "s2", "method", "value"], columns, lambda: {
        "method": grid.method, "axis1": axis1.tolist(), "axis2": axis2.tolist(), "values": values.tolist(),
    })


def save_report(report: PropertyReport, path, fmt: str = "json") -> None:
    fields = ("name", "trials", "violations", "worst_margin")
    names, trials, violations, margins = ([getattr(c, f) for c in report.checks] for f in fields)
    _write(path, fmt, fields, [names, trials, violations, np.array(margins, dtype=float)], lambda: {
        "seed": report.seed, "trials": report.trials, "rays": report.rays, "passed": report.passed,
        "properties": [{f: getattr(c, f) for f in fields} for c in report.checks],
    })


def save_breakdowns(columns: dict, path, fmt: str = "csv") -> None:
    """Write per-realization depth decompositions, indexed by row.

    ``columns`` maps each name in ``BREAKDOWN_FIELDS``, and optionally
    ``baseline_mahalanobis``, to one value per realization (as returned by
    :func:`tppdepth.analysis.depth_breakdown`). Without a baseline the CSV
    has no ``baseline_mahalanobis`` column and the JSON holds ``null``.
    """
    names = [name for name in (*BREAKDOWN_FIELDS, "baseline_mahalanobis") if name in columns]
    values = [np.asarray(columns[name], dtype=float) for name in names]
    index = np.arange(len(values[0]))
    _write(path, fmt, ["index", *names], [index, *values], lambda: {"entries": [
        {"index": i, **entry, "baseline_mahalanobis": entry.get("baseline_mahalanobis")}
        for i, entry in enumerate(dict(zip(names, row)) for row in zip(*(v.tolist() for v in values)))
    ]})


def save_values(indices, values, method: str, path, fmt: str = "csv") -> None:
    """Write a plain per-realization value table for one method."""
    index = np.array([int(i) for i in indices])
    values = np.asarray(values, dtype=float)
    _write(path, fmt, ["index", "method", "value"], [index, [method] * index.size, values], lambda: {
        "method": method,
        "entries": [{"index": i, "value": v} for i, v in zip(index.tolist(), values.tolist())],
    })


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
