"""CSV and JSON ingestion/emission.

Samples are plain CSV matrices, one realization per row, event-time
columns only; the start time travels out-of-band (an argument, or the
params file) because it is shared by the whole dataset. CSV floats are
written with 17 significant digits (exactly Python's ``'%.17g'``) and JSON
floats as their ``repr``, so files round-trip bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from contextlib import contextmanager
from io import StringIO
from pathlib import Path

import numpy as np

from .analysis import ContourGrid, NearBoundarySummary, PropertyReport, RankTable
from .depth import BLOCK_ROWS, BREAKDOWN_FIELDS, DepthParams
from .errors import DataError, is_integer, is_number, shown
from .sequences import EventTimeError, SampleSet

SCHEMA_VERSION = 1
# Params files are at version 2, which stores the horizon; version 1 held
# it only as big_m = start + horizon, which cannot always give it back.
PARAMS_SCHEMA_VERSION = 2
# Params file keys in written order: the fitted fields plus the derived k,
# eta, big_m and center, kept as checked redundancy.
_PARAMS_KEYS = ("k", "start", "mu_last", "var_last", "u_bar", "horizon", "eta", "big_m", "center")
_BASELINE_KEYS = ("mahalanobis_mean", "mahalanobis_cov")


def _numbers(value) -> bool:
    return isinstance(value, list) and all(map(is_number, value))


# The JSON type of each generator setting and params key: what it must be,
# a test of it, and the conversion. JSON true and false load as bool, which
# no number test accepts.
_NUMBER = ("a number", is_number, float)
_INTEGER = ("an integer", is_integer, int)
_NUMBERS = ("a list of numbers", _numbers, lambda v: tuple(map(float, v)))
_SIM_SETTINGS = {
    "kind": ("a string", lambda v: isinstance(v, str), str),
    "rates": _NUMBERS,
    "k": _INTEGER,
    "n": _INTEGER,
    "start": _NUMBER,
    "seed": _INTEGER,
}
_PARAMS_TYPES = {
    **dict.fromkeys(("start", "mu_last", "var_last", "horizon", "eta", "big_m"), _NUMBER),
    "k": _INTEGER,
    **dict.fromkeys(("u_bar", "center", "mahalanobis_mean"), _NUMBERS),
    "mahalanobis_cov": ("a list of equal-length lists of numbers",
                        lambda v: isinstance(v, list) and all(map(_numbers, v)),
                        lambda v: np.array(v, dtype=float)),
}


def _csv_row(cells) -> bytes:
    # One row as the csv module's default dialect writes it, as UTF-8.
    buffer = StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue().encode()


def json_text(doc: dict, indent: int | None = None) -> str:
    """``doc`` as standard JSON: a NaN or infinite float is written as ``null``."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:  # parse the non-finite constants back as None
        return json_text(json.loads(json.dumps(doc), parse_constant=lambda _: None), indent)


def _write(path, fmt: str, header=None, columns=(), document=None, version: int = SCHEMA_VERSION) -> None:
    """Write one output file; the only code that knows the file formats.

    A table is the ``header`` names beside ``columns``: equal-length
    numeric arrays, a ``str`` label (the same on every row), or ``None``
    for a column that is absent from the CSV, header name included.
    ``csv``: the header row (none when it is ``None``), then one row per
    entry, in the csv module's default dialect (``\\r\\n`` line ends):
    floats exactly as ``'%.17g' % v``, integers as ``'%d' % i``, and the
    label as the csv module quotes it; the header and each label pass
    through ``csv.writer`` once. The cells of each ``BLOCK_ROWS`` rows are
    spelled by numpy (:mod:`tppdepth.csvtext`; Python formats only the
    float cells it cannot certify) into byte matrices, joined with ``,``
    and ``\\r\\n`` and compacted into one ``bytes``, which bounds the text
    held at once. Both formats are written in binary, as UTF-8 text.
    ``json``: ``schema_version`` (``version``), each label under its name,
    then ``entries``: one object per row, keyed by the numeric names
    (``null`` for a ``None`` column); or, given ``document``, the fields
    it returns. Indented by 2, with a trailing newline (:func:`json_text`).
    """
    path = Path(path)
    if fmt == "csv":
        from .csvtext import csv_block  # loaded on the first CSV write, not by importing tppdepth

        names = None if header is None else [name for name, c in zip(header, columns) if c is not None]
        columns = [c for c in columns if c is not None]
        with path.open("wb") as handle:
            if names is not None:
                handle.write(_csv_row(names))
            # A label cell: the row (label, None), quoted as in a table, less its ",\r\n".
            columns = [_csv_row([c, None])[:-3] if isinstance(c, str)
                       else c.astype(np.int64, casting="safe", copy=False) if c.dtype.kind in "iu"
                       else c.astype(float, copy=False) for c in columns]
            rows = len(next(c for c in columns if not isinstance(c, bytes)))
            for lo in range(0, rows, BLOCK_ROWS):
                handle.write(csv_block(columns, slice(lo, lo + BLOCK_ROWS)))
    elif fmt == "json":
        if document is None:
            doc = {name: c for name, c in zip(header, columns) if isinstance(c, str)}
            numeric = {name: itertools.repeat(None) if c is None else c.tolist()
                       for name, c in zip(header, columns) if not isinstance(c, str)}
            doc["entries"] = [dict(zip(numeric, row)) for row in zip(*numeric.values())]
        else:
            doc = document()
        path.write_bytes((json_text({"schema_version": version, **doc}, indent=2) + "\n").encode())
    else:
        raise DataError(f"unknown format {fmt!r}")


def _lines(handle, path):
    # The lines of a text file; a byte that is not UTF-8 is a DataError.
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_matrix(path: Path) -> np.ndarray:
    # The sample matrix by numpy's C parser, after the header rule of
    # load_csv. Raises ValueError (or loadtxt's empty-input UserWarning) on
    # any file it might not read as the row parser does: a quote in the
    # first row, and whatever loadtxt refuses. Only the lines up to the
    # first that is not blank are read here; given the path as a str,
    # loadtxt opens the file itself and reads it in chunks.
    with path.open(newline="", encoding="utf-8") as handle:
        for skip, line in enumerate(handle):
            cells = line.split(",")
            if any(cell.strip() for cell in cells):
                break
        else:
            raise ValueError("no data rows")
    if '"' in line:
        raise ValueError("a quoted first row")
    if not any(map(_is_number, cells)):
        skip += 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return np.loadtxt(str(path), delimiter=",", comments=None, skiprows=skip, ndmin=2, dtype=float,
                          encoding="utf-8")


def _load_csv_rows(path: Path, t0: float, name=None) -> SampleSet:
    # The row parser: the csv module and float() cell by cell. It reads what
    # the C parser refuses (such as 1_000 or quoted cells) and names the
    # file's line and column of every error; ``name`` is the file its
    # messages name (``path`` itself by default).
    name = path if name is None else name
    rows, lines, header = [], [], False
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(_lines(handle, name))
        for cells in reader:
            if not any(cell.strip() for cell in cells):
                continue
            line = reader.line_num
            if rows and len(cells) != len(rows[0]):
                raise DataError(
                    f"{name}: row at line {line} has {len(cells)} columns, expected {len(rows[0])}"
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
                    f"{name}: row at line {line}, column {col + 1}: {cells[col]!r} is not a number"
                ) from None
            lines.append(line)
    if not rows:
        raise DataError(f"{name}: no data rows" + (" after the header" if header else ""))
    try:
        return SampleSet(t0, rows)
    except EventTimeError as exc:
        raise DataError(f"{name}: row at line {lines[exc.row]}, column {exc.column}: {exc.reason}") from None


# Suffixes that numpy's DataSource, which loadtxt opens a str path with,
# decompresses by.
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@contextmanager
def _plain_file(path: Path):
    # ``path``, or a temporary copy of it when it cannot be opened again as
    # the same plain text: anything but a regular file (a pipe, a FIFO) is
    # read once, and numpy would decompress a file by its suffix.
    if path.suffix not in _DECOMPRESSED and path.is_file():
        yield path
        return
    with path.open("rb") as source:
        import shutil  # imported for a copy only, as csvtext for a CSV write only
        import tempfile

        with tempfile.NamedTemporaryFile(suffix=".csv") as copy:
            shutil.copyfileobj(source, copy)
            copy.flush()
            yield Path(copy.name)


def load_csv(path, t0: float = 0.0) -> SampleSet:
    """Read a sample from CSV.

    Blank lines are skipped, and a first row in which no cell is a number
    is a header. numpy's C parser reads the matrix: the lines up to the
    first that is not blank are read to apply the header rule, and
    ``np.loadtxt`` then opens the file by name and reads it in chunks,
    which takes about 8 % less time than handing it one line at a time.
    When it refuses the file, or :class:`SampleSet` rejects the event
    times, the row parser reads the file again: it accepts what
    ``float()`` accepts, and its errors (text that is not UTF-8 too) name
    the file's line and column. Input that is not a regular file (a pipe,
    a FIFO), or whose name ends in a suffix numpy decompresses by (``.gz``,
    ``.bz2``, ``.xz``, ``.lzma``), is first copied once, in blocks, to a
    temporary file that both parsers read; messages still name ``path``.
    """
    path = Path(path)
    with _plain_file(path) as source:
        try:
            return SampleSet(t0, _read_matrix(source))
        except (ValueError, UserWarning):
            return _load_csv_rows(source, t0, path)


def save_sample_csv(sample: SampleSet, path) -> None:
    """Write the sample matrix as headerless CSV (one realization per row)."""
    _write(path, "csv", columns=list(sample.times.T))


def _read_json(path, newest: int) -> dict:
    # A JSON object with a schema_version (if any) of at most ``newest``.
    with open(path, encoding="utf-8") as handle:
        text = "".join(_lines(handle, path))
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, or JSON beyond Python's limits on int() and nesting
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    version = doc.get("schema_version", newest)
    if not is_integer(version) or version > newest:
        raise DataError(f"{path}: schema_version {shown(version)} is newer than {newest} or not a number")
    return doc


def _read_typed(path, types: dict, what: str, newest: int = SCHEMA_VERSION) -> dict:
    # A JSON object whose keys (schema_version aside) are in ``types``, each
    # value checked against its JSON type and converted; ``what`` is what the
    # error messages call a key.
    doc = _read_json(path, newest)
    doc.pop("schema_version", None)
    unknown = set(doc) - set(types)
    if unknown:
        raise DataError(f"{path}: unknown {what}s {sorted(unknown)}")
    return {key: _typed(path, what, key, value, *types[key]) for key, value in doc.items()}


def _typed(path, what: str, key: str, value, expected: str, valid, convert):
    try:
        if valid(value):
            return convert(value)
    except (OverflowError, ValueError):  # an integer too large for a float, a ragged matrix
        pass
    raise DataError(f"{path}: {what} {key!r} must be {expected}, got {shown(value)}")


def load_sim_config_json(path) -> dict:
    """Read generator settings from JSON: ``kind`` (a string), ``rates`` (a
    list of numbers), ``k``, ``n`` and ``seed`` (integers, or floats with an
    integer value such as ``1e5``) and ``start`` (a number)."""
    return _read_typed(path, _SIM_SETTINGS, "generator setting")


def save_params_json(params: DepthParams, path, baseline: tuple | None = None) -> None:
    """Write fitted parameters (and, optionally, the baseline moments)."""

    def document():
        doc = {key: getattr(params, key) for key in _PARAMS_KEYS}
        if baseline is not None:
            mean, cov = baseline
            doc["mahalanobis_mean"] = np.asarray(mean, dtype=float).reshape(-1).tolist()
            doc["mahalanobis_cov"] = np.asarray(cov, dtype=float).tolist()
        return doc

    _write(path, "json", document=document, version=PARAMS_SCHEMA_VERSION)


def load_params_json(path) -> tuple[DepthParams, tuple | None]:
    """Read fitted parameters; returns (params, baseline-or-None).

    The file holds the keys ``save_params_json`` writes, the baseline pair
    optional (but not half of it), and perhaps ``schema_version``, each
    of its JSON type (``_PARAMS_TYPES``). The horizon is the stored
    ``horizon``; a version 1 file has none, and there it is ``mu_last`` if
    ``big_m == start + mu_last``, else ``big_m - start``. The stored
    ``k``, ``eta``, ``big_m`` and ``center`` must match the fitted fields,
    and a baseline must be a k-vector beside a (k, k) covariance.
    """
    doc = _read_typed(path, _PARAMS_TYPES, "params key", PARAMS_SCHEMA_VERSION)
    try:
        start, mu_last, big_m = (doc[key] for key in ("start", "mu_last", "big_m"))
        horizon = doc.get("horizon", mu_last if big_m == start + mu_last else big_m - start)
        params = DepthParams(start, mu_last, doc["var_last"], doc["u_bar"], horizon)
        if doc["k"] != params.k:
            raise DataError(f"k is {doc['k']!r}, but u_bar has {params.k} entries")
        tol = 1e-9 * max(1.0, abs(params.start) + params.mu_last)
        if not abs(doc["eta"] - params.eta) <= tol:
            raise DataError("eta must equal start + mu_last (the marginal depth peaks at the mean)")
        if not abs(big_m - params.big_m) <= 1e-9 * max(1.0, abs(params.start) + params.horizon):
            raise DataError("big_m must equal start + horizon")
        center = doc["center"]
        if len(center) != params.k or not all(abs(c - e) <= tol for c, e in zip(center, params.center)):
            raise DataError("center is inconsistent with start, mu_last and u_bar")
        baseline = None
        if not doc.keys().isdisjoint(_BASELINE_KEYS):
            baseline = mean, cov = tuple(np.asarray(doc[key], dtype=float) for key in _BASELINE_KEYS)
            if mean.shape != (params.k,) or cov.shape != (params.k, params.k):
                raise DataError(f"the baseline needs a mean of {params.k} entries and a {params.k}x{params.k} "
                                f"covariance, got mean shape {mean.shape} and covariance shape {cov.shape}")
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except DataError as exc:
        raise DataError(f"{path}: bad parameters ({exc})") from None
    return params, baseline


def save_rank_table(table: RankTable, path, fmt: str = "csv") -> None:
    order = table.order
    _write(path, fmt, ["index", "depth", "rank", "method"],
           [order, table.depths[order], table.ranks[order], table.method])


def save_contour(grid: ContourGrid, path, fmt: str = "csv") -> None:
    """Write a contour grid: long form in CSV (one node per row), axes and
    the value matrix in JSON."""
    axis1, axis2, values = (np.asarray(a, dtype=float) for a in (grid.axis1, grid.axis2, grid.values))
    columns = [np.repeat(axis1, axis2.size), np.tile(axis2, axis1.size), grid.method, values.ravel()]
    _write(path, fmt, ["s1", "s2", "method", "value"], columns, lambda: {
        "method": grid.method, "axis1": axis1.tolist(), "axis2": axis2.tolist(), "values": values.tolist(),
    })


def save_report(report: PropertyReport, path) -> None:
    """Write the verify report as JSON, one entry per checked property."""
    fields = ("name", "trials", "violations", "worst_margin")
    _write(path, "json", document=lambda: {
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
    names = ["index", *BREAKDOWN_FIELDS, "baseline_mahalanobis"]
    values = [None if columns.get(name) is None else np.asarray(columns[name], dtype=float) for name in names[1:]]
    _write(path, fmt, names, [np.arange(len(values[0])), *values])


def save_values(values, method: str, path, fmt: str = "csv") -> None:
    """Write a plain per-realization value table for one method, indexed by row."""
    values = np.asarray(values, dtype=float)
    _write(path, fmt, ["index", "method", "value"], [np.arange(len(values)), method, values])


def summary_to_dict(summary: NearBoundarySummary) -> dict:
    fields = ("threshold", "sample_size", "subset_size", "indices", "mean_product_rank", "mean_mahalanobis_rank")
    return {"schema_version": SCHEMA_VERSION, **{f: getattr(summary, f) for f in fields},
            "indices": summary.indices.tolist()}
