import csv
import gzip
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tppdepth import (
    DataError,
    DepthParams,
    SampleSet,
    SimConfig,
    fit_mahalanobis,
    fit_params,
    load_csv,
    load_params_json,
    near_boundary_comparison,
    rank,
    save_params_json,
    save_sample_csv,
    simulate,
    verify_properties,
)
from tppdepth.analysis import (
    ContourGrid,
    PropertyCheck,
    PropertyReport,
    RankTable,
    contour_grid,
)
from tppdepth.depth import BLOCK_ROWS
from tppdepth.io import (
    _load_csv_rows,
    _read_matrix,
    _write,
    json_text,
    save_breakdowns,
    save_contour,
    save_rank_table,
    save_report,
    save_values,
    summary_to_dict,
)


@pytest.fixture
def sample():
    return simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=25, seed=8))


def _strict_json(text):
    # json.loads, refusing the NaN and Infinity constants standard JSON lacks.
    def refuse(constant):
        raise ValueError(f"not standard JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestJsonText:
    def test_finite_document_keeps_its_bytes(self):
        doc = {"a": [0.1, -0.0, 1e308, 5e-324, np.float64(1 / 3)], "b": {"c": (1, 2)}, "d": "NaN"}
        for indent in (None, 2):
            assert json_text(doc, indent) == json.dumps(doc, indent=indent)

    def test_nonfinite_floats_are_null(self):
        doc = {"a": [math.nan, 1.5, -math.inf], "b": {"c": [[math.inf]]}, "d": "NaN", "e": np.float64("nan")}
        assert json_text(doc) == '{"a": [null, 1.5, null], "b": {"c": [[null]]}, "d": "NaN", "e": null}'

    def test_report_with_nonfinite_margins(self, tmp_path):
        path = tmp_path / "report.json"
        checks = (PropertyCheck("P3", 3, 3, math.nan), PropertyCheck("P4", 3, 0, -math.inf),
                  PropertyCheck("P2", 3, 0, -0.5))
        save_report(PropertyReport(seed=1, trials=3, rays=2, checks=checks), path)
        doc = _strict_json(path.read_text())
        assert [c["worst_margin"] for c in doc["properties"]] == [None, None, -0.5]


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,6\n")
        sample = load_csv(path, t0=0.0)
        assert sample.n == 2
        assert sample.k == 2
        np.testing.assert_array_equal(sample.times, [[1.0, 2.0], [3.0, 6.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1,s2\n1,2\n3,6\n")
        assert load_csv(path).n == 2

    def test_monotonicity_error_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n2,1\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_error_names_file_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n\n\n2,1\n")
        with pytest.raises(DataError, match="line 4, column 2"):
            load_csv(path)

    def test_t0_checked(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n")
        with pytest.raises(DataError, match="t0"):
            load_csv(path, t0=1.5)

    def test_mixed_width_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(DataError, match="columns"):
            load_csv(path)

    def test_parse_error_locates_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n1,x\n")
        with pytest.raises(DataError, match="line 2, column 2"):
            load_csv(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,inf\n")
        with pytest.raises(DataError, match="finite"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")


# Exact messages of load_csv for malformed files, recorded before numpy's
# parser was added; "{path}" stands for the file.
MALFORMED_CSV = [
    ("mixed-first-row", "0.5,abc\n1,2\n3,6\n", 0.0, "{path}: row at line 1, column 2: 'abc' is not a number"),
    ("text-then-number-first-row", "abc,0.5\n1,2\n", 0.0, "{path}: row at line 1, column 1: 'abc' is not a number"),
    ("quoted-first-row", '"1",x\n2,3\n', 0.0, "{path}: row at line 1, column 2: 'x' is not a number"),
    ("ragged-row", "1,2\n3,4\n5,6,7\n", 0.0, "{path}: row at line 3 has 3 columns, expected 2"),
    ("ragged-row-cr", "1,2\r3\r", 0.0, "{path}: row at line 2 has 1 columns, expected 2"),
    ("empty-cell", "1,2\n3,\n", 0.0, "{path}: row at line 2, column 2: '' is not a number"),
    ("trailing-comma", "1,2,\n3,4,\n", 0.0, "{path}: row at line 1, column 3: '' is not a number"),
    ("quoted-cell", '1,2\n"3,4",5\n', 0.0, "{path}: row at line 2, column 1: '3,4' is not a number"),
    ("underscore", "1_000,2\n", 0.0,
     "{path}: row at line 1, column 2: event time 2.0 precedes the previous event 1000.0"),
    ("whitespace-line", "1,2\n   \n2,1\n", 0.0,
     "{path}: row at line 3, column 2: event time 1.0 precedes the previous event 2.0"),
    ("nan", "1,2\n1,nan\n", 0.0, "{path}: row at line 2, column 2: value is not finite"),
    ("decreasing-crlf", "1,2\r\n\r\n2,1\r\n", 0.0,
     "{path}: row at line 3, column 2: event time 1.0 precedes the previous event 2.0"),
    ("before-t0", "s1,s2\n2,3\n1,2\n", 1.5, "{path}: row at line 3, column 1: first event 1.0 precedes the start t0=1.5"),
    ("header-only", "s1,s2\n\n", 0.0, "{path}: no data rows after the header"),
    ("open-quote", '"1,2\n3,4\n', 0.0, "{path}: no data rows after the header"),
    ("blank-only", "\n \n,\n", 0.0, "{path}: no data rows"),
    ("empty", "", 0.0, "{path}: no data rows"),
]

# Files numpy's parser refuses but the row parser reads, as it always has.
ROW_PARSER_ONLY = [
    ("1_000,2_000\n", [[1000.0, 2000.0]]),
    ('"1","2"\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
    ('"s1","s2"\n1,2\n', [[1.0, 2.0]]),
    ("1,2\n   \n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("١,٢\n", [[1.0, 2.0]]),
]


@st.composite
def csv_texts(draw):
    """Text of a valid sample file for the start time -1."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-1.0, 1e300), min_size=n * k, max_size=n * k))
    times = np.sort(np.array(values).reshape(n, k), axis=1)
    text_of = draw(st.sampled_from(["%.17g", "%r", "%.6g", "%.3e"]))
    left, right = draw(st.sampled_from(["", " ", "  "])), draw(st.sampled_from(["", " ", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(left + text_of % v + right for v in row) for row in times.tolist()]
    for at in draw(st.lists(st.integers(0, n), max_size=3)):
        lines.insert(at, "")
    if draw(st.booleans()):
        leading_blanks = next(i for i, line in enumerate(lines) if line)
        lines.insert(draw(st.integers(0, leading_blanks)), ",".join(f"s{j}" for j in range(1, k + 1)))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestCsvReader:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_fast_reader_matches_row_parser(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        fast = _read_matrix(path)
        slow = _load_csv_rows(path, -1.0).times
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()
        assert load_csv(path, t0=-1.0).times.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("text, t0, expected", [case[1:] for case in MALFORMED_CSV],
                             ids=[case[0] for case in MALFORMED_CSV])
    def test_error_messages_unchanged(self, tmp_path, recwarn, text, t0, expected):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as info:
            load_csv(path, t0=t0)
        assert str(info.value) == expected.replace("{path}", str(path))
        assert not recwarn.list  # the error is the only output

    @pytest.mark.parametrize("text, expected", ROW_PARSER_ONLY)
    def test_row_parser_reads_what_numpy_refuses(self, tmp_path, text, expected):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError):
            _read_matrix(path)
        np.testing.assert_array_equal(load_csv(path).times, expected)


def _piped(text: str):
    # The read end of a pipe that holds ``text``, closed at its write end.
    read, write = os.pipe()
    os.write(write, text.encode())
    os.close(write)
    return read


def _child_env(**extra) -> dict:
    # The environment of a fresh Python process that imports this tppdepth.
    package_root = str(Path(sys.modules["tppdepth"].__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]), **extra}


# A FIFO given to load_csv in a fresh process while a thread writes text
# into it once: the process prints the loaded matrix, or the error line.
FIFO_SCRIPT = """
import sys, threading
from tppdepth import DataError, load_csv

fifo, text = sys.argv[1:]

def feed():
    with open(fifo, "w", newline="") as handle:
        handle.write(text)

threading.Thread(target=feed, daemon=True).start()
try:
    print(load_csv(fifo).times.tolist())
except DataError as exc:
    print(exc)
"""


class TestStreamAndSuffixInputs:
    """Inputs that cannot be opened again as the same plain text."""

    @pytest.mark.parametrize("text, expected", ROW_PARSER_ONLY)
    def test_pipe_read_by_the_row_parser(self, text, expected):
        read = _piped(text)
        try:
            np.testing.assert_array_equal(load_csv(f"/dev/fd/{read}").times, expected)
        finally:
            os.close(read)

    @pytest.mark.parametrize("case", ["mixed-first-row", "underscore"])
    def test_pipe_error_names_line_and_column(self, case):
        _, text, t0, expected = next(c for c in MALFORMED_CSV if c[0] == case)
        read = _piped(text)
        try:
            with pytest.raises(DataError) as info:
                load_csv(f"/dev/fd/{read}", t0=t0)
        finally:
            os.close(read)
        assert str(info.value) == expected.replace("{path}", f"/dev/fd/{read}")

    def test_pipe_read_by_numpy(self, tmp_path, sample):
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        read = _piped(path.read_text())
        try:
            assert load_csv(f"/dev/fd/{read}", t0=sample.start).times.tobytes() == sample.times.tobytes()
        finally:
            os.close(read)

    @pytest.mark.parametrize("text, expected", [
        ('"1","2"\n3,4\n', "[[1.0, 2.0], [3.0, 4.0]]"),
        ("0.5,abc\n1,2\n", "{path}: row at line 1, column 2: 'abc' is not a number"),
    ])
    def test_fifo_is_read_once(self, tmp_path, text, expected):
        fifo = tmp_path / "sample.csv"
        os.mkfifo(fifo)
        # A second open of the FIFO would wait for a writer forever.
        done = subprocess.run([sys.executable, "-c", FIFO_SCRIPT, str(fifo), text], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected.replace("{path}", str(fifo)) + "\n", "")

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    @pytest.mark.parametrize("header", ["", "s1,s2\r\n"])
    def test_compressed_suffix_is_plain_text(self, tmp_path, sample, suffix, header):
        twin = tmp_path / "s.csv"
        save_sample_csv(sample, twin)
        twin.write_bytes(header.encode() + twin.read_bytes())
        path = tmp_path / f"s.csv{suffix}"
        path.write_bytes(twin.read_bytes())
        assert load_csv(path, t0=sample.start).times.tobytes() == load_csv(twin, t0=sample.start).times.tobytes()

    def test_gzip_file_is_not_text(self, tmp_path):
        path = tmp_path / "s.csv.gz"
        path.write_bytes(gzip.compress(b"1,2\n3,4\n"))
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte 0x8b: invalid start byte)"


class TestSampleRoundTrip:
    def test_bit_for_bit(self, tmp_path, sample):
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        loaded = load_csv(path, t0=sample.start)
        assert np.array_equal(loaded.times, sample.times)

    def test_headerless_row_count(self, tmp_path, sample):
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == sample.n

    def test_save_sample_csv_loads_back(self, tmp_path, sample):
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        assert load_csv(path, t0=sample.start).n == sample.n


class TestParamsJson:
    def test_round_trip_exact(self, tmp_path, sample):
        params = fit_params(sample)
        path = tmp_path / "params.json"
        save_params_json(params, path)
        loaded, baseline = load_params_json(path)
        assert loaded == params
        assert baseline is None

    @pytest.mark.parametrize("start", [0.0, 1.5, 1e6, 1.7e9])
    def test_stored_big_m_gives_horizon(self, tmp_path, start):
        # The file stores big_m = start + horizon. The default horizon is
        # mu_last itself, though at a large start big_m - start is not.
        path = tmp_path / "params.json"
        default = DepthParams(start=start, mu_last=1.3, var_last=0.2, u_bar=(0.4, 0.6))
        save_params_json(default, path)
        text = path.read_text()
        assert json.loads(text)["big_m"] == start + 1.3
        loaded, _ = load_params_json(path)
        assert loaded == default and loaded.horizon == 1.3
        save_params_json(loaded, path)
        assert path.read_text() == text
        save_params_json(replace(default, horizon=4.0), path)
        assert load_params_json(path)[0].horizon == (start + 4.0) - start

    def test_round_trip_with_baseline(self, tmp_path, sample):
        params = fit_params(sample)
        baseline = fit_mahalanobis(sample)
        path = tmp_path / "params.json"
        save_params_json(params, path, baseline=baseline)
        loaded, loaded_baseline = load_params_json(path)
        assert loaded == params
        np.testing.assert_array_equal(loaded_baseline[0], baseline[0])
        np.testing.assert_array_equal(loaded_baseline[1], baseline[1])

    def test_schema_fields(self, tmp_path, sample):
        params = fit_params(sample)
        path = tmp_path / "params.json"
        save_params_json(params, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2
        for field in ("k", "start", "mu_last", "var_last", "u_bar", "horizon", "eta", "big_m", "center"):
            assert field in doc

    def test_horizon_round_trips_exactly(self, tmp_path):
        # Version 1 stored only big_m = start + horizon; big_m - start gave
        # the horizon back an ulp off in 427 of these 1000 cases.
        rng = np.random.default_rng(11)
        path = tmp_path / "params.json"
        for start, horizon in zip(rng.uniform(-10, 10, 1000), rng.uniform(0.1, 5, 1000)):
            params = DepthParams(start=start, mu_last=1.3, var_last=0.2, u_bar=(0.4, 0.6), horizon=horizon)
            save_params_json(params, path)
            assert load_params_json(path)[0] == params

    @pytest.mark.parametrize("start", [0.0, 1.5, 1e6])
    def test_version_1_horizon_from_big_m(self, tmp_path, start):
        # A file without a horizon loads by the version 1 rule.
        path = tmp_path / "params.json"
        save_params_json(DepthParams(start=start, mu_last=1.3, var_last=0.2, u_bar=(0.4, 0.6), horizon=4.0), path)
        doc = json.loads(path.read_text())
        del doc["horizon"]
        path.write_text(json.dumps({**doc, "schema_version": 1}))
        assert load_params_json(path)[0].horizon == (start + 4.0) - start
        path.write_text(json.dumps({**doc, "schema_version": 1, "big_m": start + 1.3}))
        assert load_params_json(path)[0].horizon == 1.3

    @pytest.mark.parametrize("mean, cov, shapes", [
        ([0.5, 2.0], np.eye(3).tolist(), "(2,) and covariance shape (3, 3)"),
        ([0.5, 2.0, 1.0], np.eye(3).tolist(), "(3,) and covariance shape (3, 3)"),
        ([0.5], np.eye(2).tolist(), "(1,) and covariance shape (2, 2)"),
        ([0.5, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "(2,) and covariance shape (2, 3)"),
    ], ids=["cov-3x3", "both-k3", "mean-1", "cov-2x3"])
    def test_baseline_must_match_k(self, tmp_path, mean, cov, shapes):
        # A baseline that does not fit k is the file's fault, found on load.
        path = tmp_path / "params.json"
        save_params_json(DepthParams(start=0.0, mu_last=1.3, var_last=0.2, u_bar=(0.4, 0.6)), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "mahalanobis_mean": mean, "mahalanobis_cov": cov}))
        message = (f"{path}: bad parameters (the baseline needs a mean of 2 entries and a 2x2 covariance, "
                   f"got mean shape {shapes})")
        with pytest.raises(DataError, match=re.escape(message)):
            load_params_json(path)

    def test_big_m_must_match_horizon(self, tmp_path):
        path = tmp_path / "params.json"
        save_params_json(DepthParams(start=1.0, mu_last=1.3, var_last=0.2, u_bar=(0.4, 0.6), horizon=4.0), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "big_m": 6.0}))
        with pytest.raises(DataError, match="big_m must equal start \\+ horizon"):
            load_params_json(path)

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        save_params_json(DepthParams(start=0.0, mu_last=1.3, var_last=0.2, u_bar=(0.4, 0.6)), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "schema_version": 3}))
        with pytest.raises(DataError, match="schema_version 3 is newer than 2"):
            load_params_json(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"schema_version": 1, "k": 2}))
        with pytest.raises(DataError, match="missing field"):
            load_params_json(path)

    @pytest.mark.parametrize("key", ["provenance", "eta_", "baseline"])
    def test_unknown_key_rejected(self, tmp_path, sample, key):
        path = tmp_path / "params.json"
        save_params_json(fit_params(sample), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, key: 1}))
        with pytest.raises(DataError, match=re.escape(f"{path}: unknown params keys ['{key}']")):
            load_params_json(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_params_json(path)


class TestRankTableIO:
    def test_csv_rows_plus_header(self, tmp_path, sample):
        params = fit_params(sample)
        table = rank(sample, params, "product")
        path = tmp_path / "rank.csv"
        save_rank_table(table, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == sample.n + 1
        assert lines[0] == "index,depth,rank,method"

    def test_csv_round_trip(self, tmp_path, sample):
        params = fit_params(sample)
        table = rank(sample, params, "conditional")
        path = tmp_path / "rank.csv"
        save_rank_table(table, path, "csv")
        with path.open(newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["index", "depth", "rank", "method"]
        order = np.array([int(row[0]) for row in rows])
        depths = np.empty(order.size)
        ranks = np.empty(order.size, dtype=int)
        depths[order] = [float(row[1]) for row in rows]
        ranks[order] = [int(row[2]) for row in rows]
        assert {row[3] for row in rows} == {"conditional"}
        assert table.method == "conditional"
        for name, column in (("order", order), ("depths", depths), ("ranks", ranks)):
            assert np.array_equal(column, getattr(table, name)), name

    def test_csv_indices_must_be_a_permutation(self, tmp_path, sample):
        # Tied rows (a zero first gap puts a row on the boundary) still get
        # one line each, so the index column is a permutation of the rows.
        times = np.array(sample.times)
        times[::3, 0] = sample.start
        tied = SampleSet(sample.start, times)
        path = tmp_path / "rank.csv"
        save_rank_table(rank(tied, fit_params(sample), "product"), path, "csv")
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert sorted(int(row[0]) for row in rows) == list(range(tied.n))

    def test_json_shape(self, tmp_path, sample):
        params = fit_params(sample)
        table = rank(sample, params, "marginal")
        path = tmp_path / "rank.json"
        save_rank_table(table, path, "json")
        doc = json.loads(path.read_text())
        assert doc["method"] == "marginal"
        assert len(doc["entries"]) == sample.n


class TestContourIO:
    def test_long_form_csv(self, tmp_path, sample):
        params = fit_params(sample)
        grid = contour_grid(params, "product", (0.0, 2.0), (0.0, 2.0), 5)
        path = tmp_path / "contour.csv"
        save_contour(grid, path, "csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["s1", "s2", "method", "value"]
        assert len(rows) == 1 + 5 * 5
        values = {(float(r[0]), float(r[1])): float(r[3]) for r in rows[1:]}
        assert values[(0.0, 0.0)] == 0.0

    def test_json_round_trip_values(self, tmp_path, sample):
        params = fit_params(sample)
        grid = contour_grid(params, "conditional", (0.0, 2.0), (0.5, 2.5), 7)
        path = tmp_path / "contour.json"
        save_contour(grid, path, "json")
        doc = json.loads(path.read_text())
        np.testing.assert_array_equal(np.array(doc["values"]), grid.values)


class TestReportIO:
    def test_json_one_entry_per_property(self, tmp_path, sample):
        params = fit_params(sample)
        report = verify_properties(params, trials=50, seed=1, rays=5)
        path = tmp_path / "report.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert [p["name"] for p in doc["properties"]] == [c.name for c in report.checks]
        assert len(doc["properties"]) == 8
        assert doc["passed"] is True
        assert doc["schema_version"] == 1


class TestOtherWriters:
    def test_breakdowns_csv(self, tmp_path, sample):
        from tppdepth import depth_breakdown

        params = fit_params(sample)
        breakdowns = depth_breakdown(sample, params)
        path = tmp_path / "breakdowns.csv"
        save_breakdowns(breakdowns, path, "csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "omega", "exponent", "marginal_factor", "conditional", "product"]
        assert len(rows) == sample.n + 1

    def test_values_csv(self, tmp_path):
        path = tmp_path / "values.csv"
        save_values([0.25, 0.5], "marginal", path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,method,value"
        assert lines[1] == "0,marginal,0.25"

    def test_summary_json(self, sample):
        params = fit_params(sample)
        summary = near_boundary_comparison(sample, params, 0.5)
        doc = json.loads(json.dumps(summary_to_dict(summary)))
        assert doc["threshold"] == 0.5
        assert doc["subset_size"] == len(doc["indices"])


class TestSeventeenDigits:
    def test_awkward_floats_survive(self, tmp_path):
        values = [0.1, 1 / 3, math.pi, 2.0000000000000004, 1e-15 + 1.0]
        sample = SampleSet(0.0, [sorted(values)])
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.times, sample.times)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e308, -1e308, math.inf, -math.inf,
                  math.nan, 0.1, 1 / 3]
CELL_TEXT = st.text(alphabet=["a", ",", '"', "\n", "\r", " ", "%", "1", "é"], max_size=4)


@st.composite
def csv_tables(draw):
    """A header (or None) and the columns _write takes: equal-length float
    and integer arrays, and perhaps one str label at any position."""
    rows = draw(st.sampled_from([1, 2, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=8))
            columns.append(np.resize(np.array(pool, dtype=float), rows))
        else:
            pool = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8))
            columns.append(np.resize(np.array(pool, dtype=np.int64), rows))
    label = draw(st.none() | CELL_TEXT)
    if label is not None:
        columns.insert(draw(st.integers(0, len(columns))), label)
    header = draw(st.none() | st.lists(CELL_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


def _reference_csv(path, header, columns):
    # The csv module writes every row: float cells as format(v, ".17g"), and
    # the label on every row.
    rows = next(len(c) for c in columns if not isinstance(c, str))
    cells = [[c] * rows if isinstance(c, str) else [format(v, ".17g") for v in c.tolist()]
             if c.dtype.kind == "f" else c.tolist() for c in columns]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        writer.writerows(zip(*cells))


class TestCsvWriter:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=csv_tables())
    @example(table=(None, ["", np.array([1.0, -0.0])]))
    @example(table=(["x", "y"], [np.array([0, 1]), '%s "a",\r\n']))
    def test_matches_csv_module(self, tmp_path, table):
        header, columns = table
        _write(tmp_path / "out.csv", "csv", header, columns)
        _reference_csv(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_text_is_utf8_whatever_the_locale(self, tmp_path):
        # Every reader names UTF-8, so the writer encodes its text itself:
        # under an ASCII locale the header and the label are UTF-8 too.
        env = _child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        script = ("import sys, numpy; from tppdepth.io import _write; "
                  "_write(sys.argv[1], 'csv', ['\\u00fc', 'v'], ['\\u00e9,', numpy.array([0.5, 2.0])])")
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "out.csv").read_bytes() == 'ü,v\r\n"é,",0.5\r\n"é,",2\r\n'.encode()


def _float_corpus(rng):
    # Floats that reach every path of the cell kernel, by kind: random bit
    # patterns (subnormals, zeros, infinities and NaNs too), the powers of
    # ten and their neighbours (where a guess of the exponent from log10
    # fails), dyadic values (exact ties at the 17th digit, which Python
    # rounds), a sample and the special values.
    powers = 10.0 ** np.arange(-323, 309)
    dyadic = rng.integers(2**52, 2**53, size=20_000) / 2.0 ** rng.integers(1, 64, size=20_000)
    return {
        "bits": rng.integers(-2**63, 2**63, size=200_000, dtype=np.int64).view(np.float64),
        "powers": np.concatenate([sign * np.nextafter(powers, to) for sign in (1, -1) for to in (0, powers, np.inf)]),
        "dyadic": np.concatenate([dyadic, -dyadic]),
        "sample": simulate(SimConfig(kind="state-dependent", rates=(0.5, 2.0, 8.0), k=3, n=5000, seed=4)).times.ravel(),
        "special": np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                             2.2250738585072009e-308, 1e-280, 1e280]),
    }


class TestCellKernel:
    """The CSV cells are exactly Python's '%.17g' and '%d' text."""

    def test_floats_are_percent_17g(self, tmp_path):
        corpus = _float_corpus(np.random.default_rng(26))
        ties = [d for d in map(Decimal, corpus["dyadic"].tolist()) if len(d.as_tuple().digits) == 18]
        assert sum(d.as_tuple().digits[-1] == 5 for d in ties) > 100  # exact ties at the 17th digit
        values = np.concatenate(list(corpus.values()))
        _write(tmp_path / "out.csv", "csv", None, [values])
        expected = "".join("%.17g\r\n" % v for v in values.tolist())
        assert (tmp_path / "out.csv").read_bytes() == expected.encode()

    def test_ints_are_percent_d(self, tmp_path):
        edges = [2**63 - 1, -2**63, -(2**63 - 1), 0, 1, -1]
        edges += [sign * 10**k + d for k in range(1, 19) for sign in (1, -1) for d in (-1, 0, 1)]
        values = np.array(edges, dtype=np.int64)
        index = np.arange(len(values))
        _write(tmp_path / "out.csv", "csv", ["i", "v"], [index, values])
        expected = "i,v\r\n" + "".join(f"{i:d},{v:d}\r\n" for i, v in zip(index.tolist(), edges))
        assert (tmp_path / "out.csv").read_bytes() == expected.encode()

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # numpy reports its buffers to tracemalloc. The writer holds one
        # block's text at a time, so with its tables built (by the write at
        # n=100) the peak at 4e4 rows is the peak at 1e4: measured 896 bytes
        # apart (k=5, 2.1 MiB each), against the 480 KiB of one block's float
        # cell matrices.
        peaks = []
        for n in (100, 10_000, 40_000):
            sample = simulate(SimConfig(kind="state-dependent", rates=(1.0, 2.0, 3.0, 2.0, 1.0), k=5, n=n, seed=3))
            tracemalloc.start()
            try:
                save_sample_csv(sample, tmp_path / "sample.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < BLOCK_ROWS * 5 * 24


@st.composite
def labelled_tables(draw):
    """A table as the writers pass it: csv_tables' numeric columns, one str
    label, perhaps one column given as None, and distinct header names."""
    _, columns = draw(csv_tables())
    columns = [c for c in columns if not isinstance(c, str)]
    columns.insert(draw(st.integers(0, len(columns))), draw(CELL_TEXT))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), None)
    header = draw(st.lists(CELL_TEXT, min_size=len(columns), max_size=len(columns), unique=True))
    return header, columns


class TestJsonTable:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=labelled_tables())
    def test_json_entries_are_the_csv_rows(self, tmp_path, table):
        header, columns = table
        _write(tmp_path / "out.csv", "csv", header, columns)
        _write(tmp_path / "out.json", "json", header, columns)
        with (tmp_path / "out.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        doc = _strict_json((tmp_path / "out.json").read_text())
        label, text = next((name, c) for name, c in zip(header, columns) if isinstance(c, str))
        numeric = {name: c for name, c in zip(header, columns) if not isinstance(c, str)}
        assert list(doc) == ["schema_version", label, "entries"]
        assert (doc["schema_version"], doc[label]) == (1, text)
        assert rows[0] == [name for name, c in zip(header, columns) if c is not None]
        assert len(doc["entries"]) == len(rows) - 1
        for entry, row in zip(doc["entries"], rows[1:]):
            cells = dict(zip(rows[0], row))
            assert cells.pop(label) == text
            assert list(entry) == list(numeric)
            for name, column in numeric.items():
                value = entry[name]
                if column is None:
                    assert value is None and name not in cells
                elif column.dtype.kind == "i":
                    assert type(value) is int and value == int(cells[name])
                elif value is None:  # a NaN or an infinity is null in JSON
                    assert not math.isfinite(float(cells[name]))
                else:  # the float's repr, bit for bit the %.17g cell
                    assert type(value) is float and repr(value) == repr(float(cells[name]))


def _json_text(body: str) -> str:
    return textwrap.dedent(body).lstrip("\n")


_COLUMNS = {
    "omega": [0.5, 1.0],
    "exponent": [0.25, 0.0],
    "marginal_factor": [0.8408964152537145, 1.0],
    "conditional": [1 / 3, 1.0],
    "product": [0.2802988050845715, 1.0],
}

_BREAKDOWN_JSON = """
    {
      "schema_version": 1,
      "entries": [
        {
          "index": 0,
          "omega": 0.5,
          "exponent": 0.25,
          "marginal_factor": 0.8408964152537145,
          "conditional": 0.3333333333333333,
          "product": 0.2802988050845715,
          "baseline_mahalanobis": %s
        },
        {
          "index": 1,
          "omega": 1.0,
          "exponent": 0.0,
          "marginal_factor": 1.0,
          "conditional": 1.0,
          "product": 1.0,
          "baseline_mahalanobis": %s
        }
      ]
    }
"""


def _write_rank_table(path, fmt):
    table = RankTable("product", np.array([0.5, 0.75, 0.0]), np.array([2, 1, 3]))
    save_rank_table(table, path, fmt)


def _write_values(path, fmt):
    save_values([0.25, 1 / 3], "marginal", path, fmt)


def _write_breakdowns(path, fmt):
    save_breakdowns(_COLUMNS, path, fmt)


def _write_breakdowns_with_baseline(path, fmt):
    save_breakdowns({**_COLUMNS, "baseline_mahalanobis": [0.1, 0.9]}, path, fmt)


def _write_contour(path, fmt):
    values = np.array([[0.1, 0.0], [1 / 3, 1.0]])
    save_contour(ContourGrid("conditional", np.array([0.0, 1.0]), np.array([0.5, 1.5]), values), path, fmt)


def _write_report(path, fmt):
    checks = (PropertyCheck("P1-boundary", 3, 0, 0.0), PropertyCheck("P2", 3, 1, 1e-9))
    save_report(PropertyReport(seed=1, trials=3, rays=2, checks=checks), path)


def _write_sample(path, fmt):
    save_sample_csv(SampleSet(0.0, [[0.1, 1 / 3], [1.0, 2.0000000000000004]]), path)


def _write_params(path, fmt):
    params = DepthParams(start=0.0, mu_last=2.0, var_last=1 / 3, u_bar=(0.25, 0.75))
    baseline = (np.array([0.5, 2.0]), np.array([[1.0, 0.5], [0.5, 2.0]]))
    save_params_json(params, path, baseline=baseline)


EXACT_BYTES = [
    (_write_rank_table, "csv",
     "index,depth,rank,method\r\n1,0.75,1,product\r\n0,0.5,2,product\r\n2,0,3,product\r\n"),
    (_write_rank_table, "json", _json_text("""
        {
          "schema_version": 1,
          "method": "product",
          "entries": [
            {
              "index": 1,
              "depth": 0.75,
              "rank": 1
            },
            {
              "index": 0,
              "depth": 0.5,
              "rank": 2
            },
            {
              "index": 2,
              "depth": 0.0,
              "rank": 3
            }
          ]
        }
    """)),
    (_write_values, "csv", "index,method,value\r\n0,marginal,0.25\r\n1,marginal,0.33333333333333331\r\n"),
    (_write_values, "json", _json_text("""
        {
          "schema_version": 1,
          "method": "marginal",
          "entries": [
            {
              "index": 0,
              "value": 0.25
            },
            {
              "index": 1,
              "value": 0.3333333333333333
            }
          ]
        }
    """)),
    (_write_breakdowns, "csv",
     "index,omega,exponent,marginal_factor,conditional,product\r\n"
     "0,0.5,0.25,0.8408964152537145,0.33333333333333331,0.2802988050845715\r\n"
     "1,1,0,1,1,1\r\n"),
    (_write_breakdowns, "json", _json_text(_BREAKDOWN_JSON % ("null", "null"))),
    (_write_breakdowns_with_baseline, "csv",
     "index,omega,exponent,marginal_factor,conditional,product,baseline_mahalanobis\r\n"
     "0,0.5,0.25,0.8408964152537145,0.33333333333333331,0.2802988050845715,0.10000000000000001\r\n"
     "1,1,0,1,1,1,0.90000000000000002\r\n"),
    (_write_breakdowns_with_baseline, "json", _json_text(_BREAKDOWN_JSON % ("0.1", "0.9"))),
    (_write_contour, "csv",
     "s1,s2,method,value\r\n0,0.5,conditional,0.10000000000000001\r\n0,1.5,conditional,0\r\n"
     "1,0.5,conditional,0.33333333333333331\r\n1,1.5,conditional,1\r\n"),
    (_write_contour, "json", _json_text("""
        {
          "schema_version": 1,
          "method": "conditional",
          "axis1": [
            0.0,
            1.0
          ],
          "axis2": [
            0.5,
            1.5
          ],
          "values": [
            [
              0.1,
              0.0
            ],
            [
              0.3333333333333333,
              1.0
            ]
          ]
        }
    """)),
    (_write_report, "json", _json_text("""
        {
          "schema_version": 1,
          "seed": 1,
          "trials": 3,
          "rays": 2,
          "passed": false,
          "properties": [
            {
              "name": "P1-boundary",
              "trials": 3,
              "violations": 0,
              "worst_margin": 0.0
            },
            {
              "name": "P2",
              "trials": 3,
              "violations": 1,
              "worst_margin": 1e-09
            }
          ]
        }
    """)),
    (_write_sample, "csv", "0.10000000000000001,0.33333333333333331\r\n1,2.0000000000000004\r\n"),
    (_write_params, "json", _json_text("""
        {
          "schema_version": 2,
          "k": 2,
          "start": 0.0,
          "mu_last": 2.0,
          "var_last": 0.3333333333333333,
          "u_bar": [
            0.25,
            0.75
          ],
          "horizon": 2.0,
          "eta": 2.0,
          "big_m": 2.0,
          "center": [
            0.5,
            2.0
          ],
          "mahalanobis_mean": [
            0.5,
            2.0
          ],
          "mahalanobis_cov": [
            [
              1.0,
              0.5
            ],
            [
              0.5,
              2.0
            ]
          ]
        }
    """)),
]


class TestExactBytes:
    """Every writer's file, byte for byte, from literal inputs."""

    @pytest.mark.parametrize("write, fmt, expected", EXACT_BYTES,
                             ids=[f"{w.__name__[7:]}-{fmt}" for w, fmt, _ in EXACT_BYTES])
    def test_file_bytes(self, tmp_path, write, fmt, expected):
        path = tmp_path / f"out.{fmt}"
        write(path, fmt)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("write", [_write_rank_table, _write_values, _write_breakdowns, _write_contour])
    def test_unknown_format(self, tmp_path, write):
        with pytest.raises(DataError, match="unknown format 'xml'"):
            write(tmp_path / "out.xml", "xml")
