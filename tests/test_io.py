import csv
import json
import math
import textwrap

import numpy as np
import pytest

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
    simulate_hpp,
    verify_properties,
)
from tppdepth.analysis import (
    PROPERTY_NAMES,
    ContourGrid,
    PropertyCheck,
    PropertyReport,
    RankTable,
    contour_grid,
)
from tppdepth.io import (
    save_breakdowns,
    save_contour,
    save_rank_table,
    save_report,
    save_values,
    summary_to_dict,
)


@pytest.fixture
def sample():
    return simulate_hpp(SimConfig(kind="hpp", rates=(2.0,), k=2, n=25, seed=8))


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
        assert doc["schema_version"] == 1
        for field in ("k", "start", "mu_last", "var_last", "u_bar", "eta", "big_m", "center"):
            assert field in doc

    def test_missing_field(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"schema_version": 1, "k": 2}))
        with pytest.raises(DataError, match="missing field"):
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
        assert RankTable("conditional", order, depths, ranks) == table

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
        save_report(report, path, "json")
        doc = json.loads(path.read_text())
        assert [p["name"] for p in doc["properties"]] == list(PROPERTY_NAMES)
        assert doc["passed"] is True
        assert doc["schema_version"] == 1

    def test_csv_report(self, tmp_path, sample):
        params = fit_params(sample)
        report = verify_properties(params, trials=20, seed=1, rays=3)
        path = tmp_path / "report.csv"
        save_report(report, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(PROPERTY_NAMES)


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
        save_values([0, 1], [0.25, 0.5], "marginal", path, "csv")
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
    table = RankTable("product", np.array([1, 0, 2]), np.array([0.5, 0.75, 0.0]), np.array([2, 1, 3]))
    save_rank_table(table, path, fmt)


def _write_values(path, fmt):
    save_values([0, 1], [0.25, 1 / 3], "marginal", path, fmt)


def _write_breakdowns(path, fmt):
    save_breakdowns(_COLUMNS, path, fmt)


def _write_breakdowns_with_baseline(path, fmt):
    save_breakdowns({**_COLUMNS, "baseline_mahalanobis": [0.1, 0.9]}, path, fmt)


def _write_contour(path, fmt):
    values = np.array([[0.1, 0.0], [1 / 3, 1.0]])
    save_contour(ContourGrid("conditional", np.array([0.0, 1.0]), np.array([0.5, 1.5]), values), path, fmt)


def _write_report(path, fmt):
    checks = (PropertyCheck("P1-boundary", 3, 0, 0.0), PropertyCheck("P2", 3, 1, 1e-9))
    save_report(PropertyReport(seed=1, trials=3, rays=2, checks=checks), path, fmt)


def _write_sample(path, fmt):
    save_sample_csv(SampleSet(0.0, [[0.1, 1 / 3], [1.0, 2.0000000000000004]]), path)


def _write_params(path, fmt):
    params = DepthParams.from_moments(start=0.0, mu_last=2.0, var_last=1 / 3, u_bar=(0.25, 0.75))
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
    (_write_report, "csv", "name,trials,violations,worst_margin\r\nP1-boundary,3,0,0\r\nP2,3,1,1.0000000000000001e-09\r\n"),
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
          "schema_version": 1,
          "k": 2,
          "start": 0.0,
          "mu_last": 2.0,
          "var_last": 0.3333333333333333,
          "u_bar": [
            0.25,
            0.75
          ],
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

    @pytest.mark.parametrize("write", [_write_rank_table, _write_values, _write_breakdowns,
                                       _write_contour, _write_report])
    def test_unknown_format(self, tmp_path, write):
        with pytest.raises(DataError, match="unknown format 'xml'"):
            write(tmp_path / "out.xml", "xml")
