import csv
import json
import math

import numpy as np
import pytest

from tppdepth import (
    DataError,
    SampleSet,
    SimConfig,
    emit_results,
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
from tppdepth.analysis import PROPERTY_NAMES, contour_grid
from tppdepth.io import load_rank_table_csv, save_breakdowns, save_values


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

    def test_emit_results_dispatch(self, tmp_path, sample):
        path = tmp_path / "sample.csv"
        emit_results(sample, "csv", path)
        assert load_csv(path, t0=sample.start).n == sample.n
        with pytest.raises(DataError):
            emit_results(sample, "json", tmp_path / "sample.json")


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
        emit_results(table, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == sample.n + 1
        assert lines[0] == "index,depth,rank,method"

    def test_csv_round_trip(self, tmp_path, sample):
        params = fit_params(sample)
        table = rank(sample, params, "conditional")
        path = tmp_path / "rank.csv"
        emit_results(table, "csv", path)
        loaded = load_rank_table_csv(path)
        assert loaded == table

    def test_csv_indices_must_be_a_permutation(self, tmp_path):
        path = tmp_path / "rank.csv"
        path.write_text("index,depth,rank,method\n0,0.5,1,product\n0,0.25,2,product\n")
        with pytest.raises(DataError, match="permutation"):
            load_rank_table_csv(path)

    def test_json_shape(self, tmp_path, sample):
        params = fit_params(sample)
        table = rank(sample, params, "marginal")
        path = tmp_path / "rank.json"
        emit_results(table, "json", path)
        doc = json.loads(path.read_text())
        assert doc["method"] == "marginal"
        assert len(doc["entries"]) == sample.n


class TestContourIO:
    def test_long_form_csv(self, tmp_path, sample):
        params = fit_params(sample)
        grid = contour_grid(params, "product", (0.0, 2.0), (0.0, 2.0), 5)
        path = tmp_path / "contour.csv"
        emit_results(grid, "csv", path)
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
        emit_results(grid, "json", path)
        doc = json.loads(path.read_text())
        np.testing.assert_array_equal(np.array(doc["values"]), grid.values)


class TestReportIO:
    def test_json_one_entry_per_property(self, tmp_path, sample):
        params = fit_params(sample)
        report = verify_properties(params, trials=50, seed=1, rays=5)
        path = tmp_path / "report.json"
        emit_results(report, "json", path)
        doc = json.loads(path.read_text())
        assert [p["name"] for p in doc["properties"]] == list(PROPERTY_NAMES)
        assert doc["passed"] is True
        assert doc["schema_version"] == 1

    def test_csv_report(self, tmp_path, sample):
        params = fit_params(sample)
        report = verify_properties(params, trials=20, seed=1, rays=3)
        path = tmp_path / "report.csv"
        emit_results(report, "csv", path)
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

    def test_summary_json(self, tmp_path, sample):
        params = fit_params(sample)
        summary = near_boundary_comparison(sample, params, 0.5)
        path = tmp_path / "summary.json"
        emit_results(summary, "json", path)
        doc = json.loads(path.read_text())
        assert doc["threshold"] == 0.5
        assert doc["subset_size"] == len(doc["indices"])

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(DataError):
            emit_results(object(), "csv", tmp_path / "x.csv")


class TestSeventeenDigits:
    def test_awkward_floats_survive(self, tmp_path):
        values = [0.1, 1 / 3, math.pi, 2.0000000000000004, 1e-15 + 1.0]
        sample = SampleSet(0.0, [sorted(values)])
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.times, sample.times)
