import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from tppdepth import DataError, cli, load_csv
from tppdepth.analysis import COUNT_CAPS, METHODS
from tppdepth.cli import main
from tppdepth.io import load_sim_config_json


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    code = run("simulate", "--kind", "hpp", "--rates", "2", "--k", "2",
               "--n", "100", "--seed", "7", "--t0", "0", "--out", path)
    assert code == 0
    return path


@pytest.fixture
def params_json(tmp_path, sample_csv):
    path = tmp_path / "params.json"
    code = run("fit", "--in", sample_csv, "--t0", "0", "--params-out", path)
    assert code == 0
    return path


class TestSimulate:
    def test_writes_n_rows(self, sample_csv):
        assert len(sample_csv.read_text().strip().splitlines()) == 100

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["simulate", "--kind", "hpp", "--rates", "2", "--k", "2",
                "--n", "50", "--seed", "3", "--out"]
        assert run(*argv, a) == 0
        assert run(*argv, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_state_dependent(self, tmp_path):
        out = tmp_path / "sd.csv"
        code = run("simulate", "--kind", "state-dependent", "--rates", "2.5", "10",
                   "--k", "2", "--n", "20", "--seed", "1", "--out", out)
        assert code == 0
        assert load_csv(out).n == 20

    def test_bad_rates_is_data_error(self, tmp_path, capsys):
        code = run("simulate", "--kind", "hpp", "--rates", "2", "3", "--k", "2",
                   "--n", "10", "--out", tmp_path / "x.csv")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(
            {"kind": "hpp", "rates": [2.0], "k": 2, "n": 30, "seed": 7, "start": 0.0}
        ))
        from_config = tmp_path / "a.csv"
        assert run("simulate", "--config", config, "--out", from_config) == 0
        from_flags = tmp_path / "b.csv"
        assert run("simulate", "--kind", "hpp", "--rates", "2", "--k", "2",
                   "--n", "30", "--seed", "7", "--out", from_flags) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"kind": "hpp", "rates": [2.0], "k": 2, "n": 30}))
        out = tmp_path / "a.csv"
        assert run("simulate", "--config", config, "--n", "5", "--out", out) == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_incomplete_settings_is_usage_error(self, tmp_path, capsys):
        code = run("simulate", "--kind", "hpp", "--out", tmp_path / "x.csv")
        assert code == 1
        assert "--rates" in capsys.readouterr().err

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"kind": "hpp", "rates": [2.0], "k": 2, "n": 5, "rate": 3}))
        assert run("simulate", "--config", config, "--out", tmp_path / "x.csv") == 2


def _single_error_line(capsys, name):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    return "Traceback" not in err and len(lines) == 1 and lines[0].startswith("error:") and name in lines[0]


PARAMS = {"schema_version": 1, "k": 2, "start": 0.0, "mu_last": 1.0, "var_last": 0.25,
          "u_bar": [0.5, 0.5], "eta": 1.0, "big_m": 1.0, "center": [0.5, 1.0]}
SIM = {"kind": "hpp", "rates": [2.0], "k": 2, "n": 5}


class TestMalformedInputs:
    def test_mixed_first_row_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("0.5,abc\n1,2\n3,6\n2,5\n")
        assert run("fit", "--in", path, "--params-out", tmp_path / "p.json") == 2
        assert _single_error_line(capsys, "line 1, column 2")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("command, doc", [
        ("params", {**PARAMS, "u_bar": "ab"}),
        ("params", {**PARAMS, "k": None}),
        ("params", {**PARAMS, "eta": None}),
        ("params", {**PARAMS, "big_m": None}),
        ("params", {**PARAMS, "eta": float("nan")}),
        ("params", {**PARAMS, "center": [0.5, float("nan")]}),
        ("params", {**PARAMS, "k": 2.5}),
        ("params", {**PARAMS, "k": True, "u_bar": [1.0], "center": [1.0]}),
        ("params", [PARAMS]),
        ("params", {**PARAMS, "schema_version": 99}),
        ("params", {**PARAMS, "provenance": {"n": 5}}),
        ("config", {**SIM, "k": "x"}),
        ("config", {**SIM, "rates": 5}),
        ("config", {**SIM, "start": "a"}),
        ("config", {**SIM, "schema_version": 99}),
    ], ids=["u_bar-string", "k-null", "eta-null", "big_m-null", "eta-nan", "center-nan", "k-fractional", "k-true",
            "top-level-list",
            "params-schema-99", "params-unknown-key", "k-string", "rates-number", "start-string",
            "config-schema-99"])
    def test_bad_json_is_data_error(self, tmp_path, capsys, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        if command == "params":
            argv = ("verify", "--params", path, "--trials", "10", "--rays", "2")
        else:
            argv = ("simulate", "--config", path, "--out", tmp_path / "x.csv")
        assert run(*argv) == 2
        assert _single_error_line(capsys, str(path))

    @pytest.mark.parametrize("name, data", [
        ("bin.csv", b"\xff1,2\n3,4\n"),
        # 1_000 sends the file to the row parser, which meets the bad byte.
        ("late.csv", b"1_000,2000\n" + b"1,2\n" * 5000 + b"3,\xfe4\n"),
        ("bad.json", json.dumps(PARAMS).encode().replace(b'"k"', b'"\xffk"')),
    ], ids=["csv", "csv-row-parser", "params"])
    def test_not_utf8_is_data_error(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        if name.endswith(".csv"):
            argv = ("fit", "--in", path, "--params-out", tmp_path / "p.json")
        else:
            argv = ("verify", "--params", path, "--trials", "10", "--rays", "2")
        assert run(*argv) == 2
        assert _single_error_line(capsys, f"{path}: not UTF-8 text (byte 0x")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("command", ["params", "config"])
    @pytest.mark.parametrize("text", ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["int-beyond-the-digit-limit", "nested-too-deep"])
    def test_json_that_python_cannot_read_is_data_error(self, tmp_path, sample_csv, capsys, command, text):
        # Valid JSON, but Python's json module refuses an integer of more
        # than 4300 digits and arrays nested beyond its recursion limit.
        path, out = tmp_path / "big.json", tmp_path / "x.csv"
        if command == "params":
            path.write_text(json.dumps({**PARAMS, "var_last": "TEXT"}).replace('"TEXT"', text))
            argv = ("rank", "--in", sample_csv, "--params", path, "--method", "product", "--out", out)
        else:
            path.write_text(json.dumps({**SIM, "n": "TEXT"}).replace('"TEXT"', text))
            argv = ("simulate", "--config", path, "--out", out)
        assert run(*argv) == 2
        assert _single_error_line(capsys, f"{path}: not valid JSON (")
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["mahalanobis_mean", "mahalanobis_cov"])
    def test_half_baseline_is_data_error(self, tmp_path, sample_csv, params_json, capsys, missing):
        doc = json.loads(params_json.read_text())
        del doc[missing]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rank.csv"
        assert run("rank", "--in", sample_csv, "--params", bad, "--method", "mahalanobis", "--out", out) == 2
        assert _single_error_line(capsys, f"{bad}: missing field {missing!r}")
        assert not out.exists()


    @pytest.mark.parametrize("command", ["rank", "contour"])
    def test_baseline_of_another_k_is_data_error(self, tmp_path, sample_csv, params_json, capsys, command):
        doc = json.loads(params_json.read_text())
        doc["mahalanobis_cov"] = np.eye(3).tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        where = (("--in", sample_csv) if command == "rank"
                 else ("--xmin", "0", "--xmax", "2", "--ymin", "0", "--ymax", "2", "--resolution", "5"))
        assert run(command, *where, "--params", bad, "--method", "mahalanobis", "--out", out) == 2
        assert _single_error_line(capsys, f"{bad}: bad parameters (the baseline needs a mean of 2 entries "
                                          "and a 2x2 covariance, got mean shape (2,) and covariance shape (3, 3))")
        assert not out.exists()

class TestConfigTypes:
    """A --config value must have its JSON type; nothing is converted."""

    @pytest.mark.parametrize("key, value", [
        ("k", 2.7), ("k", True), ("k", "2"), ("n", "5"), ("n", None), ("seed", 1.9), ("seed", False),
        ("rates", "12"), ("rates", [2.0, "3"]), ("rates", [True]), ("rates", {"a": 2.0}),
        ("kind", 1), ("start", True), ("start", "0"), ("start", 10 ** 400),
    ], ids=["k-float", "k-bool", "k-string", "n-string", "n-null", "seed-float", "seed-bool", "rates-string",
            "rates-mixed-list", "rates-bool-list", "rates-object", "kind-number", "start-bool", "start-string",
            "start-huge-int"])
    def test_wrong_type_is_data_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**SIM, key: value}))
        assert run("simulate", "--config", path, "--out", tmp_path / "x.csv") == 2
        assert _single_error_line(capsys, f"{path}: generator setting {key!r}")
        assert not (tmp_path / "x.csv").exists()

    def test_integral_floats_load(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"kind": "hpp", "rates": [2], "k": 2.0, "n": 3e1, "seed": 7.0, "start": 0}')
        from_config = tmp_path / "a.csv"
        assert run("simulate", "--config", path, "--out", from_config) == 0
        from_flags = tmp_path / "b.csv"
        assert run("simulate", "--kind", "hpp", "--rates", "2", "--k", "2",
                   "--n", "30", "--seed", "7", "--out", from_flags) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()


def _as_strings(value):
    # A JSON value with each number written as a string.
    return [_as_strings(v) for v in value] if isinstance(value, list) else repr(value)


class TestParamsTypes:
    """A params value must have its JSON type; nothing is converted."""

    @pytest.mark.parametrize("key, value", [
        ("start", "0"), ("start", False), ("var_last", True), ("big_m", True),
        ("u_bar", "strings"), ("center", "strings"), ("mahalanobis_mean", "strings"),
        ("mahalanobis_cov", "strings"), ("mahalanobis_cov", [[1.0, 0.0], [0.0]]), ("schema_version", True),
    ], ids=["start-string", "start-false", "var_last-true", "big_m-true", "u_bar-strings", "center-strings",
            "mahalanobis_mean-strings", "mahalanobis_cov-strings", "mahalanobis_cov-ragged",
            "schema_version-true"])
    def test_wrong_type_is_data_error(self, tmp_path, sample_csv, params_json, capsys, key, value):
        doc = json.loads(params_json.read_text())
        doc[key] = _as_strings(doc[key]) if value == "strings" else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rank.csv"
        assert run("rank", "--in", sample_csv, "--params", path, "--method", "mahalanobis", "--out", out) == 2
        name = "schema_version" if key == "schema_version" else f"params key {key!r}"
        assert _single_error_line(capsys, f"{path}: {name}")
        assert not out.exists()


class TestFlagCaps:
    """--resolution, --trials and --rays are capped before anything is allocated."""

    @pytest.mark.parametrize("flag, cap", sorted(COUNT_CAPS.items()))
    def test_cap(self, tmp_path, params_json, monkeypatch, capsys, flag, cap):
        def library(*args, **kwargs):
            raise DataError("reached the library")

        monkeypatch.setattr(cli, "contour_grid", library)
        monkeypatch.setattr(cli, "verify_properties", library)
        out = tmp_path / "out.csv"
        if flag == "resolution":
            argv = ["contour", "--params", params_json, "--method", "product", "--xmin", "0", "--xmax", "2",
                    "--ymin", "0", "--ymax", "2", "--out", out]
        else:
            argv = ["verify", "--params", params_json, "--out", out]
        assert run(*argv, f"--{flag}", cap) == 2
        assert _single_error_line(capsys, "reached the library")
        assert run(*argv, f"--{flag}", cap + 1) == 1
        assert _single_error_line(capsys, f"error: --{flag} must be at most {cap}, got {cap + 1}")
        assert not out.exists()


class TestNegativeFlagValues:
    """A float literal is a flag value, in scientific notation too."""

    @pytest.mark.parametrize("value", ["-1e6", "-1.5e-3", "-.5", "-2E+1", "-1."])
    def test_space_form_equals_the_equals_form(self, tmp_path, capsys, value):
        outputs = {}
        for form in ("space", "equals"):
            def flag(name, form=form):
                return [f"{name}={value}"] if form == "equals" else [name, value]
            sample, params, grid = (tmp_path / f"{form}.{suffix}" for suffix in ("csv", "json", "grid.csv"))
            codes = (
                run("simulate", "--kind", "hpp", "--rates", "2", "--k", "2", "--n", "50", "--seed", "1",
                    *flag("--t0"), "--out", sample),
                run("fit", "--in", sample, *flag("--t0"), "--params-out", params),
                run("contour", "--params", params, "--method", "product", *flag("--xmin"), "--xmax", "2",
                    "--ymin", "0", "--ymax", "2", "--resolution", "5", "--out", grid),
            )
            outputs[form] = (codes, capsys.readouterr(), [p.read_bytes() for p in (sample, params, grid)])
        assert outputs["space"] == outputs["equals"]
        assert outputs["space"][0] == (0, 0, 0)

    def test_epoch_relative_start(self, tmp_path):
        # The reproduced case: a start of -1e6 given as two arguments.
        sample, params = tmp_path / "s.csv", tmp_path / "p.json"
        assert run("simulate", "--kind", "hpp", "--rates", "2", "--k", "2", "--n", "20", "--seed", "1",
                   "--t0", "-1e6", "--out", sample) == 0
        assert run("fit", "--in", sample, "--t0", "-1e6", "--params-out", params) == 0
        assert json.loads(params.read_text())["start"] == -1e6


# JSON values of any shape, plus the near misses a params file invites:
# pairs and 2x2 matrices of any floats (NaN, infinities and 1e308 included).
JSON_VALUES = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                 max_leaves=6),
    st.lists(st.floats(), min_size=2, max_size=2),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=2, max_size=2),
)
# The same shapes with every finite number small: --config has no cap on n
# or k, so a drawn 1e9 would allocate the sample it asks for.
SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-40, 40) | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
SIM_KEYS = ["schema_version", "kind", "rates", "k", "n", "start", "seed", "unknown"]
PARAMS_KEYS = ["schema_version", "k", "start", "mu_last", "var_last", "u_bar", "horizon", "eta", "big_m", "center",
               "mahalanobis_mean", "mahalanobis_cov", "unknown"]


def _flag_value(cap):
    # Small sizes (the run stays fast), any integer above the cap, or text
    # that is not an integer.
    return st.one_of(st.integers(-3, 12).map(str), st.integers(cap + 1, 10**30).map(str),
                     st.text(alphabet="1.e-x ", min_size=1, max_size=4).filter(lambda t: not _is_int(t)))


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# The bytes a mutation of a sample CSV inserts or writes over a byte.
CSV_BYTES = [*b"0123456789,.-+eE_\"\r\n\t", 0xFF]


# One to three (position, operation, byte) edits; a position wraps around
# the length of the file.
MUTATIONS = st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(["insert", "delete", "replace"]),
                               st.sampled_from(CSV_BYTES)), min_size=1, max_size=3)


def _mutate(data: bytes, mutations) -> bytes:
    data = bytearray(data)
    for position, operation, byte in mutations:
        if operation == "insert":
            data.insert(position % (len(data) + 1), byte)
        elif data:
            i = position % len(data)
            if operation == "delete":
                del data[i]
            else:
                data[i] = byte
    return bytes(data)


class TestFuzz:
    """Whatever one params value or capped flag holds, the CLI ends in exit
    0 with valid depths and ranks, 3 from verify, or one error line."""

    def _run(self, capsys, argv):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv)
        err = capsys.readouterr().err
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err
        return code

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(PARAMS_KEYS), value=JSON_VALUES, method=st.sampled_from(METHODS),
           command=st.sampled_from(["rank", "verify"]))
    @example(key="mahalanobis_mean", value=[1e308, 1e308], method="mahalanobis", command="rank")
    @example(key="mahalanobis_cov", value=[[1e308, 0.0], [0.0, 1e308]], method="mahalanobis", command="rank")
    @example(key="u_bar", value=[1e308, 1e308], method="product", command="rank")
    def test_params_value(self, tmp_path, sample_csv, params_json, capsys, key, value, method, command):
        doc = json.loads(params_json.read_text())
        doc[key] = value
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        if command == "verify":
            self._run(capsys, ["verify", "--params", path, "--trials", "20", "--rays", "3"])
            return
        code = self._run(capsys, ["rank", "--in", sample_csv, "--params", path, "--method", method, "--out", out])
        assert out.exists() == (code == 0)
        if code == 0:
            with out.open() as handle:
                rows = list(csv.DictReader(handle))
            depths = np.array([float(row["depth"]) for row in rows])
            ranks = np.array([int(row["rank"]) for row in rows])
            assert np.all(np.isfinite(depths) & (depths >= 0) & (depths <= 1))
            assert np.array_equal(ranks, rankdata(-depths, method="min"))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=MUTATIONS)
    @example(mutations=[(0, "insert", 0xFF)])
    # Byte 37 ends the first row: its last time becomes 1.2...e200.
    @example(mutations=[(37 + i, "insert", byte) for i, byte in enumerate(b"e200")])
    def test_sample_bytes(self, tmp_path, sample_csv, params_json, capsys, mutations):
        path = tmp_path / "mutated.csv"
        path.write_bytes(_mutate(sample_csv.read_bytes(), mutations))
        params, out = tmp_path / "mutated.json", tmp_path / "rank.csv"
        for command, written in ((["fit", "--in", path, "--params-out", params], params),
                                 (["rank", "--in", path, "--params", params_json, "--method", "product",
                                   "--out", out], out)):
            written.unlink(missing_ok=True)
            code = self._run(capsys, command)
            assert code in (0, 2)
            assert written.exists() == (code == 0)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(SIM_KEYS), value=SMALL_JSON_VALUES)
    @example(key="n", value=2.5)
    @example(key="rates", value=[5e-324])  # every gap overflows to inf
    def test_config_value(self, tmp_path, capsys, key, value):
        config, out = tmp_path / "sim.json", tmp_path / "sample.csv"
        config.write_text(json.dumps({**SIM, "start": 0.5, "seed": 3, key: value}))
        out.unlink(missing_ok=True)
        code = self._run(capsys, ["simulate", "--config", config, "--out", out])
        assert code in (0, 2)
        assert out.exists() == (code == 0)
        if code == 0:
            assert load_csv(out, t0=load_sim_config_json(config).get("start", 0.0)).n >= 1

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(resolution=_flag_value(COUNT_CAPS["resolution"]), trials=_flag_value(COUNT_CAPS["trials"]),
           rays=_flag_value(COUNT_CAPS["rays"]), method=st.sampled_from(METHODS))
    def test_flag_values(self, tmp_path, params_json, capsys, resolution, trials, rays, method):
        out = tmp_path / "contour.csv"
        out.unlink(missing_ok=True)
        code = self._run(capsys, ["contour", "--params", params_json, "--method", method, "--xmin", "0",
                                  "--xmax", "2", "--ymin", "0", "--ymax", "2", "--resolution", resolution,
                                  "--out", out])
        assert out.exists() == (code == 0)
        if code == 0:
            with out.open() as handle:
                values = np.array([float(row["value"]) for row in csv.DictReader(handle)])
            assert values.size == int(resolution) ** 2
            assert np.all(np.isfinite(values) & (values >= 0) & (values <= 1))
        self._run(capsys, ["verify", "--params", params_json, "--trials", trials, "--rays", rays])


class TestFitDepthRank:
    def test_fit_writes_params_with_baseline(self, params_json):
        doc = json.loads(params_json.read_text())
        assert doc["k"] == 2
        assert "mahalanobis_mean" in doc
        assert "mahalanobis_cov" in doc

    def test_depth_product_breakdowns(self, tmp_path, sample_csv, params_json):
        out = tmp_path / "depth.csv"
        code = run("depth", "--in", sample_csv, "--params", params_json,
                   "--method", "product", "--out", out)
        assert code == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:6] == ["index", "omega", "exponent", "marginal_factor", "conditional", "product"]
        assert len(rows) == 101

    def test_depth_other_method(self, tmp_path, sample_csv, params_json):
        out = tmp_path / "depth.csv"
        code = run("depth", "--in", sample_csv, "--params", params_json,
                   "--method", "hpp-conditional", "--out", out)
        assert code == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "method", "value"]

    def test_rank_all_methods(self, tmp_path, sample_csv, params_json):
        for method in ("product", "marginal", "conditional", "hpp-conditional", "mahalanobis"):
            out = tmp_path / f"rank_{method}.csv"
            code = run("rank", "--in", sample_csv, "--params", params_json,
                       "--method", method, "--out", out)
            assert code == 0
            lines = out.read_text().strip().splitlines()
            assert len(lines) == 101

    @pytest.mark.parametrize("command, method", [("rank", "mahalanobis"), ("depth", "product")])
    @pytest.mark.parametrize("corrupt", ["nan_cov", "inf_mean"])
    def test_nonfinite_baseline_is_data_error(self, tmp_path, sample_csv, params_json, capsys,
                                              command, method, corrupt):
        doc = json.loads(params_json.read_text())
        if corrupt == "nan_cov":
            doc["mahalanobis_cov"][0][1] = float("nan")
        else:
            doc["mahalanobis_mean"][0] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # written as NaN / Infinity, which json reads back
        out = tmp_path / "out.csv"
        code = run(command, "--in", sample_csv, "--params", bad, "--method", method, "--out", out)
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not out.exists()

    def test_method_typo_is_usage_error(self, tmp_path, sample_csv, params_json, capsys):
        code = run("rank", "--in", sample_csv, "--params", params_json,
                   "--method", "produkt", "--out", tmp_path / "r.csv")
        assert code == 1
        assert _single_error_line(capsys, "argument --method: invalid choice: 'produkt'")

    @pytest.mark.parametrize("argv", [
        ["verify", "--params", "p.json", "--trials", "abc"],
        ["contour", "--params", "p.json", "--method", "product", "--xmin", "0", "--xmax", "x"],
        ["simulate", "--kind", "hpp", "--rates", "2", "--k", "2.5", "--n", "5", "--out", "s.csv"],
    ])
    def test_malformed_flag_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert _single_error_line(capsys, "invalid")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "compare-boundary"])
    def test_overflowing_duration_variance_is_one_error_line(self, tmp_path, capsys, command):
        # Every time is finite, but the squared deviation of the 1e200
        # duration is not.
        path = tmp_path / "big.csv"
        path.write_text("0.5,1,2\n0.25,1,1e200\n0.3,0.9,1.5\n")
        argv = [command, "--in", path]
        argv += ["--params-out", tmp_path / "p.json"] if command == "fit" else ["--threshold", "0.1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 2
        assert _single_error_line(capsys, "the duration variance overflows: the largest duration is 1e+200")
        assert not (tmp_path / "p.json").exists()

    def test_missing_input_is_data_error(self, tmp_path, params_json, capsys):
        code = run("depth", "--in", tmp_path / "missing.csv", "--params", params_json,
                   "--method", "product", "--out", tmp_path / "d.csv")
        assert code == 2

    def test_rank_json_format(self, tmp_path, sample_csv, params_json):
        out = tmp_path / "rank.json"
        code = run("rank", "--in", sample_csv, "--params", params_json,
                   "--method", "product", "--out", out, "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 100


class TestContour:
    def test_product_contour(self, tmp_path, params_json):
        out = tmp_path / "contour.csv"
        code = run("contour", "--params", params_json, "--method", "product",
                   "--xmin", "0", "--xmax", "2", "--ymin", "0", "--ymax", "2",
                   "--resolution", "11", "--out", out)
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 11 * 11

    def test_mahalanobis_contour_uses_stored_baseline(self, tmp_path, params_json):
        out = tmp_path / "contour.csv"
        code = run("contour", "--params", params_json, "--method", "mahalanobis",
                   "--xmin", "0", "--xmax", "2", "--ymin", "0", "--ymax", "2",
                   "--resolution", "7", "--out", out)
        assert code == 0


    def test_mahalanobis_contour_of_a_k3_fit_is_data_error(self, tmp_path, capsys):
        sample, params, out = tmp_path / "k3.csv", tmp_path / "k3.json", tmp_path / "contour.csv"
        assert run("simulate", "--kind", "hpp", "--rates", "2", "--k", "3", "--n", "50", "--seed", "1",
                   "--out", sample) == 0
        assert run("fit", "--in", sample, "--params-out", params) == 0
        code = run("contour", "--params", params, "--method", "mahalanobis",
                   "--xmin", "0", "--xmax", "2", "--ymin", "0", "--ymax", "2", "--resolution", "3", "--out", out)
        assert code == 2
        assert _single_error_line(capsys, "contour grids for method 'mahalanobis' need a k=2 baseline, got k=3")
        assert not out.exists()


def _strict_json(text):
    # json.loads, refusing the NaN and Infinity constants standard JSON lacks.
    def refuse(constant):
        raise ValueError(f"not standard JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestOversizedSample:
    HPP = ["simulate", "--kind", "hpp", "--rates", "2"]

    @pytest.mark.parametrize("k, n", [(1, 10**20), (10**11, 10**11)])
    def test_flags(self, tmp_path, capsys, k, n):
        out = tmp_path / "x.csv"
        assert run(*self.HPP, "--k", k, "--n", n, "--out", out) == 2
        assert _single_error_line(capsys, "event times do not fit in one array")
        assert not out.exists()

    def test_config(self, tmp_path, capsys):
        config, out = tmp_path / "sim.json", tmp_path / "x.csv"
        config.write_text('{"kind": "hpp", "rates": [2], "k": 1, "n": 1e300}')
        assert run("simulate", "--config", config, "--out", out) == 2
        assert _single_error_line(capsys, "error: n*k = 1e+300 event times do not fit in one array")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_n_beyond_the_float_range(self, tmp_path, capsys, source):
        # n*k is shown in float notation, and this n is beyond the float range.
        out, n = tmp_path / "x.csv", 10**400
        if source == "flags":
            code = run(*self.HPP, "--k", 1, "--n", n, "--out", out)
        else:
            config = tmp_path / "sim.json"
            config.write_text(json.dumps({**SIM, "k": 1, "n": n}))
            code = run("simulate", "--config", config, "--out", out)
        assert code == 2
        assert _single_error_line(capsys, "error: n*k = 1.00e+400 event times do not fit in one array")
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 37.3 GiB for an array with shape (1000000000, 5) and data type float64",
         "error: Unable to allocate 37.3 GiB"),
        ("", "error: out of memory"),
    ])
    def test_memory_error_is_one_error_line(self, tmp_path, monkeypatch, capsys, message, line):
        def out_of_memory(config):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "simulate", out_of_memory)
        assert run(*self.HPP, "--k", 5, "--n", 10**9, "--out", tmp_path / "x.csv") == 2
        assert _single_error_line(capsys, line)


class TestStandardJson:
    """Every JSON output is standard JSON: a non-finite value is null."""

    def test_empty_subset_means_are_null(self, tmp_path, capsys):
        sample = tmp_path / "k1.csv"
        assert run("simulate", "--kind", "hpp", "--rates", "2", "--k", "1", "--n", "20", "--out", sample) == 0
        assert run("compare-boundary", "--in", sample, "--threshold", "0.5") == 0
        doc = _strict_json(capsys.readouterr().out)
        assert doc["subset_size"] == 0
        assert doc["mean_product_rank"] is None and doc["mean_mahalanobis_rank"] is None

    def test_infinite_exponent_is_null(self, tmp_path):
        params, sample, out = tmp_path / "p.json", tmp_path / "s.csv", tmp_path / "d.json"
        params.write_text(json.dumps({**PARAMS, "big_m": 1e-308}))
        sample.write_text("0.5,1\n0.5,1.5\n1,5\n")
        assert run("depth", "--in", sample, "--params", params, "--method", "product",
                   "--out", out, "--format", "json") == 0
        exponents = [e["exponent"] for e in _strict_json(out.read_text())["entries"]]
        assert exponents == [0.0, 0.5 / 1e-308, None]


class TestCompareBoundary:
    def test_prints_summary(self, sample_csv, capsys):
        code = run("compare-boundary", "--in", sample_csv, "--threshold", "0.1")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] == 0.1
        assert doc["subset_size"] >= 0

    def test_bad_threshold(self, sample_csv, capsys):
        code = run("compare-boundary", "--in", sample_csv, "--threshold", "2.0")
        assert code == 2


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, params_json, capsys):
        out = tmp_path / "report.json"
        code = run("verify", "--params", params_json, "--trials", "200",
                   "--seed", "1", "--rays", "20", "--out", out)
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert all("PASS" in line for line in lines)
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_verify_with_sample(self, params_json, sample_csv):
        code = run("verify", "--params", params_json, "--trials", "100",
                   "--seed", "2", "--rays", "10", "--in", sample_csv)
        assert code == 0

    def test_violation_exit_code(self, tmp_path, capsys):
        # A tiny duration variance relative to the mean defeats the
        # far-field proxy: at mean + 100 sigma the marginal factor is
        # still near 1, so the infinity check reports violations.
        doc = {
            "schema_version": 1,
            "k": 2,
            "start": 0.0,
            "mu_last": 1000.0,
            "var_last": 1e-6,
            "u_bar": [0.5, 0.5],
            "eta": 1000.0,
            "big_m": 1000.0,
            "center": [500.0, 1000.0],
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        code = run("verify", "--params", path, "--trials", "50", "--seed", "1", "--rays", "5")
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_usage_error_on_unknown_flag(self, capsys):
        assert run("verify", "--nope") == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_domain_is_data_error(self, params_json, capsys, seed):
        assert run("verify", "--params", params_json, "--trials", "10", "--rays", "2", "--seed", seed) == 2
        assert _single_error_line(capsys, f"seed must fit in 64 unsigned bits, got {seed}")

    @pytest.mark.parametrize("t0", ["1e6", "1e9", "1.7e9"])
    def test_epoch_timestamps_pass(self, tmp_path, t0):
        sample, params = tmp_path / "sample.csv", tmp_path / "params.json"
        assert run("simulate", "--kind", "hpp", "--rates", "2", "--k", "3", "--n", "2000", "--seed", "3",
                   "--t0", t0, "--out", sample) == 0
        assert run("fit", "--in", sample, "--t0", t0, "--params-out", params) == 0
        assert run("verify", "--params", params, "--trials", "2000", "--seed", "1", "--rays", "50") == 0
        assert run("verify", "--params", params, "--trials", "100", "--seed", "1", "--rays", "10",
                   "--in", sample) == 0


@pytest.mark.parametrize("command", ["depth", "rank", "verify"])
def test_start_comes_from_the_params_file(tmp_path, sample_csv, params_json, capsys, command):
    # --t0 is only for the commands that read a sample without params.
    argv = [command, "--params", params_json, "--in", sample_csv, "--t0", "0"]
    if command != "verify":
        argv += ["--method", "product", "--out", tmp_path / "out.csv"]
    assert run(*argv) == 1
    assert "unrecognized arguments: --t0" in capsys.readouterr().err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0

    def test_out_dir_env(self, tmp_path, monkeypatch):
        # Only a name without a directory moves into TPPDEPTH_OUT_DIR.
        out_dir, work = tmp_path / "out", tmp_path / "work"
        out_dir.mkdir()
        (work / "sub").mkdir(parents=True)
        monkeypatch.setenv("TPPDEPTH_OUT_DIR", str(out_dir))
        monkeypatch.chdir(work)
        argv = ("simulate", "--kind", "hpp", "--rates", "1", "--k", "1", "--n", "5", "--seed", "0", "--out")
        for out in ("bare.csv", "sub/nested.csv", str(work / "absolute.csv")):
            assert run(*argv, out) == 0
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv"))
        assert written == ["out/bare.csv", "work/absolute.csv", "work/sub/nested.csv"]

    def test_calls_in_one_process_match_separate_processes(self, tmp_path, monkeypatch):
        # main parses with one parser per process: calls in this process, with
        # different subcommands, TPPDEPTH_OUT_DIR set and unset and a usage
        # error between them, give the exit codes and files of the same calls
        # each in a fresh interpreter.
        calls = [
            (None, ["simulate", "--kind", "hpp", "--rates", "2", "--k", "2", "--n", "60", "--seed", "1",
                    "--out", "a.csv"]),
            ("out", ["fit", "--in", "a.csv", "--params-out", "p.json"]),
            ("out", ["rank", "--in", "a.csv", "--params", "out/p.json", "--method", "nope", "--out", "x.csv"]),
            (None, ["depth", "--in", "a.csv", "--params", "out/p.json", "--method", "product", "--out", "d.csv"]),
            ("out", ["rank", "--in", "a.csv", "--params", "out/p.json", "--method", "mahalanobis",
                     "--out", "r.json", "--format", "json"]),
        ]
        package_root = str(Path(cli.__file__).resolve().parents[1])
        results = []
        for separate in (False, True):
            work = tmp_path / ("separate" if separate else "one")
            (work / "out").mkdir(parents=True)
            monkeypatch.chdir(work)
            codes = []
            for out_dir, argv in calls:
                if out_dir is None:
                    monkeypatch.delenv("TPPDEPTH_OUT_DIR", raising=False)
                else:
                    monkeypatch.setenv("TPPDEPTH_OUT_DIR", out_dir)
                if separate:
                    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
                    codes.append(subprocess.run([sys.executable, "-m", "tppdepth.cli", *argv], env=env,
                                                capture_output=True, timeout=120).returncode)
                else:
                    codes.append(main(argv))
            files = {p.relative_to(work).as_posix(): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
            results.append((codes, files))
        assert results[0][0] == [0, 0, 1, 0, 0]
        assert sorted(results[0][1]) == ["a.csv", "d.csv", "out/p.json", "out/r.json"]
        assert results[0] == results[1]

    def test_inputs_not_mutated(self, tmp_path, sample_csv, params_json):
        before_sample = sample_csv.read_bytes()
        before_params = params_json.read_bytes()
        out = tmp_path / "r.csv"
        run("rank", "--in", sample_csv, "--params", params_json, "--method", "product", "--out", out)
        assert sample_csv.read_bytes() == before_sample
        assert params_json.read_bytes() == before_params


# The tracemalloc peak of each CLI step, in-process, may grow with n by at
# most its slope measured here (bytes of peak per byte of the (n, 5)
# matrix, between n=1e4 and n=4e4; numpy 2.4.6) plus MEMORY_SLOPE_MARGIN,
# half of one more (n, k) array: a step that keeps one more per-row copy
# fails. The slopes differ from those at n=1e5..5e5 where a fixed cost,
# such as one block of CSV text or the compare-boundary JSON line, holds
# the peak at the smaller size.
MEMORY_SIZES = (10_000, 40_000)
MEMORY_SLOPE_MARGIN = 0.5
MEMORY_STEPS = {
    "simulate": ("simulate --kind state-dependent --rates 1 2 3 2 1 --k 5 --n {n} --seed 7 --out {out}", 1.00),
    "fit": ("fit --in {sample} --params-out {out}", 2.23),
    "depth product": ("depth --in {sample} --params {params} --method product --out {out}", 3.60),
    "rank product": ("rank --in {sample} --params {params} --method product --out {out}", 3.20),
    "rank mahalanobis": ("rank --in {sample} --params {params} --method mahalanobis --out {out}", 2.41),
    "compare-boundary": ("compare-boundary --in {sample} --threshold 0.1", 5.41),
    "verify --in": ("verify --params {params} --trials 100 --rays 10 --seed 1 --in {sample}", 3.61),
}
# contour at the resolution cap: 2001**2 nodes, a 30.5 MiB values matrix.
# Measured 224.2 MiB, all of it in contour_grid; the bound leaves room for
# half of one more values-sized array.
CONTOUR_CAP_PEAK_MIB = 240


def step_argv(template: str, fields: dict) -> list[str]:
    return [token.format(**fields) for token in template.split()]


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def memory_inputs(tmp_path_factory):
    """A sample CSV and its params at a warm-up size and at each measured size."""
    work = tmp_path_factory.mktemp("memory")
    inputs = {}
    for n in (50, *MEMORY_SIZES):
        sample, params = work / f"s{n}.csv", work / f"p{n}.json"
        assert main(step_argv(MEMORY_STEPS["simulate"][0], {"n": n, "out": sample})) == 0
        assert run("fit", "--in", sample, "--params-out", params) == 0
        inputs[n] = {"n": n, "sample": sample, "params": params, "out": work / "out"}
    return inputs


class TestMemoryContract:
    @pytest.mark.parametrize("step", list(MEMORY_STEPS))
    def test_peak_grows_no_faster_than_measured(self, step, memory_inputs, monkeypatch):
        monkeypatch.delenv("TPPDEPTH_OUT_DIR", raising=False)
        template, slope = MEMORY_STEPS[step]
        # A warm-up run first, so imports and one-time tables count at neither size.
        peaks = [traced_peak(step_argv(template, memory_inputs[n])) for n in (50, *MEMORY_SIZES)][1:]
        measured = (peaks[1] - peaks[0]) / ((MEMORY_SIZES[1] - MEMORY_SIZES[0]) * 5 * 8)
        assert measured < slope + MEMORY_SLOPE_MARGIN, (step, peaks, measured)

    def test_contour_at_the_resolution_cap(self, tmp_path, params_json, monkeypatch):
        # Only the grid is kept: its 4e6 CSV rows (212 MB of text) would take
        # seconds, and the writer, which holds one block at a time, has its own
        # bound (test_io). With the writer, the peak was the same.
        grids = []
        monkeypatch.setattr(cli.tio, "save_contour", lambda grid, path, fmt: grids.append(grid.values.shape))
        argv = ["contour", "--params", str(params_json), "--method", "product", "--xmin", "0", "--xmax", "2",
                "--ymin", "0", "--ymax", "2.5", "--resolution", str(COUNT_CAPS["resolution"]),
                "--out", str(tmp_path / "c.csv")]
        peak = traced_peak(argv)
        assert grids == [(COUNT_CAPS["resolution"],) * 2]
        assert peak < CONTOUR_CAP_PEAK_MIB * 2**20, peak / 2**20
