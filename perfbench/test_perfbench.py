"""Tests of the benchmark itself: tiny-size smoke runs through the same code
path, negative tests that corrupt an output and expect its check to fail,
and consistency of BENCHMARK.json with what the runs report.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tppdepth  # noqa: E402
from checks import CheckFailed, check_contour, check_depths, check_report, oracle, param_fields  # noqa: E402
from workloads import WORKLOADS, CliFiles, HPP_2, SD_5, with_ties  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((ROOT / "perfbench" / "predictions.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_and_reports_every_metric(name, trace):
    result = run.run(name, seed=2, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_traced_counts_repeat_and_no_io_outside_cli_files():
    counts = {}
    for seed in (3, 4):
        for name in WORKLOADS:
            metrics = run.run(name, seed=seed, seconds=0, trace=True, tiny=True)["metrics"]
            per_job = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("calls/job", "rows/job")}
            counts.setdefault(name, []).append(per_job)
            if name != "cli-files":
                assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("io."))
    for name, (first, second) in counts.items():
        assert first == second, name
    assert counts["library-rank"][0]["analysis.boundary_zero_rows"] > 0


def test_swapped_ranks_fail_the_run(monkeypatch):
    original = tppdepth.analysis._competition_ranks

    def swapped(values):
        ranks = original(values)
        ranks[[0, 1]] = ranks[[1, 0]]
        return ranks

    monkeypatch.setattr(tppdepth.analysis, "_competition_ranks", swapped)
    result = run.run("library-rank", seed=2, seconds=0, trace=False, tiny=True)
    assert not result["correct"] and result["failed"] > 0


def test_nonzero_cli_exit_fails_the_run(monkeypatch):
    monkeypatch.setattr(tppdepth.cli, "main", lambda argv: 2)
    result = run.run("cli-files", seed=2, seconds=0, trace=False, tiny=True)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_swapped_ranks_in_the_rank_file_fail_the_check(tmp_path):
    workload = CliFiles(tmp_path, CliFiles.tiny)
    paths = workload.run(workload.prepare(5), SD_5, 5)
    workload.check(paths, SD_5, 5)
    lines = paths["rank_product.csv"].read_text().splitlines(keepends=True)
    first, second = lines[1].split(","), lines[2].split(",")
    first[2], second[2] = second[2], first[2]
    lines[1], lines[2] = ",".join(first), ",".join(second)
    paths["rank_product.csv"].write_text("".join(lines))
    with pytest.raises(CheckFailed):
        workload.check(paths, SD_5, 5)


def test_nonzero_boundary_depth_fails_the_check():
    sample = with_ties(tppdepth.simulate(SD_5.config(300, 7)), 7)
    params = tppdepth.fit_params(sample)
    fields = param_fields(params)
    times = np.asarray(sample.times)
    values = tppdepth.depth_values(sample, params, "product")
    check_depths("product", "product", values, times, fields)
    tied = np.nonzero(np.any(np.diff(times, axis=1, prepend=sample.start) == 0, axis=1))[0]
    assert tied.size == 3
    # Within the oracle's 1e-300 absolute floor, so only the exact-zero check catches it.
    values = values.copy()
    values[tied[0]] = 1e-300
    with pytest.raises(CheckFailed, match="zero-gap"):
        check_depths("product", "product", values, times, fields)


def test_off_wedge_contour_node_and_violations_fail_the_check():
    sample = tppdepth.simulate(HPP_2.config(100, 1))
    params = tppdepth.fit_params(sample)
    baseline = tppdepth.fit_mahalanobis(sample)
    grid = tppdepth.contour_grid(params, "product", (0, 3), (0, 3), 11)
    check_contour(grid, param_fields(params), baseline)
    grid.values[5, 0] = 0.5
    with pytest.raises(CheckFailed, match="off the wedge"):
        check_contour(grid, param_fields(params), baseline)
    report = tppdepth.verify_properties(params, trials=5, seed=1, rays=2)
    check_report("verify", report)
    broken = tppdepth.PropertyReport(report.seed, report.trials, report.rays, (
        tppdepth.PropertyCheck("P2", 5, 1, 0.1), *report.checks[1:]))
    with pytest.raises(CheckFailed, match="P2"):
        check_report("verify", broken)


def test_oracle_matches_the_library_at_the_center():
    sample = tppdepth.simulate(SD_5.config(100, 3))
    params = tppdepth.fit_params(sample)
    center = np.array([params.center])
    assert oracle("product", center, param_fields(params))[0] == pytest.approx(1.0, rel=1e-12)


def test_host_speed_clock_leaves_out_probes_and_scales_slow_spells():
    meter = hostspeed.Meter()
    ref = hostspeed.REFERENCE_PROBE_S
    for i in range(1, 200):  # a probe every 20 ms; the host halves its speed at t = 2 s
        meter.starts.append(i * 0.02)
        meter.ends.append(i * 0.02 + (ref if i * 0.02 < 2 else 2 * ref))
    assert meter.adjusted(0.1, 1.1) == pytest.approx(1.0 - 50 * ref)
    assert meter.unprobed(2.5, 3.5) == pytest.approx(1.0 - 50 * 2 * ref)
    assert meter.adjusted(2.5, 3.5) == pytest.approx((1.0 - 50 * 2 * ref) / 2)
    assert meter.adjusted(0.0201, 0.0202) == 0.0  # inside a probe
    assert list(meter.adjusted_many([(0.1, 1.1), (-1.0, 0.0)])) == pytest.approx([1.0 - 50 * ref, 1.0])


def test_tail_percentile_needs_ten_jobs_beyond_it():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([1.0] * 20)["percentile"] == 50
    assert run.tail_percentile(list(range(40)))["percentile"] == 75


def test_benchmark_json_names_the_workloads_and_predictions_cover_every_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    predicted = [m for layer in PREDICTIONS["layers"] for m in layer["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]} | {"*"}
    for layer in PREDICTIONS["layers"]:
        for claim in layer["moves"] + layer["holds"]:
            assert claim["metric"] in end_to_end and claim["workload"] in WORKLOADS


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "cli-files", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
