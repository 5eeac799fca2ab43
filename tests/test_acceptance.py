"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
failure output) and asserts the criterion exactly as stated.
"""

import csv
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import tppdepth.analysis as analysis
from tppdepth import (
    DepthParams,
    SampleSet,
    SimConfig,
    conditional_depth,
    fit_mahalanobis,
    fit_params,
    hpp_conditional_depth,
    marginal_depth_d1,
    near_boundary_comparison,
    product_depth,
    rank,
    simulate,
    weighted_fraction_gap,
)
from tppdepth.cli import main as cli_main
from tppdepth.io import save_sample_csv

from _oracles import direct_conditional, direct_product, erlang_cdf, ks_statistic


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_property_suite(tmp_path):
    with criterion(1, "structural property suite"):
        # Tolerances pinned by the suite itself.
        assert analysis.INFINITY_DEPTH_TOL == 1e-6
        assert analysis.SCALE_SHIFT_RTOL == 1e-10
        assert analysis.RAY_SLACK == 1e-9
        assert analysis.ALPHA_GRID_POINTS == 101
        sample_csv = tmp_path / "sample.csv"
        params_json = tmp_path / "params.json"
        report_json = tmp_path / "report.json"
        assert cli_main([
            "simulate", "--kind", "hpp", "--rates", "2", "--k", "2",
            "--n", "100", "--seed", "0", "--out", str(sample_csv),
        ]) == 0
        assert cli_main([
            "fit", "--in", str(sample_csv), "--t0", "0", "--params-out", str(params_json),
        ]) == 0
        started = time.perf_counter()
        code = cli_main([
            "verify", "--params", str(params_json), "--trials", "10000",
            "--seed", "1", "--out", str(report_json),
        ])
        elapsed = time.perf_counter() - started
        assert code == 0
        doc = json.loads(report_json.read_text())
        by_name = {p["name"]: p for p in doc["properties"]}
        for name in ("P1-boundary", "P1-infinity", "P2", "P3", "P4"):
            assert by_name[name]["violations"] == 0, name
        assert doc["passed"] is True
        assert by_name["P4"]["trials"] == 1000
        assert by_name["P3"]["trials"] == 10000
        assert elapsed < 10.0, f"verify took {elapsed:.2f}s"


def test_criterion_2_weighted_fraction_million():
    with criterion(2, "weighted-fraction checker, 1e6 instances"):
        rng = np.random.Generator(np.random.Philox(key=202))
        total = 0
        worst = -math.inf
        violations = 0
        per_k = 100000
        for k in range(1, 11):
            a = 10.0 * (1.0 - rng.random((per_k, k)))
            b = 10.0 * (1.0 - rng.random((per_k, k)))
            alpha = rng.random(per_k)
            alpha[0] = 0.0  # include both endpoints exactly
            alpha[1] = 1.0
            gaps = weighted_fraction_gap(a, b, alpha)
            worst = max(worst, float(gaps.max()))
            violations += int(np.count_nonzero(gaps > 1e-9))
            total += per_k
        assert total == 10**6
        assert violations == 0, f"worst gap {worst:.3e}"


def test_criterion_3_conditional_forms_agree():
    with criterion(3, "uniform-proportion closed form agreement"):
        rng = np.random.Generator(np.random.Philox(key=303))
        worst = 0.0
        for _ in range(10**4):
            k = int(rng.integers(1, 11))
            gaps = rng.exponential(1.0, size=k) + 1e-12
            times = tuple(np.cumsum(gaps))
            uniform = DepthParams(
                start=0.0, mu_last=1.0, var_last=0.5, u_bar=(1.0 / k,) * k
            )
            closed = hpp_conditional_depth(times, 0.0)
            general = conditional_depth(times, uniform)
            scale = max(closed, general)
            assert scale > 0.0
            relative = abs(closed - general) / scale
            worst = max(worst, relative)
        assert worst <= 1e-12, f"worst relative difference {worst:.3e}"


def test_criterion_4_closed_form_spot_values():
    with criterion(4, "closed-form spot values"):
        params = DepthParams(
            start=0.0, mu_last=1.0, var_last=0.25, u_bar=(0.5, 0.5)
        )
        # One standard deviation from the mean halves the marginal depth.
        assert marginal_depth_d1(1.5, params) == 0.5
        cond = conditional_depth((0.3, 1.0), params)
        cond_oracle = direct_conditional(0.0, (0.3, 1.0), (0.5, 0.5))
        assert abs(cond - cond_oracle) <= 1e-9
        assert abs(cond - math.sqrt(0.84)) <= 1e-9
        breakdown = product_depth((0.3, 1.5), params)
        product_oracle = direct_product(0.0, (0.3, 1.5), 1.0, 0.25, 1.0, 1.0, (0.5, 0.5))
        assert abs(breakdown["product"] - product_oracle) <= 1e-9
        assert abs(breakdown["product"] - 0.56569) <= 5e-6


def test_criterion_5_simulator_moments():
    with criterion(5, "simulator moments and distribution"):
        started = time.perf_counter()
        n = 10**5
        hpp = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=11))
        durations = hpp.durations()
        se_duration = math.sqrt(0.5 / n)
        assert abs(durations.mean() - 1.0) < 3 * se_duration
        first_fraction = hpp.gaps()[:, 0] / durations
        se_fraction = math.sqrt((1 / 12) / n)
        assert abs(first_fraction.mean() - 0.5) < 3 * se_fraction
        state = simulate(
            SimConfig(kind="state-dependent", rates=(2.5, 10.0), k=2, n=n, seed=12)
        )
        se_first = math.sqrt(0.16 / n)
        se_second = math.sqrt(0.17 / n)
        assert abs(state.times[:, 0].mean() - 0.4) < 3 * se_first
        assert abs(state.times[:, 1].mean() - 0.5) < 3 * se_second
        distance = ks_statistic(durations, lambda x: erlang_cdf(x, 2, 2.0))
        critical = 1.62762 / math.sqrt(n)  # 1% asymptotic critical value
        assert distance < critical, f"KS {distance:.5f} vs {critical:.5f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"simulator block took {elapsed:.2f}s"


def _case_samples():
    case1 = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=100, seed=0))
    case2 = simulate(
        SimConfig(kind="state-dependent", rates=(2.5, 10.0), k=2, n=100, seed=0)
    )
    return case1, case2


def test_criterion_6_near_boundary_ranks():
    with criterion(6, "near-boundary rank comparison"):
        for sample in _case_samples():
            params = fit_params(sample)
            summary = near_boundary_comparison(sample, params, 0.1)
            assert summary.subset_size > 0
            assert summary.mean_product_rank > summary.mean_mahalanobis_rank
            # Exactly-boundary realizations are tied last. One injected
            # boundary point lands on rank n; with two they share n-1.
            one = sample.times.copy()
            one[0, 0] = sample.start  # zero first gap
            modified = SampleSet(sample.start, one)
            table = rank(modified, fit_params(modified), "product")
            assert table.depths_by_index()[0] == 0.0
            assert table.ranks_by_index()[0] == modified.n
            two = sample.times.copy()
            two[0, 0] = sample.start
            two[1, 0] = two[1, 1]  # zero second gap
            modified = SampleSet(sample.start, two)
            table = rank(modified, fit_params(modified), "product")
            ranks = table.ranks_by_index()
            depths = table.depths_by_index()
            assert depths[0] == 0.0 and depths[1] == 0.0
            assert ranks[0] == ranks[1] == modified.n - 1
            assert int(np.max(ranks)) == modified.n - 1


def test_criterion_7_symmetry_proxy():
    with criterion(7, "top-rank symmetry proxy"):
        wins = 0
        for seed in range(10):
            sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=50, seed=seed))
            params = fit_params(sample)
            baseline = fit_mahalanobis(sample)
            top_product = rank(sample, params, "product").order[:10].tolist()
            top_mahal = rank(sample, params, "mahalanobis", baseline).order[:10].tolist()
            fitted_mean = baseline[0][-1]
            dev_product = float(np.mean(sample.times[top_product, -1] - fitted_mean))
            dev_mahal = float(np.mean(sample.times[top_mahal, -1] - fitted_mean))
            if abs(dev_product) < abs(dev_mahal):
                wins += 1
        assert wins >= 8, f"symmetry proxy held for only {wins}/10 seeds"


def test_criterion_8_pipeline(tmp_path):
    with criterion(8, "csv-to-rank pipeline"):
        # Synthetic three-event data with the prescribed column means.
        target = np.array([50.64, 223.84, 312.97])
        rng = np.random.Generator(np.random.Philox(key=99))
        half = rng.uniform(-1.0, 1.0, size=(30, 3)) * np.array([12.0, 18.0, 15.0])
        rows = np.vstack([target + half, target - half])
        sample = SampleSet(0.0, rows)
        data_csv = tmp_path / "events.csv"
        save_sample_csv(sample, data_csv)

        params_json = tmp_path / "params.json"
        assert cli_main(["fit", "--in", str(data_csv), "--t0", "0", "--params-out", str(params_json)]) == 0
        doc = json.loads(params_json.read_text())
        assert doc["mu_last"] == pytest.approx(312.97, rel=1e-9)
        assert doc["mahalanobis_mean"] == pytest.approx(list(target), rel=1e-9)

        for method in ("product", "marginal", "conditional"):
            out = tmp_path / f"depth_{method}.csv"
            assert cli_main([
                "depth", "--in", str(data_csv), "--params", str(params_json),
                "--method", method, "--out", str(out),
            ]) == 0
            out = tmp_path / f"rank_{method}.csv"
            assert cli_main([
                "rank", "--in", str(data_csv), "--params", str(params_json),
                "--method", method, "--out", str(out),
            ]) == 0

        # The rank tables are valid CSV covering every realization.
        for method in ("product", "marginal", "conditional"):
            with (tmp_path / f"rank_{method}.csv").open() as handle:
                table_rows = list(csv.reader(handle))
            assert table_rows[0] == ["index", "depth", "rank", "method"]
            assert len(table_rows) == sample.n + 1
            assert sorted(int(r[0]) for r in table_rows[1:]) == list(range(sample.n))

        # The product winner's factors each dominate every other product.
        with (tmp_path / "depth_product.csv").open() as handle:
            breakdown_rows = list(csv.reader(handle))
        header = breakdown_rows[0]
        fields = {name: header.index(name) for name in ("index", "marginal_factor", "conditional", "product")}
        with (tmp_path / "rank_product.csv").open() as handle:
            rank_rows = list(csv.reader(handle))
        winner = next(int(r[0]) for r in rank_rows[1:] if int(r[2]) == 1)
        by_index = {int(r[fields["index"]]): r for r in breakdown_rows[1:]}
        winner_factor = float(by_index[winner][fields["marginal_factor"]])
        winner_conditional = float(by_index[winner][fields["conditional"]])
        for index, row in by_index.items():
            if index == winner:
                continue
            other_product = float(row[fields["product"]])
            assert winner_factor >= other_product
            assert winner_conditional >= other_product
