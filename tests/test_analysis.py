import math
import re
import tracemalloc
import warnings
from collections import Counter, deque
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from tppdepth import (
    DataError,
    DepthParams,
    SampleSet,
    SimConfig,
    contour_grid,
    depth_breakdown,
    depth_values,
    fit_mahalanobis,
    fit_params,
    near_boundary_comparison,
    product_depth,
    rank,
    simulate,
    verify_properties,
    weighted_fraction_gap,
)
import tppdepth.analysis as analysis
import tppdepth.estimation as estimation
from tppdepth.analysis import _competition_ranks
from tppdepth.analysis import METHODS
from tppdepth.depth import BLOCK_ROWS, BREAKDOWN_FIELDS, PARAM_FIELDS


def _refit_one_trial_at_a_time(times, start, a, b):
    fitted = [fit_params(SampleSet(x * start + y, x * times.T + y)) for x, y in zip(a, b)]
    return SimpleNamespace(**{f: np.array([getattr(p, f) for p in fitted]) for f in PARAM_FIELDS})


@pytest.fixture(scope="module")
def hpp_sample():
    return simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=100, seed=0))


@pytest.fixture(scope="module")
def hpp_params(hpp_sample):
    return fit_params(hpp_sample)


def reference_competition_ranks(values):
    # The ranking formula as it was written on a stable sort.
    order = np.argsort(-values, kind="stable")
    ordered = values[order]
    run_start = np.ones(values.size, dtype=bool)
    run_start[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(values.size, dtype=int)
    ranks[order] = np.maximum.accumulate(np.where(run_start, np.arange(1, values.size + 1), 0))
    return ranks


class TestCompetitionRanks:
    def test_plain_ordering(self):
        assert list(_competition_ranks(np.array([0.9, 0.5, 0.7]))) == [1, 3, 2]

    def test_all_tied(self):
        assert list(_competition_ranks(np.array([0.3, 0.3, 0.3]))) == [1, 1, 1]

    def test_tie_block_skips(self):
        assert list(_competition_ranks(np.array([0.9, 0.5, 0.5, 0.1]))) == [1, 2, 2, 4]

    def test_tie_heavy_matches_rankdata(self):
        # Repeated values in several runs, then a trailing block of exact
        # zeros (boundary realizations), as competition ranks see them.
        rng = np.random.Generator(np.random.Philox(key=31))
        values = np.concatenate([
            rng.choice([0.9, 0.5, 0.25, 0.125], size=300),
            rng.random(100),
            np.zeros(40),
        ])
        ranks = _competition_ranks(values)
        assert np.array_equal(ranks, rankdata(-values, method="min"))
        assert np.all(ranks[-40:] == values.size - 39)

    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0, max_value=1)),
                    min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_matches_rankdata(self, values):
        values = np.asarray(values)
        assert np.array_equal(_competition_ranks(values), rankdata(-values, method="min"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_n_keeps_the_stable_ranks(self, seed):
        # Past numpy's small-array cutoff the default sort is not stable. Tie
        # blocks (with +-0.0 mixed) still take their start rank, and the NaN
        # rows take n-m+1..n in row order, as the stable sort gave them.
        rng = np.random.default_rng(seed)
        n = 20_000 + 7_000 * seed
        values = np.where(rng.random(n) < 0.5, rng.choice([0.9, 0.5, 0.25, 0.0, -0.0], n), rng.random(n))
        nan = rng.random(n) < 0.01 * seed
        values[nan] = np.nan
        ranks = _competition_ranks(values)
        assert np.array_equal(ranks[~nan], rankdata(-values[~nan], method="min"))
        assert np.array_equal(ranks[nan], np.arange(n - nan.sum() + 1, n + 1))
        assert np.array_equal(ranks, reference_competition_ranks(values))

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, math.nan]) | st.floats(min_value=-1, max_value=1),
                    min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_small_n_ties_signed_zeros_and_nan(self, values):
        # The rule below numpy's sort cutoffs: rankdata's ranks for the
        # numbers (0.0 and -0.0 are one block), then n-m+1..n for the m NaN
        # rows in row order.
        values = np.asarray(values)
        nan = np.isnan(values)
        ranks = _competition_ranks(values)
        assert np.array_equal(ranks[~nan], rankdata(-values[~nan], method="min"))
        assert np.array_equal(ranks[nan], np.arange(values.size - nan.sum() + 1, values.size + 1))

    def test_nan_product_depth_ranks_last(self):
        # Offsets from a start at -1e308 overflow, and the product depth of
        # the first row is NaN.
        params = DepthParams(-1e308, 1e307, 1e306, (0.5, 0.5))
        sample = SampleSet(params.start, np.array([[1e308, 1.5e308], params.center, params.center]))
        table = rank(sample, params, "product")
        assert np.isnan(table.depths[0])
        assert table.ranks.tolist() == [3, 1, 1]
        assert table.order.tolist() == [1, 2, 0]

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_monotone_transform_invariance(self, values):
        # Doubling is exact on [0, 1] (halving can underflow subnormals),
        # so it is strictly monotone in floating point: no new ties.
        values = np.asarray(values)
        assert np.array_equal(_competition_ranks(values), _competition_ranks(2.0 * values))


class TestRank:
    def test_table_is_sorted_deepest_first(self, hpp_sample, hpp_params):
        table = rank(hpp_sample, hpp_params, "product")
        depths = [e.depth for e in table.entries]
        assert depths == sorted(depths, reverse=True)
        assert table.entries[0].rank == 1
        assert sorted(e.index for e in table.entries) == list(range(100))
        # Continuous data: no ties, so ranks are a permutation of 1..n.
        assert sorted(e.rank for e in table.entries) == list(range(1, 101))

    def test_entries_are_one_record_array_of_the_columns(self, hpp_sample, hpp_params):
        times = hpp_sample.times.copy()
        times[[3, 40]] = times[7]  # tied depths, listed by row index
        sample = SampleSet(hpp_sample.start, times)
        table = rank(sample, hpp_params, "product")
        entries = table.entries
        assert isinstance(entries, np.recarray) and entries.dtype.names == ("index", "depth", "rank")
        order = table.order
        assert np.array_equal(entries.index, order)
        assert np.array_equal(entries.depth.view(np.int64), table.depths[order].view(np.int64))
        assert np.array_equal(entries.rank, table.ranks[order])
        assert [(e.index, e.depth, e.rank) for e in entries[:2]] == [
            (int(i), float(table.depths[i]), int(table.ranks[i])) for i in order[:2]]

    def test_a_loop_over_entries_yields_each_record_as_python_numbers(self, hpp_sample, hpp_params):
        entries = rank(hpp_sample, hpp_params, "product").entries
        rows = list(entries)
        assert len(rows) == entries.size == 100
        for i, row in enumerate(rows):
            assert (type(row.index), type(row.depth), type(row.rank)) == (int, float, int)
            assert row == (entries[i].index, entries[i].depth, entries[i].rank)
        assert list(entries[5:8]) == rows[5:8]
        n = 2 * BLOCK_ROWS + 1  # three blocks, the last of one row
        depths = np.linspace(1.0, 0.0, n)
        table = analysis.RankTable("product", depths, np.arange(1, n + 1))
        assert list(table.entries) == list(zip(range(n), depths.tolist(), range(1, n + 1)))

    def test_methods_agree_with_depth_values(self, hpp_sample, hpp_params):
        for method in ("product", "marginal", "conditional", "hpp-conditional", "mahalanobis"):
            table = rank(hpp_sample, hpp_params, method)
            np.testing.assert_array_equal(
                table.depths_by_index(), depth_values(hpp_sample, hpp_params, method)
            )

    def test_unknown_method(self, hpp_sample, hpp_params):
        with pytest.raises(DataError):
            rank(hpp_sample, hpp_params, "tukey")

    @pytest.mark.parametrize("method", ["product", "marginal", "conditional"])
    @pytest.mark.parametrize("function", [depth_values, rank])
    def test_missing_params_name_the_method(self, hpp_sample, function, method):
        with pytest.raises(DataError, match=f"^method '{method}' needs fitted parameters$"):
            function(hpp_sample, None, method)

    def test_breakdown_needs_params(self, hpp_sample):
        with pytest.raises(DataError, match="^method 'product' needs fitted parameters$"):
            depth_breakdown(hpp_sample, None)

    def test_ranks_come_from_the_module_formula(self, hpp_sample, hpp_params, monkeypatch):
        # rank reaches the one ranking formula through the module global, so
        # a one-argument stand-in that swaps two ranks decides the table. A
        # new sample: the module's sample already remembers its ranks.
        hpp_sample = SampleSet(hpp_sample.start, hpp_sample.times)
        original = analysis._competition_ranks

        def swapped(values):
            ranks = original(values)
            ranks[[0, 1]] = ranks[[1, 0]]
            return ranks

        monkeypatch.setattr(analysis, "_competition_ranks", swapped)
        table = rank(hpp_sample, hpp_params, "product")
        expected = swapped(depth_values(hpp_sample, hpp_params, "product"))
        assert np.array_equal(table.ranks, expected)
        assert not np.array_equal(table.ranks, original(table.depths))

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0, max_value=1),
                    min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_order_is_stable_deepest_first(self, values):
        # The order derived from the ranks is the stable sort of the depths,
        # tie blocks (0.0 and -0.0 are one) in row order.
        depths = np.asarray(values)
        table = analysis.RankTable("product", depths, _competition_ranks(depths))
        assert np.array_equal(table.order, np.argsort(-depths, kind="stable"))
        assert np.array_equal(table.ranks, rankdata(-depths, method="min"))
        assert table.n == depths.size

    def test_ranks_are_built_in_place(self):
        # With the depths computed, ranking holds the sort order, the sorted
        # depths and one int array of run starts, then the ranks and the
        # table's copies: 0.83x the (n, k) matrix here.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=100_000,
                                    seed=17))
        params = fit_params(sample)
        depth_values(sample, params, "product")
        tracemalloc.start()
        try:
            rank(sample, params, "product")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * sample.times.nbytes

    def test_boundary_realization_ranks_last(self, hpp_params, hpp_sample):
        times = hpp_sample.times.copy()
        times[0] = (0.0, times[0, 1])  # zero first gap
        sample = SampleSet(0.0, times)
        table = rank(sample, hpp_params, "product")
        ranks = table.ranks_by_index()
        assert table.depths_by_index()[0] == 0.0
        assert ranks[0] == sample.n

    def test_deepest_is_near_center(self, hpp_sample, hpp_params):
        # The rank-1 realization should sit in the top decile by distance
        # to the center, checked by brute force.
        table = rank(hpp_sample, hpp_params, "product")
        center = np.asarray(hpp_params.center)
        distances = np.linalg.norm(hpp_sample.times - center, axis=1)
        closest = int(np.argmin(distances))
        assert table.ranks_by_index()[closest] <= 10

    def test_start_mismatch_rejected(self, hpp_params):
        sample = SampleSet(1.0, [[1.5, 2.0], [2.0, 3.0]])
        with pytest.raises(DataError):
            rank(sample, hpp_params, "product")


def connected_components(mask):
    """4-connected component count of True cells, by flood fill."""
    seen = np.zeros_like(mask, dtype=bool)
    components = 0
    rows, cols = mask.shape
    for i in range(rows):
        for j in range(cols):
            if not mask[i, j] or seen[i, j]:
                continue
            components += 1
            queue = deque([(i, j)])
            seen[i, j] = True
            while queue:
                a, b = queue.popleft()
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    x, y = a + da, b + db
                    if 0 <= x < rows and 0 <= y < cols and mask[x, y] and not seen[x, y]:
                        seen[x, y] = True
                        queue.append((x, y))
    return components


class TestContourGrid:
    def test_diagonal_nodes_are_zero(self, hpp_params):
        grid = contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), 21)
        for i, x in enumerate(grid.axis1):
            for j, y in enumerate(grid.axis2):
                if x == y:
                    assert grid.values[i, j] == 0.0

    def test_invalid_nodes_masked_to_zero(self, hpp_params):
        grid = contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), 11)
        for i, x in enumerate(grid.axis1):
            for j, y in enumerate(grid.axis2):
                if x > y:
                    assert grid.values[i, j] == 0.0

    def test_center_node_is_unit_maximum(self, hpp_params):
        c1, c2 = hpp_params.center
        # linspace endpoints are exact, so the corner node sits on the center.
        grid = contour_grid(hpp_params, "product", (c1 - 1.0, c1), (c2 - 1.0, c2), 41)
        assert grid.values[-1, -1] == 1.0
        assert grid.values.max() == 1.0

    def test_superlevel_sets_connected_and_shrinking(self, hpp_params):
        c1, c2 = hpp_params.center
        grid = contour_grid(hpp_params, "product", (0.0, 3.0), (0.0, 3.5), 101)
        counts = []
        for level in (0.25, 0.5, 0.75):
            mask = grid.values >= level
            assert mask.any()
            assert connected_components(mask) == 1
            counts.append(int(mask.sum()))
        assert counts[0] >= counts[1] >= counts[2]

    def test_mahalanobis_computed_everywhere(self, hpp_sample, hpp_params):
        from tppdepth import fit_mahalanobis

        baseline = fit_mahalanobis(hpp_sample)
        grid = contour_grid(hpp_params, "mahalanobis", (0.0, 2.0), (0.0, 2.0), 11, baseline=baseline)
        assert np.all(grid.values > 0.0)

    def test_marginal_grid_depends_only_on_second_axis(self, hpp_params):
        grid = contour_grid(hpp_params, "marginal", (0.0, 1.0), (0.5, 2.0), 9)
        valid = grid.axis1[:, None] <= grid.axis2[None, :]
        for j in range(9):
            column = grid.values[:, j][valid[:, j]]
            assert column.size == 0 or np.all(column == column[0])

    def test_uniform_proportion_grid_peaks_on_even_spacing(self, hpp_params):
        grid = contour_grid(hpp_params, "hpp-conditional", (0.0, 1.0), (0.0, 2.0), 5)
        i = list(grid.axis1).index(0.5)
        j = list(grid.axis2).index(1.0)
        assert grid.values[i, j] == 1.0  # gaps (0.5, 0.5) split the duration evenly

    def test_mahalanobis_needs_baseline(self, hpp_params):
        with pytest.raises(DataError, match="baseline"):
            contour_grid(hpp_params, "mahalanobis", (0.0, 2.0), (0.0, 2.0), 11)

    def test_mahalanobis_needs_a_k2_baseline(self, hpp_params):
        # Checked before the grid is built: the message names the baseline's
        # k, not the shape of the node matrix.
        baseline = fit_mahalanobis(simulate(SimConfig(kind="hpp", rates=(2.0,), k=3, n=50, seed=1)))
        with pytest.raises(DataError) as caught:
            contour_grid(hpp_params, "mahalanobis", (0.0, 2.0), (0.0, 2.0), 11, baseline=baseline)
        assert str(caught.value) == "contour grids for method 'mahalanobis' need a k=2 baseline, got k=3"

    def test_unsupported_k(self):
        params = DepthParams(start=0.0, mu_last=1.0, var_last=0.2, u_bar=(0.2, 0.3, 0.5))
        with pytest.raises(DataError, match="k=2"):
            contour_grid(params, "product", (0.0, 2.0), (0.0, 2.0), 11)

    def test_bad_grid_spec(self, hpp_params):
        with pytest.raises(DataError):
            contour_grid(hpp_params, "product", (2.0, 0.0), (0.0, 2.0), 11)
        with pytest.raises(DataError):
            contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), 1)

    def test_integral_float_resolution_is_taken(self, hpp_params):
        taken = contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), 3.0)
        reference = contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), 3)
        assert taken.values.shape == (3, 3)
        assert np.array_equal(taken.values, reference.values)

    @pytest.mark.parametrize("resolution", [2.5, True, "3", None])
    def test_resolution_must_be_an_integer(self, hpp_params, resolution):
        with pytest.raises(DataError, match="resolution must be an integer"):
            contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), resolution)

    @pytest.mark.parametrize("resolution", [0, 1, 1.0, -3])
    def test_resolution_below_two(self, hpp_params, resolution):
        with pytest.raises(DataError, match="^resolution must be at least 2$"):
            contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), resolution)

    @pytest.mark.parametrize("method", METHODS)
    def test_missing_params_name_the_method(self, hpp_sample, method):
        with pytest.raises(DataError, match=f"method '{method}' needs fitted parameters"):
            contour_grid(None, method, (0.0, 2.0), (0.0, 2.0), 5, baseline=fit_mahalanobis(hpp_sample))

    @pytest.mark.parametrize("ends", [(0, "x"), (0, 1, 2), None, (True, 1)])
    @pytest.mark.parametrize("axis", ["s1", "s2"])
    def test_range_that_is_not_a_pair_of_numbers(self, hpp_params, ends, axis):
        ranges = {"s1": (0.0, 2.0), "s2": (0.0, 2.0), axis: ends}
        with pytest.raises(DataError) as caught:
            contour_grid(hpp_params, "product", ranges["s1"], ranges["s2"], 5)
        assert str(caught.value) == f"the {axis} range must be a (low, high) pair of numbers, got {ends!r}"

    @pytest.mark.parametrize("ends", [(0, 10**400), (-10**400, 1), (0, 2**1024)])
    @pytest.mark.parametrize("axis", ["s1", "s2"])
    def test_range_end_beyond_the_float_range(self, hpp_params, ends, axis):
        ranges = {"s1": (0.0, 2.0), "s2": (0.0, 2.0), axis: ends}
        with pytest.raises(DataError) as caught:
            contour_grid(hpp_params, "product", ranges["s1"], ranges["s2"], 5)
        assert str(caught.value) == f"the {axis} range ends must fit in a float"

    @pytest.mark.parametrize("axis", ["s1", "s2"])
    def test_range_beyond_the_digit_limit(self, hpp_params, axis):
        ranges = {"s1": (0.0, 2.0), "s2": (0.0, 2.0), axis: (0, 1, 10**5000)}
        with pytest.raises(DataError) as caught:
            contour_grid(hpp_params, "product", ranges["s1"], ranges["s2"], 5)
        assert str(caught.value) == f"the {axis} range must be a (low, high) pair of numbers, got a value of type tuple"

    def test_unknown_method(self, hpp_params):
        with pytest.raises(DataError, match=r"^unknown method 'tukey'; expected one of \('product', "):
            contour_grid(hpp_params, "tukey", (0.0, 2.0), (0.0, 2.0), 5)

    def test_numeric_ranges_of_any_pair_type_are_taken(self, hpp_params):
        reference = contour_grid(hpp_params, "product", (0.0, 2.0), (0.0, 2.0), 5)
        taken = contour_grid(hpp_params, "product", [0, 2], np.array([0.0, 2.0]), 5)
        assert np.array_equal(taken.values, reference.values)


class TestBaselinePair:
    @pytest.mark.parametrize("baseline", [(np.zeros(2),), (np.zeros(2), np.eye(2), np.eye(2)), 3.0,
                                          ("a", "b"), (np.zeros(2), [[1.0, 0.0], [0.0]]),
                                          (["0.5", "1"], [["1", "0"], ["0", "1"]]),
                                          (np.zeros(2), [[True, False], [False, True]])])
    def test_baseline_that_is_not_a_pair(self, hpp_sample, hpp_params, baseline):
        calls = (
            lambda: depth_values(hpp_sample, hpp_params, "mahalanobis", baseline=baseline),
            lambda: rank(hpp_sample, hpp_params, "mahalanobis", baseline=baseline),
            lambda: depth_breakdown(hpp_sample, hpp_params, baseline=baseline),
            lambda: contour_grid(hpp_params, "mahalanobis", (0.0, 2.0), (0.0, 2.0), 5, baseline=baseline),
        )
        for call in calls:
            with pytest.raises(DataError, match=r"a baseline must be a \(mean, covariance\) pair"):
                call()

    def test_row_mean_is_taken(self, hpp_sample, hpp_params):
        mean, cov = fit_mahalanobis(hpp_sample)
        row = (mean.reshape(1, -1), cov)
        assert np.array_equal(depth_values(hpp_sample, None, "mahalanobis", row),
                              depth_values(hpp_sample, None, "mahalanobis", (mean, cov)))
        grid = contour_grid(hpp_params, "mahalanobis", (0.0, 2.0), (0.0, 2.0), 5, baseline=row)
        reference = contour_grid(hpp_params, "mahalanobis", (0.0, 2.0), (0.0, 2.0), 5, baseline=(mean, cov))
        assert np.array_equal(grid.values, reference.values)


class TestNearBoundary:
    def test_threshold_one_covers_everything(self, hpp_sample, hpp_params):
        summary = near_boundary_comparison(hpp_sample, hpp_params, 1.0)
        assert summary.subset_size == hpp_sample.n
        expected = (hpp_sample.n + 1) / 2  # mean of a permutation of 1..n
        assert summary.mean_product_rank == pytest.approx(expected)
        assert summary.mean_mahalanobis_rank == pytest.approx(expected)

    def test_boundary_realization_in_subset_and_last(self, hpp_sample, hpp_params):
        times = hpp_sample.times.copy()
        times[3] = (0.0, times[3, 1])
        sample = SampleSet(0.0, times)
        params = fit_params(sample)
        summary = near_boundary_comparison(sample, params, 0.1)
        assert 3 in summary.indices
        table = rank(sample, params, "product")
        assert table.ranks_by_index()[3] == sample.n

    def test_empty_subset_is_nan(self, hpp_params):
        sample = SampleSet(0.0, [[1.0, 2.0], [1.1, 2.3], [0.9, 1.8]])
        summary = near_boundary_comparison(sample, hpp_params, 0.01)
        assert summary.subset_size == 0
        assert summary.indices.dtype == np.int64 and summary.indices.shape == (0,)
        assert not summary.indices.flags.writeable
        assert math.isnan(summary.mean_product_rank)
        assert math.isnan(summary.mean_mahalanobis_rank)

    @given(k=st.integers(1, 6), n=st.integers(20, 200), start=st.sampled_from([0.0, 1.5, 1.7e9]),
           threshold=st.sampled_from([1e-4, 0.05, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_subset_is_the_row_minimum_rule(self, k, n, start, threshold, seed):
        # The rule written out over the (n, k) fraction matrix: the smallest
        # normalized gap of a row, 0 for a zero-duration row.
        rng = np.random.default_rng(seed)
        times = start + np.cumsum(rng.exponential(1.0, (n, k)), axis=1)
        params = fit_params(SampleSet(start, times))
        tied = np.flatnonzero(rng.random(n) < 0.2)
        if k > 1:  # a later time moved onto the first: a zero gap after sorting
            times[tied, rng.integers(1, k, tied.size)] = times[tied, 0]
        times[rng.random(n) < 0.1] = start  # zero duration
        times[1] = times[0]  # a repeated row: tied depths
        sample = SampleSet(start, np.sort(times, axis=1))
        durations = sample.times[:, -1:] - start
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(durations > 0, np.diff(sample.times, axis=1, prepend=start) / durations, 0.0)
        expected = np.flatnonzero(fractions.min(axis=1) < threshold)
        indices = near_boundary_comparison(sample, params, threshold).indices
        assert indices.dtype == np.int64 and not indices.flags.writeable
        assert indices.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
    def test_subset_across_blocks_is_the_fraction_minimum(self, n):
        # The rule written out over the whole (k, n) gap matrix, one division
        # per gap: zero-duration rows, zero gaps and repeated rows fall on
        # both sides of every block boundary, and one threshold equals a
        # row's smallest fraction.
        rng = np.random.default_rng(n)
        start, k = 1.5, 4
        times = start + np.cumsum(rng.exponential(1.0, (n, k)), axis=1)
        params = fit_params(SampleSet(start, times))
        tied = np.flatnonzero(rng.random(n) < 0.05)
        times[tied, 2] = times[tied, 1]
        times[rng.random(n) < 0.01] = start
        times[BLOCK_ROWS - 3::BLOCK_ROWS // 2] = times[0]
        sample = SampleSet(start, times)
        durations = sample.durations()
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(durations > 0, np.minimum.reduce(sample.gaps().T / durations), 0.0)
        for threshold in (0.05, float(np.sort(fractions)[n // 2]), 1.0):
            expected = np.flatnonzero(fractions < threshold)
            assert near_boundary_comparison(sample, params, threshold).indices.tolist() == expected.tolist()

    def test_a_warm_comparison_takes_the_smallest_gap_block_by_block(self):
        # After rank, the comparison reads both rankings from the memo and
        # holds (n,) columns, (k, BLOCK_ROWS) gaps and the subset it returns,
        # never (k, n) gaps or fractions: 1.41x the (n, k) matrix here.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=100_000,
                                    seed=17))
        params = fit_params(sample)
        for method in ("product", "mahalanobis"):
            rank(sample, params, method)
        near_boundary_comparison(sample, params, 0.05)
        tracemalloc.start()
        try:
            near_boundary_comparison(sample, params, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * sample.times.nbytes

    def test_threshold_validated(self, hpp_sample, hpp_params):
        with pytest.raises(DataError):
            near_boundary_comparison(hpp_sample, hpp_params, 0.0)
        with pytest.raises(DataError):
            near_boundary_comparison(hpp_sample, hpp_params, 1.5)

    @pytest.mark.parametrize("threshold", [True, "0.5", None, math.nan])
    def test_threshold_must_be_a_number(self, hpp_sample, hpp_params, threshold):
        with pytest.raises(DataError, match=r"^threshold must be in \(0, 1\], got "):
            near_boundary_comparison(hpp_sample, hpp_params, threshold)

    def test_threshold_beyond_the_digit_limit(self, hpp_sample, hpp_params):
        with pytest.raises(DataError, match=r"^threshold must be in \(0, 1\], got a value of type int$"):
            near_boundary_comparison(hpp_sample, hpp_params, 10**5000)



def _memo_inputs():
    # A k=3 sample with tied rows (zero gaps, exact-zero depths), a second
    # set of params (another horizon) and a second baseline (another scale).
    sample = simulate(SimConfig(kind="state-dependent", rates=(1.0, 2.0, 3.0), k=3, n=300, seed=4))
    times = sample.times.copy()
    times[::25, 1] = times[::25, 0]
    sample = SampleSet(sample.start, times)
    params = fit_params(sample)
    mean, cov = fit_mahalanobis(sample)
    return (sample, (params, replace(params, horizon=2.0 * params.horizon)),
            ((mean, cov), (mean + 0.5, 3.0 * cov), None))


MEMO_SAMPLE, MEMO_PARAMS, MEMO_BASELINES = _memo_inputs()
MEMO_CALLS = ("depth_values", "depth_breakdown", "rank", "near_boundary_comparison")


def cold():
    """A new sample with the times of MEMO_SAMPLE: nothing remembered yet."""
    return SampleSet(MEMO_SAMPLE.start, MEMO_SAMPLE.times)


def call(sample, op):
    name, method, p, b = op
    params, baseline = MEMO_PARAMS[p], MEMO_BASELINES[b]
    if name == "depth_values":
        return depth_values(sample, params, method, baseline)
    if name == "depth_breakdown":
        return depth_breakdown(sample, params, baseline)
    if name == "rank":
        return rank(sample, params, method, baseline)
    return near_boundary_comparison(sample, params, 0.05)


def result_bits(result):
    """Every value of a result as bytes: equal exactly when the bits are."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, dict):
        return tuple((name, result_bits(value)) for name, value in result.items())
    if isinstance(result, analysis.RankTable):
        return (result.method, result.n, result_bits(result.depths), result_bits(result.ranks),
                result_bits(result.order))
    return (result.threshold, result.sample_size, result_bits(result.indices),
            np.array([result.mean_product_rank, result.mean_mahalanobis_rank]).tobytes())


def scribble(result):
    """Overwrite every array a call handed back."""
    if isinstance(result, analysis.RankTable):
        result.depths[:] = 7.0
        result.ranks[:] = 7
    elif isinstance(result, dict):
        for column in result.values():
            column[:] = 7.0
    elif isinstance(result, np.ndarray):
        result[:] = 7.0


class TestSampleMemo:
    """A sample remembers one entry per depth kernel, keyed by exact bits,
    with the rankings of its columns, and every call returns what a call on
    a new sample returns."""

    @given(st.lists(st.tuples(st.sampled_from(MEMO_CALLS), st.sampled_from(METHODS), st.integers(0, 1),
                              st.integers(0, 2)), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_any_call_order_gives_the_bits_of_a_cold_call(self, ops):
        warm = cold()
        for op in ops:
            result = call(warm, op)
            assert result_bits(result) == result_bits(call(cold(), op)), op
            scribble(result)  # reaches no later call

    @pytest.mark.parametrize("field", ["mu_last", "horizon", "start"])
    def test_params_one_ulp_apart_recompute(self, field):
        params = MEMO_PARAMS[0]
        value = getattr(params, field)
        moved = replace(params, **{field: -0.0 if field == "start" else np.nextafter(value, np.inf)})
        sample = cold()
        before = depth_breakdown(sample, params)
        key = sample._memos["depth_columns"][0]
        after = depth_breakdown(sample, moved)
        assert sample._memos["depth_columns"][0] != key
        assert result_bits(after) == result_bits(depth_breakdown(cold(), moved))
        if field != "start":  # 0.0 and -0.0 are different keys, but give the same depths
            assert result_bits(after) != result_bits(before)
        for method in ("product", "marginal", "conditional"):
            expected = result_bits(depth_values(cold(), params, method))
            assert result_bits(depth_values(sample, params, method)) == expected

    def test_another_baseline_recomputes(self):
        sample = cold()
        first, second = MEMO_BASELINES[:2]
        old = depth_values(sample, None, "mahalanobis", first)
        new = depth_values(sample, None, "mahalanobis", second)
        assert result_bits(new) == result_bits(depth_values(cold(), None, "mahalanobis", second))
        assert result_bits(new) != result_bits(old)
        # The same values under another shape are another key.
        flat = (first[0].reshape(1, -1), first[1])
        assert result_bits(depth_values(sample, None, "mahalanobis", flat)) == result_bits(old)
        assert sample._memos["mahalanobis_column"][0][0] == (1, 3)

    def test_one_entry_per_kernel(self):
        sample = cold()
        params = MEMO_PARAMS[0]
        mean, cov = MEMO_BASELINES[0]
        for i in range(50):
            moved = replace(params, horizon=params.horizon * (1.0 + i / 64))
            for method in METHODS:
                baseline = (mean + i, cov) if method == "mahalanobis" else None
                depth_values(sample, moved, method, baseline)
                rank(sample, moved, method, baseline)
            depth_values(sample, moved, "mahalanobis")  # the sample's own fit
            near_boundary_comparison(sample, moved, 0.05)
        assert sorted(sample._memos) == ["depth_columns", "fit_mahalanobis", "hpp_conditional_column",
                                         "mahalanobis_column"]
        # Seven columns of n floats, five of n ints (one ranking per method),
        # the mean and the covariance: nothing more.
        held = sum(a.nbytes for _, arrays in sample._memos.values() for a in arrays.values())
        n, k = sample.n, sample.k
        assert held == 8 * (7 * n + k + k**2) + 5 * n * np.dtype(int).itemsize
        key, columns = sample._memos["depth_columns"]
        assert key == np.hstack([getattr(moved, name) for name in PARAM_FIELDS]).tobytes()
        assert list(columns) == [*BREAKDOWN_FIELDS, "rank product", "rank marginal_factor", "rank conditional"]
        assert list(sample._memos["hpp_conditional_column"][1]) == ["hpp-conditional", "rank hpp-conditional"]
        # near_boundary_comparison ranked last, under the sample's own fit.
        key, columns = sample._memos["mahalanobis_column"]
        mean, cov = fit_mahalanobis(sample)
        assert key == (mean.shape, mean.tobytes(), cov.shape, cov.tobytes())
        assert list(columns) == ["mahalanobis", "rank mahalanobis"]

    def test_a_new_key_drops_the_old_rankings(self):
        sample = cold()
        first, second = MEMO_PARAMS
        rank(sample, first, "product")
        depth_values(sample, second, "product")
        # Only the breakdown under the second params is held: no ranking
        # made under the first.
        assert sorted(sample._memos) == ["depth_columns"]
        key, columns = sample._memos["depth_columns"]
        assert key == np.hstack([getattr(second, name) for name in PARAM_FIELDS]).tobytes()
        assert list(columns) == list(BREAKDOWN_FIELDS)

    def test_callers_own_what_they_get(self):
        sample = cold()
        params, baseline = MEMO_PARAMS[0], MEMO_BASELINES[0]
        expected = {op: result_bits(call(cold(), op)) for op in
                    [(name, m, 0, 0) for name in ("depth_values", "rank") for m in METHODS]
                    + [("depth_breakdown", "product", 0, 0)]}
        for method in METHODS:
            depth_values(sample, params, method, baseline)[:] = 7.0
            scribble(rank(sample, params, method, baseline))
        breakdown = depth_breakdown(sample, params, baseline)
        breakdown["extra"] = np.zeros(sample.n)
        for column in breakdown.values():
            column[:] = 7.0
        mean, cov = fit_mahalanobis(sample)
        mean[:] = 7.0
        cov[:] = 7.0
        for op, bits in expected.items():
            assert result_bits(call(sample, op)) == bits, op
        fitted = fit_mahalanobis(cold())
        assert all(result_bits(a) == result_bits(b) for a, b in zip(fit_mahalanobis(sample), fitted))
        assert result_bits(depth_values(sample, None, "mahalanobis")) == result_bits(
            depth_values(cold(), None, "mahalanobis"))

    def test_each_kernel_runs_once(self, monkeypatch):
        counts = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("depth_columns", "mahalanobis_column", "_competition_ranks"):
            count(analysis, name)
        count(estimation, "_mean_and_cov")  # the mean and covariance of fit_mahalanobis
        count(np, "dot")  # the covariance's product, inside it
        count(np, "cov")  # not called: it would take the mean a second time
        sample, params = cold(), MEMO_PARAMS[0]
        rank(sample, params, "product")
        rank(sample, params, "mahalanobis")
        near_boundary_comparison(sample, params, 0.05)
        # near_boundary_comparison reuses both rankings.
        assert counts == {"depth_columns": 1, "mahalanobis_column": 1, "_mean_and_cov": 1, "dot": 1,
                          "_competition_ranks": 2}

class TestWeightedFraction:
    def test_equal_vectors_are_tight(self):
        a = np.array([[1.0, 2.0, 3.0]])
        gap = weighted_fraction_gap(a, a, [0.7])
        assert gap[0] == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_is_tight(self):
        a = np.array([[4.0, 1.0]])
        b = np.array([[2.0, 2.5]])
        gap = weighted_fraction_gap(a, b, [0.0])
        assert gap[0] == pytest.approx(0.0, abs=1e-12)

    def test_alpha_one_holds(self):
        a = np.array([[4.0, 1.0]])
        b = np.array([[2.0, 2.5]])
        assert weighted_fraction_gap(a, b, [1.0])[0] <= 1e-12

    def test_known_sign(self):
        a = np.array([[3.0, 0.5]])
        b = np.array([[1.0, 1.0]])
        assert weighted_fraction_gap(a, b, [0.5])[0] <= 0.0

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10), min_size=2, max_size=6),
        st.lists(st.floats(min_value=0.01, max_value=10), min_size=2, max_size=6),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=300)
    def test_inequality_holds(self, a, b, alpha):
        k = min(len(a), len(b))
        gap = weighted_fraction_gap(np.array([a[:k]]), np.array([b[:k]]), [alpha])
        assert gap[0] <= 1e-9

    def test_validation(self):
        with pytest.raises(DataError):
            weighted_fraction_gap([[1.0]], [[0.0]], [0.5])
        with pytest.raises(DataError):
            weighted_fraction_gap([[1.0]], [[1.0]], [1.5])
        with pytest.raises(DataError):
            weighted_fraction_gap([[1.0, 2.0]], [[1.0]], [0.5])
        # A 3-D stack of rows, and rows without entries (a 0/0 gap).
        for a, alpha in [(np.ones((2, 2, 2)), [0.5, 0.5]), (np.empty((2, 0)), [0.5, 0.5]), ([], [0.5])]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="one row or a matrix of rows, with at least one column"):
                    weighted_fraction_gap(a, a, alpha)

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 129])
    def test_equals_the_row_major_sums(self, k):
        # Terms of mixed magnitude, so that another summation order rounds differently.
        rng = np.random.default_rng(k)
        a, b = (rng.uniform(0.01, 10.0, (60, k)) * 10.0 ** rng.integers(-6, 6, (60, k)) for _ in range(2))
        alpha = rng.random(60)
        al = alpha[:, None]
        lhs = ((a - b) / ((1.0 - al) + al * (a / b))).sum(axis=1)
        sa, sb = a.sum(axis=1), b.sum(axis=1)
        expected = lhs - (sa - sb) / ((1.0 - alpha) + alpha * (sa / sb))
        assert weighted_fraction_gap(a, b, alpha).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("a, b, alpha, message", [
        (["1", "2"], ["2", "3"], ["0.5"], "a must be an array of numbers ('2' is not a real number)"),
        ([1.0, 2.0], [2.0, True], [0.5], "b must be an array of numbers (True is not a real number)"),
        ([1.0, 2.0], [2.0, 3.0], [None], "alpha must be an array of numbers (None is not a real number)"),
        ([[np.nan, 1.0]], [[1.0, 1.0]], [0.5], "requires finite a >= 0 and b > 0"),
        ([[1.0, 1.0]], [[1.0, np.nan]], [0.5], "requires finite a >= 0 and b > 0"),
        ([[np.inf, 1.0]], [[1.0, 1.0]], [0.5], "requires finite a >= 0 and b > 0"),
        ([[1.0, 1.0]], [[1.0, np.inf]], [0.0], "requires finite a >= 0 and b > 0"),
        ([[1.0, 1.0]], [[1.0, 1.0]], [np.nan], "alpha must lie in [0, 1]"),
    ], ids=["text", "bool", "none", "nan-a", "nan-b", "inf-a", "inf-b", "nan-alpha"])
    def test_text_and_non_finite_values_are_refused(self, a, b, alpha, message):
        # Each argument holds numbers, and a NaN or an infinity is out of
        # range rather than a NaN gap.
        with pytest.raises(DataError) as caught:
            weighted_fraction_gap(a, b, alpha)
        assert str(caught.value) == message


def _row_major_proportions(rng, shape, moderate=False):
    # The verify suite's simplex draws as they were written on (trials, k) rows.
    e = rng.exponential(1.0, size=shape)
    if moderate:
        e += 0.5
    else:
        e[e.sum(axis=-1) == 0.0] = 1.0
    return e / e.sum(axis=-1, keepdims=True)


class TestProportions:
    @pytest.mark.parametrize("k", [1, 2, 5, 8, 9, 12, 20, 130])
    @pytest.mark.parametrize("moderate", [False, True])
    def test_equal_the_row_major_form(self, k, moderate):
        for trials in (1, 7, 1000):
            drawn, expected = (f(np.random.Generator(np.random.Philox(key=k)), (trials, k), moderate)
                               for f in (analysis._proportions, _row_major_proportions))
            assert drawn.tobytes(order="C") == expected.tobytes(order="C")

    def test_a_row_of_zero_draws_is_uniform(self):
        draws = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 4.0], [0.0, 0.0, 5e-324]])
        rng = SimpleNamespace(exponential=lambda scale, size: draws.copy())
        expected = _row_major_proportions(rng, draws.shape)
        assert analysis._proportions(rng, draws.shape).tobytes(order="C") == expected.tobytes(order="C")
        assert expected[0].tolist() == [1 / 3] * 3


PROPERTY_NAMES = ("P1-boundary", "P1-infinity", "P2", "P3", "P4", "hpp-consistency", "young-range",
                  "weighted-fraction")


def _check(report, name):
    return {c.name: c for c in report.checks}[name]


class TestVerifyProperties:
    def test_small_run_passes(self, hpp_params):
        report = verify_properties(hpp_params, trials=300, seed=2, rays=30)
        assert report.passed
        assert tuple(c.name for c in report.checks) == PROPERTY_NAMES
        for check in report.checks:
            assert check.violations == 0

    @pytest.mark.parametrize("horizon", [2.0**-8, 1e308])
    def test_extreme_horizon_margins_are_numbers(self, horizon):
        # A tiny horizon underflows every product depth to 0 (0/0 in the P3
        # ratio); a huge one overflows when scaled. Neither warns or gives NaN.
        params = DepthParams(0.0, 1.0, 0.25, (0.5, 0.5), horizon=horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_properties(params, trials=50, seed=1, rays=3)
        assert all(math.isfinite(c.worst_margin) for c in report.checks)
        assert _check(report, "P3").violations == 0

    def test_nan_margin_is_a_violation(self):
        assert analysis._tally("P3", 2, np.array([-1.0, math.nan])).violations == 1

    def test_reproducible(self, hpp_params):
        a = verify_properties(hpp_params, trials=100, seed=9, rays=10)
        b = verify_properties(hpp_params, trials=100, seed=9, rays=10)
        assert a == b

    def test_seed_changes_margins(self, hpp_params):
        a = verify_properties(hpp_params, trials=100, seed=1, rays=10)
        b = verify_properties(hpp_params, trials=100, seed=2, rays=10)
        assert a != b

    def test_sample_refit_route(self, hpp_sample, hpp_params):
        report = verify_properties(hpp_params, trials=100, seed=3, rays=10, sample=hpp_sample)
        assert report.passed

    def test_scale_shift_depth_invariance_via_refit(self, hpp_sample, hpp_params):
        reference = product_depth(hpp_sample.times[5], hpp_params)["product"]
        assert reference > 0
        for a, b in ((2.0, 0.0), (0.5, 3.0), (7.5, -4.0), (0.1, 10.0)):
            moved_sample = SampleSet(a * hpp_sample.start + b, a * hpp_sample.times + b)
            moved = product_depth(moved_sample.times[5], fit_params(moved_sample))["product"]
            assert moved == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refit_report_matches_one_fit_per_trial(self, seed):
        # The reference is the per-trial refit: one fit_params per moved
        # sample, gathered field by field. Every check, P3 included, must
        # agree exactly; 300 trials of n=1000 span several refit blocks.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=1000,
                                    seed=seed, start=1.5))
        params = fit_params(sample)
        batched = verify_properties(params, trials=300, seed=seed, rays=10, sample=sample)
        with patch.object(analysis, "fit_moved", _refit_one_trial_at_a_time):
            reference = verify_properties(params, trials=300, seed=seed, rays=10, sample=sample)
        assert batched.checks == reference.checks

    def test_refit_tests_the_estimator_on_the_sample_given(self):
        # Params fitted from one sample, verified with another: P3 compares
        # each moved refit with the refit of the given sample unmoved, not
        # with the params, so the mismatch is no violation of the invariance.
        config = SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=1000, seed=1)
        params = fit_params(simulate(config))
        other = simulate(replace(config, seed=2))
        report = verify_properties(params, trials=200, seed=1, rays=10, sample=other)
        assert _check(report, "P3").violations == 0 and report.passed, report
        # The other checks read the params, as without a sample.
        alone = verify_properties(params, trials=200, seed=1, rays=10)
        assert [c for c in report.checks if c.name != "P3"] == [c for c in alone.checks if c.name != "P3"]

    def test_refit_copies_the_sample_once(self):
        # The moved samples come from one event-major copy of the sample at
        # start 0: no second SampleSet, no transposed copy beside it.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=200_000,
                                    seed=17))
        params = fit_params(sample)
        verify_properties(params, trials=20, seed=1, rays=5, sample=sample)
        tracemalloc.start()
        try:
            verify_properties(params, trials=20, seed=1, rays=5, sample=sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.3 * sample.times.nbytes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refit_checks_the_offsets_as_a_sample(self, seed):
        # Row 1's offsets from the start overflow; row 0's are finite but
        # overflow once scaled by most factors. The error names the sample's
        # own first bad cell, whatever the moved samples are.
        sample = SampleSet(-1e308, [[0.0, 0.0], [1e308, 1e308]])
        params = DepthParams(start=-1e308, mu_last=1e308, var_last=1.0, u_bar=(0.5, 0.5))
        with pytest.raises(DataError, match="^realization 1, column 1: value is not finite$"):
            verify_properties(params, trials=10, seed=seed, rays=2, sample=sample)

    def test_counts_recorded(self, hpp_params):
        report = verify_properties(hpp_params, trials=50, seed=4, rays=7)
        assert report.trials == 50
        assert report.rays == 7
        assert _check(report, "P4").trials == 7
        assert _check(report, "P2").trials == 50

    def test_bad_arguments(self, hpp_params):
        with pytest.raises(DataError):
            verify_properties(hpp_params, trials=0, seed=1)
        with pytest.raises(DataError):
            verify_properties(hpp_params, trials=10, seed=1, rays=0)

    def test_mismatched_sample_rejected(self, hpp_params):
        other = simulate(SimConfig(kind="hpp", rates=(2.0,), k=3, n=10, seed=1))
        with pytest.raises(DataError, match="does not match"):
            verify_properties(hpp_params, trials=10, seed=1, rays=2, sample=other)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_domain(self, hpp_params, seed):
        # One seed domain with simulate: 0 <= seed < 2**64.
        with pytest.raises(DataError, match="seed must fit in 64 unsigned bits"):
            verify_properties(hpp_params, trials=10, seed=seed, rays=2)
        with pytest.raises(DataError, match="seed must fit in 64 unsigned bits"):
            SimConfig(kind="hpp", rates=(1.0,), k=2, n=10, seed=seed)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", math.nan), ("trials", True), ("trials", 2.5),
        ("rays", True), ("rays", 2.5), ("rays", None),
    ])
    def test_seed_trials_and_rays_are_integers(self, hpp_params, name, value):
        arguments = {"trials": 10, "seed": 1, "rays": 2, name: value}
        with pytest.raises(DataError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            verify_properties(hpp_params, **arguments)

    def test_integral_floats_are_taken(self, hpp_params):
        report = verify_properties(hpp_params, trials=50.0, seed=np.float64(3), rays=1e1)
        assert report == verify_properties(hpp_params, trials=50, seed=3, rays=10)
        assert all(type(v) is int for v in (report.seed, report.trials, report.rays))

    @pytest.mark.parametrize("t0", [1e6, 1e9, 1.7e9])
    def test_passes_on_epoch_timestamps(self, t0):
        # Event times far from zero with durations of a few seconds, as in
        # recorded data: the checks run on offsets from the start, so P3
        # holds at its unchanged tolerance, with and without a refit.
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=3, n=2000, seed=3, start=t0))
        params = fit_params(sample)
        report = verify_properties(params, trials=2000, seed=1, rays=50)
        assert report.passed, report
        refit = verify_properties(params, trials=100, seed=1, rays=10, sample=sample)
        assert refit.passed, refit

    @pytest.mark.parametrize("t0", [1.5, 1e6, 1.7e9])
    def test_report_does_not_depend_on_start(self, hpp_sample, hpp_params, t0):
        expected = verify_properties(hpp_params, trials=300, seed=2, rays=20)
        assert verify_properties(replace(hpp_params, start=t0), trials=300, seed=2, rays=20) == expected
        # The refit route sees the sample's offsets from its start.
        moved = SampleSet(t0, hpp_sample.times + t0)
        offsets = SampleSet(0.0, moved.times - t0)
        refit = verify_properties(replace(hpp_params, start=t0), trials=30, seed=2, rays=5, sample=moved)
        assert refit == verify_properties(hpp_params, trials=30, seed=2, rays=5, sample=offsets)

    def test_works_for_k3(self):
        sample = simulate(SimConfig(kind="hpp", rates=(1.5,), k=3, n=80, seed=21))
        params = fit_params(sample)
        report = verify_properties(params, trials=200, seed=5, rays=20)
        assert report.passed
