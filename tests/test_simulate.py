import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tppdepth import DataError, SimConfig, simulate

from _oracles import erlang_cdf, ks_statistic


class TestSimConfig:
    def test_valid_hpp(self):
        config = SimConfig(kind="hpp", rates=(2.0,), k=2, n=10, seed=1)
        assert config.rates == (2.0,)

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            SimConfig(kind="hawkes", rates=(1.0,), k=2, n=10)

    def test_hpp_needs_single_rate(self):
        with pytest.raises(DataError):
            SimConfig(kind="hpp", rates=(1.0, 2.0), k=2, n=10)

    def test_state_dependent_needs_k_rates(self):
        with pytest.raises(DataError):
            SimConfig(kind="state-dependent", rates=(1.0,), k=2, n=10)

    def test_rates_positive(self):
        with pytest.raises(DataError):
            SimConfig(kind="hpp", rates=(0.0,), k=2, n=10)

    def test_counts_positive(self):
        with pytest.raises(DataError):
            SimConfig(kind="hpp", rates=(1.0,), k=0, n=10)
        with pytest.raises(DataError):
            SimConfig(kind="hpp", rates=(1.0,), k=2, n=0)

    def test_seed_range(self):
        with pytest.raises(DataError):
            SimConfig(kind="hpp", rates=(1.0,), k=2, n=10, seed=-1)
        with pytest.raises(DataError):
            SimConfig(kind="hpp", rates=(1.0,), k=2, n=10, seed=2**64)

    def test_sample_must_fit_one_array(self):
        # Only configs are built here: nothing of this size is allocated.
        limit = np.iinfo(np.intp).max // 8
        assert SimConfig(kind="hpp", rates=(1.0,), k=1, n=limit).n == limit
        for k, n in [(1, limit + 1), (2, limit // 2 + 1), (10**11, 10**11), (1, 1e300)]:
            with pytest.raises(DataError, match="event times do not fit in one array"):
                SimConfig(kind="hpp", rates=(1.0,), k=k, n=n)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.7), ("n", 5.9), ("seed", 1.5), ("k", True), ("n", True), ("seed", False), ("k", "2"),
        ("k", math.inf),
    ])
    def test_counts_are_integers(self, name, value):
        settings = {"kind": "hpp", "rates": (2,), "k": 2, "n": 5, "seed": 1, name: value}
        with pytest.raises(DataError, match=f"{name} must be an integer"):
            SimConfig(**settings)

    def test_integral_floats_are_taken(self):
        config = SimConfig(kind="hpp", rates=(2,), k=2.0, n=1e1, seed=np.float64(3))
        assert (config.k, config.n, config.seed) == (2, 10, 3)
        assert all(type(v) is int for v in (config.k, config.n, config.seed))
        same = SimConfig(kind="hpp", rates=(2,), k=np.int64(2), n=10, seed=3)
        assert np.array_equal(simulate(config).times, simulate(same).times)

    @pytest.mark.parametrize("name, value, message", [
        ("rates", (True,), "every rate"), ("rates", ("2",), "every rate"), ("rates", (2.0, None), "every rate"),
        ("start", False, "start"), ("start", "1.5", "start"),
    ])
    def test_rates_and_start_are_numbers(self, name, value, message):
        # Checked, not converted: True and "2" are not rates, False and "1.5" not a start.
        with pytest.raises(DataError, match=f"{message} must be a number"):
            SimConfig(**{"kind": "hpp", "rates": (2.0,), "k": 2, "n": 5, name: value})

    def test_numbers_of_any_real_type_are_taken(self):
        config = SimConfig(kind="hpp", rates=[np.float32(2.0)], k=2, n=5, start=np.int64(1))
        assert config.rates == (2.0,) and config.start == 1.0
        assert type(config.rates[0]) is float and type(config.start) is float

    @pytest.mark.parametrize("name, value, message", [
        ("rates", 2.0, "rates must be a sequence of numbers, got 2.0"),
        ("rates", (10**400,), "every rate must fit in a float"),
        ("rates", (10**5000, "x"), "every rate must fit in a float"),
        ("start", 10**400, "start must fit in a float"),
        ("seed", 10**5000, "seed must fit in 64 unsigned bits, got a value of type int"),
        ("kind", 10**5000, "unknown process kind a value of type int"),
        ("n", 10**400, "n*k = 1.00e+400 event times do not fit in one array"),
    ], ids=["rates-number", "rate-beyond-the-float-range", "rate-beyond-the-digit-limit", "start", "seed", "kind", "n"])
    def test_huge_or_misshapen_values_are_data_errors(self, name, value, message):
        with pytest.raises(DataError) as caught:
            SimConfig(**{"kind": "hpp", "rates": (2.0,), "k": 1, "n": 2, name: value})
        assert str(caught.value) == message

    def test_fractions_are_taken(self):
        config = SimConfig(kind="hpp", rates=[Fraction(5, 2)], k=2, n=5, start=Fraction(1, 4))
        assert config.rates == (2.5,) and config.start == 0.25

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_start_finite(self, start):
        with pytest.raises(DataError, match="start must be finite"):
            SimConfig(kind="hpp", rates=(1.0,), k=2, n=10, start=start)


class TestDeterminism:
    def test_same_seed_identical(self):
        config = SimConfig(kind="hpp", rates=(2.0,), k=3, n=50, seed=123)
        a = simulate(config)
        b = simulate(config)
        assert np.array_equal(a.times, b.times)

    def test_different_seed_differs(self):
        a = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=50, seed=1))
        b = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=50, seed=2))
        assert not np.array_equal(a.times, b.times)

    def test_state_dependent_deterministic(self):
        config = SimConfig(kind="state-dependent", rates=(2.5, 10.0), k=2, n=50, seed=7)
        assert np.array_equal(simulate(config).times, simulate(config).times)


class TestOneShotFormula:
    @given(kind=st.sampled_from(["hpp", "state-dependent"]), k=st.integers(1, 12), n=st.integers(1, 300),
           start=st.sampled_from([0.0, 1.5, 1.7e9, -3.5]), seed=st.integers(0, 2**64 - 1), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_times_have_the_bits_of_the_one_shot_cumsum(self, kind, k, n, start, seed, data):
        # The reference formula, written out: one cumsum along the rows of
        # the gap matrix drawn from the same Philox stream.
        count = 1 if kind == "hpp" else k
        rates = tuple(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=count, max_size=count)))
        sample = simulate(SimConfig(kind=kind, rates=rates, k=k, n=n, start=start, seed=seed))
        u = np.random.Generator(np.random.Philox(key=seed)).random((n, k))
        expected = start + np.cumsum(-np.log1p(-u) / np.asarray(rates), axis=1)
        assert sample.times.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestMemory:
    def test_draws_are_transformed_in_place(self):
        # numpy reports its buffers to tracemalloc: the gaps, their cumulative
        # sum and the shift by the start are built in the (n, k) draw array,
        # so the peak is the draws, the sample's copy of them and the times
        # check's boolean masks: 2.29x the matrix here.
        config = SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=100_000, seed=17)
        tracemalloc.start()
        try:
            sample = simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * sample.times.nbytes


class TestValidity:
    def test_sequences_are_ordered_from_start(self):
        sample = simulate(SimConfig(kind="hpp", rates=(5.0,), k=4, n=1000, seed=3, start=2.0))
        assert sample.start == 2.0
        assert np.all(sample.times[:, 0] >= 2.0)
        assert np.all(np.diff(sample.times, axis=1) >= 0)

    def test_start_offset_shifts_times(self):
        base = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=20, seed=9, start=0.0))
        moved = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=20, seed=9, start=10.0))
        np.testing.assert_allclose(moved.times, base.times + 10.0, rtol=0, atol=1e-12)


class TestMoments:
    def test_hpp_duration_mean(self):
        n = 100000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=11))
        se = np.sqrt(0.5 / n)  # duration variance k/rate^2
        assert abs(sample.durations().mean() - 1.0) < 3 * se

    def test_hpp_first_gap_proportion(self):
        n = 100000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=11))
        proportions = sample.gaps()[:, 0] / sample.durations()
        se = np.sqrt((1 / 12) / n)  # uniform proportion for k=2
        assert abs(proportions.mean() - 0.5) < 3 * se

    def test_state_dependent_event_means(self):
        n = 100000
        sample = simulate(
            SimConfig(kind="state-dependent", rates=(2.5, 10.0), k=2, n=n, seed=12)
        )
        se1 = np.sqrt(0.16 / n)  # var 1/2.5^2
        se2 = np.sqrt(0.17 / n)  # var 1/2.5^2 + 1/10^2
        assert abs(sample.times[:, 0].mean() - 0.4) < 3 * se1
        assert abs(sample.times[:, 1].mean() - 0.5) < 3 * se2

    def test_equal_rates_match_hpp_moments(self):
        n = 50000
        hpp = simulate(SimConfig(kind="hpp", rates=(3.0,), k=2, n=n, seed=4))
        state = simulate(
            SimConfig(kind="state-dependent", rates=(3.0, 3.0), k=2, n=n, seed=4)
        )
        # Same seed and same per-event rates: identical draws.
        assert np.array_equal(hpp.times, state.times)

    def test_duration_ks_against_closed_form(self):
        n = 100000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=11))
        distance = ks_statistic(sample.durations(), lambda x: erlang_cdf(x, 2, 2.0))
        critical = 1.62762 / np.sqrt(n)  # 1% asymptotic critical value
        assert distance < critical

    def test_first_proportion_is_uniform_for_k2(self):
        # With two constant-rate gaps the first normalized gap is U(0, 1).
        n = 100000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=13))
        proportions = sample.gaps()[:, 0] / sample.durations()
        distance = ks_statistic(proportions, lambda x: min(max(x, 0.0), 1.0))
        assert distance < 1.62762 / np.sqrt(n)

    def test_first_proportion_is_beta_for_k3(self):
        # Three constant-rate gaps: first normalized gap has CDF 1-(1-x)^2.
        n = 100000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=3, n=n, seed=13))
        proportions = sample.gaps()[:, 0] / sample.durations()
        cdf = lambda x: 1.0 - (1.0 - min(max(x, 0.0), 1.0)) ** 2
        assert ks_statistic(proportions, cdf) < 1.62762 / np.sqrt(n)

    def test_proportions_uncorrelated_with_duration(self):
        # Normalized gaps are independent of the duration for constant
        # rates, which is what justifies the unconditional proportion
        # estimator; the sample correlation must sit at noise level.
        n = 100000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=14))
        proportions = sample.gaps()[:, 0] / sample.durations()
        corr = np.corrcoef(proportions, sample.durations())[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)


class TestErlangOracle:
    def test_against_scipy(self):
        gamma = pytest.importorskip("scipy.stats").gamma
        for x in (0.1, 0.5, 1.0, 2.5, 7.0):
            assert erlang_cdf(x, 2, 2.0) == pytest.approx(gamma.cdf(x, a=2, scale=0.5), rel=1e-12)
            assert erlang_cdf(x, 5, 1.3) == pytest.approx(gamma.cdf(x, a=5, scale=1 / 1.3), rel=1e-12)
