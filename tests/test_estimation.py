import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tppdepth.estimation as estimation
from tppdepth import (
    DataError,
    SampleSet,
    SimConfig,
    fit_mahalanobis,
    fit_params,
    simulate,
    verify_properties,
)
from tppdepth.depth import PARAM_FIELDS
from tppdepth.estimation import U_BAR_CHUNK_BYTES


@pytest.fixture
def two_point_sample():
    return SampleSet(0.0, [[1.0, 2.0], [3.0, 6.0]])


class TestFitParams:
    def test_hand_arithmetic(self, two_point_sample):
        params = fit_params(two_point_sample)
        assert params.mu_last == 4.0
        assert params.var_last == 8.0
        assert params.u_bar == (0.5, 0.5)
        assert params.eta == 4.0
        assert params.big_m == 4.0
        assert params.center == (2.0, 4.0)

    def test_big_m_override(self, two_point_sample):
        params = replace(fit_params(two_point_sample), horizon=9.0)
        assert params.big_m == 9.0
        assert params.eta == 4.0

    def test_identical_realizations_rejected(self):
        sample = SampleSet(0.0, [[1.0, 2.0]] * 5)
        with pytest.raises(DataError, match="variance"):
            fit_params(sample)

    def test_single_realization_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_params(SampleSet(0.0, [[1.0, 2.0]]))

    def test_zero_duration_rejected(self):
        sample = SampleSet(1.0, [[1.0, 1.0], [2.0, 3.0]])
        with pytest.raises(DataError, match="zero duration"):
            fit_params(sample)

    @pytest.mark.parametrize("times, message", [
        ([[1.0, 2.0], [1.5, np.nan], [0.5, 3.0], [2.0, 2.5]], "realization 1, column 2: value is not finite"),
        ([[1.0, 2.0], [2.5, 2.0], [0.5, 3.0], [2.0, 2.5]],
         "realization 1, column 2: event time 2.0 precedes the previous event 2.5"),
        ([[1.0, 2.0], [0.0, 0.0], [0.5, 3.0], [2.0, 2.5]],
         "realization 1 has zero duration; normalized gaps are undefined"),
        ([[1.0, 2.0], [1.5, 2.0], [0.5, 2.0], [0.25, 2.0]],
         "degenerate variance: all realizations share the same duration"),
        ([[0.0, 2.0], [0.0, 4.0], [0.0, 3.0], [0.0, 2.5]], "every gap proportion must lie in (0, 1]"),
        # The one nonzero second gap is half an ulp of the mean proportion:
        # the two center times round together.
        ([[1.0, np.nextafter(1.0, 2.0)], [2.0, 2.0], [3.0, 3.0], [1.5, 1.5]],
         "central event times must be strictly increasing"),
    ], ids=["not-finite", "decreasing", "zero-duration", "degenerate", "proportion", "center"])
    def test_one_sample_failures(self, times, message):
        # Each sample fails one check of SampleSet, fit_params or DepthParams.
        assert _one_sample_error(0.0, np.array(times)) == message

    def test_proportions_form_probability_vector(self):
        sample = simulate(SimConfig(kind="hpp", rates=(3.0,), k=4, n=500, seed=5))
        params = fit_params(sample)
        assert all(u > 0 for u in params.u_bar)
        assert sum(params.u_bar) == pytest.approx(1.0, abs=1e-12)

    def test_order_independence(self):
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=3, n=200, seed=9))
        shuffled = SampleSet(0.0, sample.times[::-1].copy())
        a = fit_params(sample)
        b = fit_params(shuffled)
        assert a.mu_last == pytest.approx(b.mu_last, rel=1e-12)
        assert a.var_last == pytest.approx(b.var_last, rel=1e-12)
        assert a.u_bar == pytest.approx(b.u_bar, rel=1e-12)

    def test_equivariance_identities(self):
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=300, seed=3))
        base = fit_params(sample)
        a, b = 2.5, -1.25
        moved = fit_params(SampleSet(a * sample.start + b, a * sample.times + b))
        assert moved.mu_last == pytest.approx(a * base.mu_last, rel=1e-12)
        assert moved.var_last == pytest.approx(a * a * base.var_last, rel=1e-12)
        assert moved.u_bar == pytest.approx(base.u_bar, rel=1e-12)
        assert moved.eta == pytest.approx(a * base.eta + b, rel=1e-12)
        assert moved.center == pytest.approx(
            tuple(a * c + b for c in base.center), rel=1e-12
        )

    def test_monte_carlo_constant_rate(self):
        # rate 2, k 2: duration mean 1.0 (variance 0.5), first-gap
        # proportion mean 0.5 (variance 1/12).
        n = 10000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=42))
        params = fit_params(sample)
        se_mu = np.sqrt(0.5 / n)
        assert abs(params.mu_last - 1.0) < 3 * se_mu
        se_u = np.sqrt((1 / 12) / n)
        assert abs(params.u_bar[0] - 0.5) < 3 * se_u
        assert abs(params.u_bar[1] - 0.5) < 3 * se_u


class TestFitMahalanobis:
    def test_hand_arithmetic(self, two_point_sample):
        mean, cov = fit_mahalanobis(two_point_sample)
        np.testing.assert_allclose(mean, [2.0, 4.0])
        np.testing.assert_allclose(cov, [[2.0, 4.0], [4.0, 8.0]])

    def test_single_point_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_mahalanobis(SampleSet(0.0, [[1.0, 2.0]]))

    def test_k1_shape(self):
        mean, cov = fit_mahalanobis(SampleSet(0.0, [[1.0], [3.0]]))
        assert mean.shape == (1,)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == 2.0

    def test_monte_carlo_mean(self):
        # Event i of a rate-2 process has mean i/2.
        n = 10000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=77))
        mean, _ = fit_mahalanobis(sample)
        se1 = np.sqrt(0.25 / n)
        se2 = np.sqrt(0.5 / n)
        assert abs(mean[0] - 0.5) < 3 * se1
        assert abs(mean[1] - 1.0) < 3 * se2

    @given(k=st.integers(1, 12), n=st.integers(2, 5000), start=st.sampled_from([0.0, 1.5, 1.7e9, -3.0]),
           tied=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_numpy_bits(self, k, n, start, tied, seed):
        # One column mean serves the mean and the centring; the covariance
        # keeps the bits of np.cov's own steps.
        rng = np.random.default_rng(seed)
        times = start + np.cumsum(rng.exponential(1.0, (n, k)) * 10.0 ** rng.integers(-3, 3, k), axis=1)
        times[rng.integers(0, n, tied)] = times[0]  # tied rows
        mean, cov = fit_mahalanobis(SampleSet(start, times))
        assert np.array_equal(_bits(mean), _bits(times.mean(axis=0)))
        expected = np.atleast_2d(np.cov(times, rowvar=False, ddof=1))
        assert cov.shape == (k, k) and np.array_equal(_bits(cov), _bits(expected))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _one_sample_error(start, times):
    # The error fit_params gives the sample alone (SampleSet's check included), or None.
    try:
        fit_params(SampleSet(start, times))
    except DataError as exc:
        return str(exc)
    return None


@st.composite
def _samples(draw):
    # Cumulated gaps with a few exact zeros, from a nonzero start: boundary
    # rows, zero durations and equal durations occur now and then.
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 12))
    gaps = draw(hnp.arrays(float, (n, k), elements=st.floats(1e-3, 1e3)))
    for row, col in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=3)):
        gaps[row, col] = 0.0
    start = draw(st.floats(-1e6, 1e6).filter(lambda v: v != 0.0))
    return SampleSet(start, start + np.cumsum(gaps, axis=1))


class TestFitStack:
    @settings(max_examples=150, deadline=None)
    @given(sample=_samples(), rows=st.integers(1, 40), extra=st.sampled_from([-1, 0, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_verifier_fields_equal_one_fit_per_trial(self, sample, rows, extra, seed):
        # Trial counts of one block less one, one block and one block plus
        # one, under a drawn row budget: full, partial and one-sample blocks.
        block = max(1, rows // sample.n)
        trials = max(1, block + extra)
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 10.0, size=trials)
        b = rng.uniform(-10.0, 10.0, size=trials)
        moved = [(a[i] * sample.start + b[i], a[i] * sample.times + b[i]) for i in range(trials)]
        errors = [_one_sample_error(*m) for m in moved]
        times = np.ascontiguousarray(sample.times.T)
        with patch.object(estimation, "REFIT_ROWS", rows):
            if any(errors):
                with pytest.raises(DataError) as caught:
                    estimation.fit_moved(times, sample.start, a, b)
                assert str(caught.value) == next(e for e in errors if e)
                return
            fields = estimation.fit_moved(times, sample.start, a, b)
        for i, m in enumerate(moved):
            expected = fit_params(SampleSet(*m))
            for name in PARAM_FIELDS:
                assert np.array_equal(_bits(getattr(fields, name)[i]), _bits(getattr(expected, name))), (i, name)

    @settings(max_examples=100, deadline=None)
    @given(sample=_samples(), trials=st.integers(1, 3))
    def test_the_unmoved_refit_is_fit_params(self, sample, trials):
        # a = 1, b = 0 moves nothing: P3's reference is then the sample's own
        # fit, bit for bit, or its error.
        times = np.ascontiguousarray(sample.times.T)
        ones, zeros = np.ones(trials), np.zeros(trials)
        expected = _one_sample_error(sample.start, sample.times)
        if expected:
            with pytest.raises(DataError) as caught:
                estimation.fit_moved(times, sample.start, ones, zeros)
            assert str(caught.value) == expected
            return
        fields = estimation.fit_moved(times, sample.start, ones, zeros)
        params = fit_params(sample)
        for name in PARAM_FIELDS:
            assert np.array_equal(_bits(getattr(fields, name)), _bits([getattr(params, name)] * trials)), name

    def test_refit_allocates_its_buffers_once(self):
        # The stack, the operands and the buffer of u_bar's sum (2.4 stacks
        # of one block here) are allocated once per call, and a block adds
        # no allocation of a stack's size, such as a fresh gap matrix.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=1000,
                                    seed=17))
        times = np.ascontiguousarray(sample.times.T)
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.1, 10.0, 1000), rng.uniform(-10.0, 10.0, 1000)
        stack_bytes = times.nbytes * (estimation.REFIT_ROWS // sample.n)
        estimation.fit_moved(times, 0.0, a, b)
        tracemalloc.start()
        try:
            estimation.fit_moved(times, 0.0, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * stack_bytes

    @pytest.mark.parametrize("n", [100, 1000, 20000, 200000])
    def test_batch_of_one_is_an_independent_fit(self, n):
        # fit_params against plain numpy on the sample's own arrays: the
        # duration moments over one contiguous vector, u_bar a row-axis mean.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=n,
                                    seed=n, start=1.5))
        params = fit_params(sample)
        durations = sample.times[:, -1] - sample.start
        gaps = np.diff(sample.times, axis=1, prepend=sample.start)
        assert params.mu_last == durations.mean()
        assert params.var_last == durations.var(ddof=1)
        assert np.array_equal(_bits(params.u_bar), _bits((gaps / durations[:, None]).mean(axis=0)))

    @pytest.mark.parametrize("c", [1, 2, 16])
    @pytest.mark.parametrize("at", ["two", "rows-1", "rows", "rows+1", "3*rows+2"])
    def test_stack_bits_across_u_bar_chunks(self, c, at):
        # fit_params sums u_bar a chunk of `rows` realizations at a time,
        # fit_moved one stack of moved samples at a time: sample sizes on
        # both sides of one and three chunk boundaries keep, for each of c
        # moved samples, the fields of its own fit and the plain row-axis
        # mean as u_bar.
        k = 3
        rows = U_BAR_CHUNK_BYTES // (8 * k) - 1
        n = {"two": 2, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "3*rows+2": 3 * rows + 2}[at]
        rng = np.random.default_rng([c, n])
        start = rng.uniform(-5.0, 5.0)
        times = start + np.cumsum(rng.exponential(1.0, (n, k)) * 10.0 ** rng.integers(-2, 3, k), axis=1)
        a, b = rng.uniform(0.1, 10.0, c), rng.uniform(-10.0, 10.0, c)
        fields = estimation.fit_moved(np.ascontiguousarray(times.T), start, a, b)
        for i in range(c):
            moved = SampleSet(a[i] * start + b[i], a[i] * times + b[i])
            expected = fit_params(moved)
            for name in PARAM_FIELDS:
                assert np.array_equal(_bits(getattr(fields, name)[i]), _bits(getattr(expected, name))), (i, name)
            fractions = np.diff(moved.times, axis=1, prepend=moved.start) / moved.durations()[:, None]
            assert np.array_equal(_bits(expected.u_bar), _bits(fractions.mean(axis=0))), i

    def test_fit_holds_no_copy_of_the_gaps(self):
        # The normalized gaps are one matrix's worth; u_bar's sum adds a
        # cache-sized chunk, not a second (n, k) copy.
        sample = simulate(SimConfig(kind="state-dependent", rates=(2.5, 4.0, 6.0, 8.0, 10.0), k=5, n=200_000,
                                    seed=17))
        tracemalloc.start()
        try:
            fit_params(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * sample.times.nbytes

    def test_overflow_message(self):
        s = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=100, seed=1))
        with pytest.raises(DataError) as caught:
            verify_properties(fit_params(s), trials=20, seed=1, rays=2, sample=SampleSet(0, s.times * 5e306))
        assert str(caught.value) == "the duration mean overflows: the largest duration is 1.07941e+308"

    def test_mixed_block_raises_for_the_first_failing_sample(self):
        # Each moved sample fails one check of SampleSet or fit_params;
        # whichever comes first among the trials names the error, whatever
        # the later trials fail, in one block or in a block per trial.
        sample = SampleSet(0.0, [[1.0, 2.0], [1.5, 4.0], [0.5, 3.0], [2.0, 2.5]])
        times = np.ascontiguousarray(sample.times.T)
        failing = {"not finite": (1.0, np.nan), "zero duration": (1.0, 1e300),
                   "mean overflows": (2.5e307, 0.0), "variance overflows": (1e160, 0.0)}
        expected = {name: _one_sample_error(b, a * sample.times + b) for name, (a, b) in failing.items()}
        assert all(expected.values()) and len(set(expected.values())) == len(expected)
        for first in failing:
            later = [name for name in failing if name != first]
            for order in ([first, *later], [first, *later[::-1]]):
                a, b = np.array([(1.0, 0.0), (2.0, 1.0)] + [failing[name] for name in order]).T
                for rows in (estimation.REFIT_ROWS, sample.n):
                    with patch.object(estimation, "REFIT_ROWS", rows), pytest.raises(DataError) as caught:
                        estimation.fit_moved(times, sample.start, a, b)
                    assert str(caught.value) == expected[first], (order, rows)

    def test_one_row_fails_the_times_check_first(self):
        # A one-row sample fails the fit; a moved sample whose times are not
        # finite is still reported first, as SampleSet reports it.
        times, ones = np.array([[1.0], [2.0]]), np.ones(2)  # (k, n) = (2, 1)
        expected = _one_sample_error(np.nan, [[np.nan, np.nan]])
        assert expected == "the start time nan is not finite"
        for b, message in (([np.nan, 0.0], expected), ([0.0, np.nan], "need at least 2 realizations to fit, got 1")):
            with pytest.raises(DataError) as caught:
                estimation.fit_moved(times, 0.0, ones, np.array(b))
            assert str(caught.value) == message
