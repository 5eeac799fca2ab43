import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tppdepth import DataError, SampleSet, depth, depth_values, fit_params, hpp_conditional_depth
from tppdepth.analysis import METHODS
from tppdepth.sequences import EventTimeError, check_times


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def samples(draw):
    """(n, k) samples whose rows often repeat a time (zero gaps), with the
    start at or below the earliest time."""
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=-1e6, max_value=1e6))
    times = np.sort(np.array(draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=n, max_size=n))),
                    axis=1)
    low = float(times.min())
    start = draw(st.one_of(st.just(low), st.floats(min_value=low - 1e6, max_value=low)))
    return SampleSet(start, times)


class TestEventSequence:
    """One realization is a (k,) vector of absolute times, checked by
    EventSequence from its start wherever a scalar depth takes it."""

    def test_basic_fields(self):
        assert hpp_conditional_depth([0.3, 1], 0) == hpp_conditional_depth((0.3, 1.0), 0.0)

    def test_ties_are_boundary(self):
        # A tie is a zero gap: allowed, and it puts the realization on the
        # boundary, where every depth is zero.
        for times in ((0.0, 1.0), (0.5, 0.5)):
            assert hpp_conditional_depth(times, 0.0) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            hpp_conditional_depth((), 0.0)

    def test_rejects_decreasing(self):
        with pytest.raises(DataError):
            hpp_conditional_depth((2.0, 1.0), 0.0)
        with pytest.raises(DataError):
            hpp_conditional_depth((0.5,), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            hpp_conditional_depth((1.0, float("inf")), 0.0)
        with pytest.raises(DataError):
            hpp_conditional_depth((1.0,), float("nan"))

    @pytest.mark.parametrize("start, times, message", [
        ("0", ("1", "2"), "start must be a number, got '0'"),
        (10**400, (1.0,), "start must fit in a float"),
        (0.0, ("1", "2"), "every event time must be a number, got '1'"),
        (0.0, (True,), "every event time must be a number, got True"),
        (0.0, 5, "times must be a sequence of numbers, got 5"),
    ], ids=["start-text", "start-huge", "times-text", "times-bool", "times-number"])
    def test_every_time_is_a_number_that_fits_in_a_float(self, start, times, message):
        with pytest.raises(DataError) as caught:
            hpp_conditional_depth(times, start)
        assert str(caught.value) == message


class TestSampleSet:
    def test_from_matrix(self):
        sample = SampleSet(0.0, [[1.0, 2.0], [3.0, 6.0]])
        assert sample.n == 2
        assert sample.k == 2
        assert sample.times[1].tolist() == [3.0, 6.0]
        np.testing.assert_allclose(sample.durations(), [2.0, 6.0])
        np.testing.assert_allclose(sample.gaps(), [[1.0, 1.0], [3.0, 3.0]])

    def test_row_before_start_rejected(self):
        with pytest.raises(DataError, match="realization 1"):
            SampleSet(1.0, [[2.0, 3.0], [0.5, 3.0]])

    def test_decreasing_row_rejected(self):
        with pytest.raises(DataError, match="realization 0"):
            SampleSet(0.0, [[2.0, 1.0]])

    @pytest.mark.parametrize("times, where", [
        ([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]], "realization 1, column 3"),
        ([[1.0, 2.0], [float("nan"), 3.0], [2.0, 1.0]], "realization 1, column 1: value is not finite"),
        ([[1.0, float("inf")]], "realization 0, column 2: value is not finite"),
    ])
    def test_error_names_first_bad_cell(self, times, where):
        with pytest.raises(DataError, match=where):
            SampleSet(0.0, times)

    @pytest.mark.parametrize("times", [[[1.0, 2.0], [1.0]], [[1.0, "x"]]], ids=["ragged", "text"])
    def test_not_a_matrix_of_numbers(self, times):
        with pytest.raises(DataError, match=r"\(n, k\) matrix of numbers"):
            SampleSet(0.0, times)

    @pytest.mark.parametrize("times", [
        [["1", "2"]], [[1.0, "2"]], [[1 + 2j, 3.0]], [[10**400, 10**401]], [[True, True]], np.ones((2, 2), dtype=bool),
        [[None, 1.0]], [[b"1", b"2"]],
    ], ids=["text", "mixed-text", "complex", "int-beyond-the-float-range", "bool", "bool-array", "none", "bytes"])
    def test_cells_that_are_not_real_numbers(self, times):
        # Nothing is parsed or converted: text, a bool or a complex cell is
        # an error, and so is a number beyond the float range.
        with pytest.raises(DataError, match=r"^event times must form an \(n, k\) matrix of numbers"):
            SampleSet(0.0, times)

    @pytest.mark.parametrize("times, cell", [
        ([[True, 2.0]], "True"), ([[1.0, 2.0], [3.0, False]], "False"), ([[np.bool_(True), 2.0]], repr(np.bool_(True))),
        ([np.array([1.0, 2.0]), [True, 3.0]], "True"),
    ], ids=["first", "last", "numpy-bool", "beside-an-array-row"])
    def test_a_bool_cell_among_numbers(self, times, cell):
        # A list is not coerced by numpy before its cells are checked.
        with pytest.raises(DataError) as caught:
            SampleSet(0.0, times)
        assert str(caught.value) == f"event times must form an (n, k) matrix of numbers ({cell} is not a real number)"

    @pytest.mark.parametrize("times", [
        [[1, 2]], [[Fraction(1, 2), 2]], [[np.int64(1), np.float32(2.0)]], np.array([[1.0, 2.0]], dtype=np.float32),
        np.array([[1, 2]], dtype=np.uint8), [[2**64, 2**65]],
    ], ids=["ints", "fractions", "numpy-scalars", "float32", "uint8", "ints-beyond-int64"])
    def test_cells_of_any_real_type_are_taken(self, times):
        expected = [[float(t) for t in row] for row in np.asarray(times, dtype=object)]
        assert SampleSet(0.0, times).times.tolist() == expected

    @pytest.mark.parametrize("start, message", [
        ("0", "start must be a number, got '0'"), (True, "start must be a number, got True"),
        (10**400, "start must fit in a float"),
    ], ids=["text", "bool", "huge"])
    def test_start_is_a_number_that_fits_in_a_float(self, start, message):
        with pytest.raises(DataError) as caught:
            SampleSet(start, [[1.0, 2.0]])
        assert str(caught.value) == message

    def test_times_are_read_only(self):
        sample = SampleSet(0.0, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            sample.times[0, 0] = 5.0

    @pytest.mark.parametrize("name", ["times", "start", "n", "other"])
    def test_cannot_be_changed(self, name):
        sample = SampleSet(0.0, [[1.0, 2.0]])
        with pytest.raises(AttributeError):
            setattr(sample, name, np.array([[3.0, 4.0]]))
        assert sample.start == 0.0 and sample.times.tolist() == [[1.0, 2.0]]

    def test_later_writes_to_the_input_change_no_depth(self):
        # The constructor copies, so neither the sample nor what it
        # remembers sees a write to the caller's array.
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(1.0, (200, 3)), axis=1)
        original = times.copy()
        sample = SampleSet(0.0, times)
        params = fit_params(sample)
        before = {m: bits(depth_values(sample, params, m)) for m in METHODS}
        times *= 2.0
        times[0] = 0.0
        assert np.array_equal(bits(sample.times), bits(original))
        for method in METHODS:
            assert np.array_equal(bits(depth_values(sample, params, method)), before[method])
            fresh = SampleSet(0.0, sample.times)
            assert np.array_equal(bits(depth_values(fresh, params, method)), before[method])

    def test_times_cannot_be_made_writable(self):
        # The times live in a buffer owned by immutable bytes, so no flag
        # change reopens them to writes that the memo would not see.
        sample = SampleSet(0.0, [[1.0, 2.0], [0.5, 3.0]])
        depth_values(sample, None, "hpp-conditional")
        with pytest.raises(ValueError):
            sample.times.setflags(write=True)
        with pytest.raises(ValueError):
            sample.times[0, 0] = 0.75
        assert sample.times.tolist() == [[1.0, 2.0], [0.5, 3.0]]

    def test_a_float64_matrix_is_copied_once(self):
        # numpy reports its buffers to tracemalloc: building the sample
        # holds one copy of the times plus the times check's boolean masks.
        times = np.cumsum(np.random.default_rng(5).exponential(1.0, (50_000, 4)), axis=1)
        tracemalloc.start()
        try:
            sample = SampleSet(0.0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert times.nbytes <= peak < 1.5 * times.nbytes
        assert np.array_equal(bits(sample.times), bits(times)) and sample.times.flags.c_contiguous


def first_bad_cell(start, times):
    """The times check written out: None when every time is finite and
    nondecreasing from the start, else the first bad (row, column) in
    row-major order."""
    previous = np.concatenate([np.full((times.shape[0], 1), start), times[:, :-1]], axis=1)
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(times) & (times >= previous))
    return divmod(int(np.argmax(bad)), times.shape[1]) if bad.any() else None


class TestCheckTimes:
    def _assert_same_verdict(self, start, times):
        expected = first_bad_cell(start, times)
        if expected is None:
            check_times(start, times)
            return
        with pytest.raises(EventTimeError) as caught:
            check_times(start, times)
        row, col = expected
        assert (caught.value.row, caught.value.column) == (row, col + 1)
        assert (caught.value.reason == "value is not finite") == (not math.isfinite(times[row, col]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_non_finite_time_in_every_cell(self, k, value):
        # Only the last column is tested for finiteness; a NaN or an infinity
        # anywhere else fails a neighbour comparison or the one with the start.
        base = np.arange(1.0, 3 * k + 1).reshape(3, k)
        for row in range(3):
            for col in range(k):
                times = base.copy()
                times[row, col] = value
                self._assert_same_verdict(0.0, times)
                times[row, col:] = value  # the rest of the row too: equal neighbours
                self._assert_same_verdict(0.0, times)

    @given(k=st.integers(1, 5), n=st.integers(1, 6), start=st.sampled_from([-1.0, 0.0, 2.0]),
           ordered=st.booleans(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepts_what_the_finite_and_nondecreasing_rule_accepts(self, k, n, start, ordered, data):
        cell = st.sampled_from([-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, math.inf, math.nan])
        times = np.array(data.draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=n, max_size=n)))
        self._assert_same_verdict(start, np.sort(times, axis=1) if ordered else times)


class TestGaps:
    def test_distinct_times_far_from_the_start_keep_a_positive_gap(self):
        # Both offsets round to 1000001.0; the gap is still the difference
        # of the times, so the realization is not on the boundary.
        sample = SampleSet(-1e6, [[1.0, float(np.nextafter(1.0, 2.0))]])
        assert sample.gaps()[0, 1] > 0.0

    @given(samples())
    @settings(max_examples=200, deadline=None)
    def test_one_formula_bit_for_bit(self, sample):
        # The sample and the depth kernels get their gaps from one
        # function; np.diff is the independent reference.
        gaps = sample.gaps()
        reference = np.diff(sample.times, axis=1, prepend=sample.start)
        assert np.array_equal(bits(gaps), bits(reference))
        first = sample.times[:, 0] - sample.start
        assert np.array_equal(bits(depth.gap_matrix(sample.times.T, first)), bits(gaps.T))

    @given(k=st.integers(1, 20), n=st.one_of(st.just(1), st.integers(1, 5000)),
           start=st.sampled_from([0.0, 1.5, 1.7e9]), layout=st.sampled_from(["view", "contiguous"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_event_major_layouts(self, k, n, start, layout, seed):
        # The event-major input is the transposed view of a C-ordered (n, k)
        # sample or a contiguous (k, n) copy; either way one contiguous row
        # per event comes back, with the bits of the row-wise np.diff.
        rng = np.random.default_rng(seed)
        steps = rng.exponential(1.0, (n, k)) * 10.0 ** rng.integers(-8, 3, (n, k))
        steps[rng.random((n, k)) < 0.05] = 0.0
        times = start + np.cumsum(steps, axis=1)
        event_major = times.T if layout == "view" else np.ascontiguousarray(times.T)
        gaps = depth.gap_matrix(event_major, times[:, 0] - start)
        assert gaps.shape == (k, n) and gaps.flags.c_contiguous
        assert np.array_equal(bits(gaps.T), bits(np.diff(times, axis=1, prepend=start)))
        sample_gaps = SampleSet(start, times).gaps()
        assert sample_gaps.T.flags.c_contiguous
        assert np.array_equal(bits(sample_gaps), bits(gaps.T))
