import json
import math
import re
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tppdepth import (
    DataError,
    DepthParams,
    EventSequence,
    SampleSet,
    conditional_depth,
    hpp_conditional_depth,
    mahalanobis_depth,
    marginal_depth_d1,
    marginal_factor,
    product_depth,
)
from tppdepth.analysis import METHODS, depth_breakdown, depth_values
from tppdepth.depth import (
    BLOCK_ROWS,
    BREAKDOWN_FIELDS,
    PARAM_FIELDS,
    RULES,
    U_BAR_SUM_TOL,
    _marginal,
    _row_sum,
    broken_rules,
    cumulative_times,
    depth_columns,
    hpp_conditional_column,
    mahalanobis_column,
)
from tppdepth.estimation import affine_fields
from tppdepth.io import load_params_json

from _oracles import (
    direct_conditional,
    direct_hpp_conditional,
    direct_mahalanobis,
    direct_marginal,
    direct_marginal_factor,
    direct_product,
)


@pytest.fixture
def params():
    return DepthParams(start=0.0, mu_last=1.0, var_last=0.25, u_bar=(0.5, 0.5))


def write_params(tmp_path, **doc):
    """A params file holding exactly ``doc``."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    return path


def bits(values):
    """The IEEE-754 bit patterns of float64 values, for bitwise comparison."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def interior_sequences(k=2):
    """Strategy for valid interior sequences starting at 0."""
    return st.lists(
        st.floats(min_value=1e-3, max_value=10.0), min_size=k, max_size=k
    ).map(lambda gaps: EventSequence(0.0, tuple(np.cumsum(gaps))))


class TestMarginalDepth:
    def test_peak_at_mean(self, params):
        assert marginal_depth_d1(1.0, params) == 1.0

    def test_one_sigma_is_half(self, params):
        assert marginal_depth_d1(1.5, params) == 0.5

    def test_vanishes_far_out(self, params):
        assert marginal_depth_d1(1e6, params) < 1e-9

    def test_extreme_input_underflows_cleanly(self, params):
        # The squared deviation overflows to inf; the depth comes back 0.
        assert marginal_depth_d1(1e200, params) == 0.0
        assert marginal_factor(1e200, params) == 0.0

    def test_matches_oracle(self, params):
        for last in (0.0, 0.3, 1.0, 2.7, 50.0):
            assert marginal_depth_d1(last, params) == pytest.approx(
                direct_marginal(last, 0.0, 1.0, 0.25), rel=1e-12
            )

    def test_omega_one_sigma(self):
        p = DepthParams(start=0.0, mu_last=2.0, var_last=1.0, u_bar=(1.0,))
        assert marginal_depth_d1(3.0, p) == 0.5


class TestMarginalFactor:
    def test_unit_at_eta(self, params):
        assert marginal_factor(1.0, params) == 1.0

    def test_half_sigma_case(self, params):
        # omega = 0.5 at 1.5, exponent = 0.5/1 = 0.5
        assert marginal_factor(1.5, params) == pytest.approx(0.5**0.5, abs=1e-12)
        assert marginal_factor(1.5, params) == pytest.approx(0.70711, abs=5e-6)

    def test_vanishes_at_infinity(self, params):
        assert marginal_factor(1e8, params) == 0.0

    def test_decreases_away_from_eta(self, params):
        lasts = [1.0, 1.2, 1.7, 2.5, 4.0]
        values = [marginal_factor(t, params) for t in lasts]
        assert all(a > b for a, b in zip(values, values[1:]))
        below = [marginal_factor(t, params) for t in (1.0, 0.8, 0.4, 0.1)]
        assert all(a > b for a, b in zip(below, below[1:]))

    def test_matches_oracle(self, params):
        for last in (0.1, 0.9, 1.5, 3.0):
            assert marginal_factor(last, params) == pytest.approx(
                direct_marginal_factor(last, 0.0, 1.0, 0.25, 1.0, 1.0), rel=1e-12
            )


class TestScalarArguments:
    # The scalar functions take numbers by the rule of errors.check_number:
    # no text is parsed and no bool converted; every real number keeps the
    # bits of its float.
    @pytest.mark.parametrize("function", [marginal_factor, marginal_depth_d1])
    @pytest.mark.parametrize("value, text", [("0.5", "'0.5'"), (True, "True"), (None, "None")])
    def test_last_time_is_a_number(self, params, function, value, text):
        with pytest.raises(DataError) as caught:
            function(value, params)
        assert str(caught.value) == f"last_time must be a number, got {text}"

    @pytest.mark.parametrize("times, message", [
        (["1", "2"], "every entry of times must be a number, got '1'"),
        ((True, 2.0), "every entry of times must be a number, got True"),
        (1.5, "times must be a sequence of numbers, got 1.5"),
    ], ids=["text", "bool", "scalar"])
    def test_mahalanobis_times_are_numbers(self, times, message):
        with pytest.raises(DataError) as caught:
            mahalanobis_depth(times, (1.0, 2.0), np.eye(2))
        assert str(caught.value) == message

    @pytest.mark.parametrize("value", [2, Fraction(3, 2), np.float32(1.25), np.float64(0.7), np.int64(-1)])
    def test_numbers_keep_their_bits(self, params, value):
        columns = _marginal(np.array([float(value)]) - params.start, params)
        assert bits(marginal_depth_d1(value, params)) == bits(columns[0][0])
        assert bits(marginal_factor(value, params)) == bits(columns[2][0])
        times = [value, float(value) + 0.5]
        mean, cov = (0.3, 1.1), np.array([[2.0, 0.7], [0.7, 1.5]])
        expected = mahalanobis_column(np.array([[float(t) for t in times]]), mean, cov)[0]
        assert bits(mahalanobis_depth(times, mean, cov)) == bits(expected)
        assert bits(mahalanobis_depth(np.array(times, dtype=float), mean, cov)) == bits(expected)


class TestConditionalDepth:
    def test_spot_value(self, params):
        value = conditional_depth(EventSequence(0.0, (0.3, 1.0)), params)
        assert value == pytest.approx(math.sqrt(0.84), abs=1e-12)
        assert value == pytest.approx(0.91652, abs=5e-6)

    def test_zero_on_boundary(self, params):
        assert conditional_depth(EventSequence(0.0, (0.0, 1.0)), params) == 0.0
        assert conditional_depth(EventSequence(0.0, (0.5, 0.5)), params) == 0.0
        assert conditional_depth(EventSequence(0.0, (0.0, 0.0)), params) == 0.0

    def test_unit_at_matching_proportions(self, params):
        assert conditional_depth(EventSequence(0.0, (0.5, 1.0)), params) == 1.0
        assert conditional_depth(EventSequence(0.0, (2.0, 4.0)), params) == 1.0

    def test_near_zero_gap_stays_positive(self, params):
        # Gaps are "zero" only when exactly zero; no epsilon snapping,
        # so near-boundary points keep a tiny positive depth.
        assert conditional_depth(EventSequence(0.0, (1e-12, 1.0)), params) > 0.0

    def test_length_mismatch(self, params):
        with pytest.raises(DataError):
            conditional_depth(EventSequence(0.0, (1.0,)), params)

    def test_scale_free(self, params):
        a = conditional_depth(EventSequence(0.0, (0.3, 1.0)), params)
        b = conditional_depth(EventSequence(0.0, (3.0, 10.0)), params)
        assert a == pytest.approx(b, rel=1e-12)

    @given(interior_sequences())
    @settings(max_examples=200)
    def test_young_bound(self, seq):
        p = DepthParams(start=0.0, mu_last=1.0, var_last=0.25, u_bar=(0.3, 0.7))
        value = conditional_depth(seq, p)
        assert 0.0 <= value <= 1.0

    @given(interior_sequences())
    @settings(max_examples=200)
    def test_matches_oracle_everywhere(self, seq):
        u_bar = (0.3, 0.7)
        p = DepthParams(start=0.0, mu_last=1.0, var_last=0.25, u_bar=u_bar)
        assert conditional_depth(seq, p) == pytest.approx(
            direct_conditional(0.0, seq.times, u_bar), rel=1e-9, abs=1e-300
        )


class TestHppConditionalDepth:
    def test_equally_spaced_is_unit(self):
        assert hpp_conditional_depth(EventSequence(0.0, (0.25, 0.5))) == 1.0
        assert hpp_conditional_depth(EventSequence(0.0, (0.25, 0.5, 0.75, 1.0))) == 1.0

    def test_single_event_is_unit_interior(self):
        # With one event the only gap is the whole duration, so every
        # interior realization scores 1 conditionally.
        p = DepthParams(start=0.0, mu_last=1.0, var_last=0.5, u_bar=(1.0,))
        assert hpp_conditional_depth(EventSequence(0.0, (0.7,))) == 1.0
        assert conditional_depth(EventSequence(0.0, (0.7,)), p) == 1.0
        assert hpp_conditional_depth(EventSequence(0.0, (0.0,))) == 0.0

    def test_spot_value(self):
        value = hpp_conditional_depth(EventSequence(0.0, (0.25, 1.0)))
        assert value == pytest.approx(2 * math.sqrt(0.1875), abs=1e-12)
        assert value == pytest.approx(0.86603, abs=5e-6)

    def test_zero_on_boundary(self):
        assert hpp_conditional_depth(EventSequence(0.0, (0.0, 1.0))) == 0.0
        assert hpp_conditional_depth(EventSequence(0.0, (0.7, 0.7))) == 0.0

    @given(interior_sequences(k=3))
    @settings(max_examples=300)
    def test_agrees_with_general_form(self, seq):
        uniform = DepthParams(
            start=0.0, mu_last=1.0, var_last=0.25, u_bar=(1 / 3, 1 / 3, 1 / 3)
        )
        closed = hpp_conditional_depth(seq)
        general = conditional_depth(seq, uniform)
        assert closed == pytest.approx(general, rel=1e-12, abs=1e-300)

    @given(interior_sequences(k=2))
    @settings(max_examples=200)
    def test_matches_oracle(self, seq):
        assert hpp_conditional_depth(seq) == pytest.approx(
            direct_hpp_conditional(0.0, seq.times), rel=1e-9, abs=1e-300
        )


class TestProductDepth:
    def test_composed_spot_value(self, params):
        breakdown = product_depth(EventSequence(0.0, (0.3, 1.5)), params)
        assert breakdown["marginal_factor"] == pytest.approx(0.70711, abs=5e-6)
        assert breakdown["conditional"] == pytest.approx(0.8, rel=1e-12)
        assert breakdown["product"] == pytest.approx(0.56569, abs=5e-6)
        assert breakdown["product"] == pytest.approx(
            direct_product(0.0, (0.3, 1.5), 1.0, 0.25, 1.0, 1.0, (0.5, 0.5)), rel=1e-9
        )

    def test_breakdown_consistency(self, params):
        breakdown = product_depth(EventSequence(0.0, (0.4, 2.0)), params)
        assert breakdown["product"] == breakdown["marginal_factor"] * breakdown["conditional"]
        assert 0.0 <= breakdown["omega"] <= 1.0
        assert breakdown["exponent"] >= 0.0

    def test_center_is_exactly_one(self, params):
        breakdown = product_depth(EventSequence(params.start, params.center), params)
        assert breakdown["product"] == 1.0
        assert breakdown["omega"] == 1.0
        assert breakdown["exponent"] == 0.0
        assert breakdown["conditional"] == 1.0

    def test_boundary_is_exactly_zero(self, params):
        assert product_depth(EventSequence(0.0, (0.0, 1.2)), params)["product"] == 0.0
        assert product_depth(EventSequence(0.0, (0.6, 0.6)), params)["product"] == 0.0

    def test_start_mismatch_rejected(self, params):
        with pytest.raises(DataError):
            product_depth(EventSequence(1.0, (1.3, 2.0)), params)

    def test_length_mismatch_rejected(self, params):
        with pytest.raises(DataError):
            product_depth(EventSequence(0.0, (1.0,)), params)

    @given(interior_sequences())
    @settings(max_examples=300)
    def test_range_and_maximality(self, seq):
        p = DepthParams(start=0.0, mu_last=1.0, var_last=0.25, u_bar=(0.5, 0.5))
        value = product_depth(seq, p)["product"]
        assert 0.0 <= value <= 1.0
        assert value <= product_depth(EventSequence(p.start, p.center), p)["product"]

    def test_vanishing_proxy_far_out(self, params):
        far = params.start + params.mu_last + 100 * math.sqrt(params.var_last)
        seq = EventSequence(0.0, (far / 2, far))
        assert product_depth(seq, params)["product"] < 1e-6


class TestCenter:
    def test_cumulative_sums(self):
        assert DepthParams(0.0, 1.0, 1.0, (0.5, 0.5)).center == (0.5, 1.0)

    def test_hand_example(self):
        assert DepthParams(10.0, 4.0, 1.0, (0.25, 0.25, 0.5)).center == (11.0, 12.0, 14.0)

    def test_constant_rate_center_is_mean_times(self):
        # Uniform proportions with mean duration k/rate puts entry i at i/rate.
        k, rate = 4, 2.0
        center = DepthParams(0.0, k / rate, 1.0, (1 / k,) * k).center
        assert center == pytest.approx(tuple((i + 1) / rate for i in range(k)), rel=1e-12)

    def test_last_entry_is_start_plus_mean(self):
        u = np.array([0.1, 0.2, 0.3, 0.4])
        u = u / u.sum()
        center = DepthParams(5.0, 3.0, 1.0, tuple(u)).center
        assert center[-1] == 8.0

    def test_strictly_increasing(self):
        center = DepthParams(0.0, 2.0, 1.0, (0.2, 0.3, 0.5)).center
        assert all(a < b for a, b in zip(center, center[1:]))

    def test_rejects_bad_proportions(self):
        with pytest.raises(DataError, match=r"^every gap proportion must lie in \(0, 1\]$"):
            DepthParams(0.0, 1.0, 1.0, (0.5, -0.5, 1.0))
        with pytest.raises(DataError, match=r"^gap proportions must sum to 1 within 1e-12, got "):
            DepthParams(0.0, 1.0, 1.0, (0.5, 0.4))
        with pytest.raises(DataError, match="^mean duration must be positive and finite$"):
            DepthParams(0.0, 0.0, 1.0, (0.5, 0.5), horizon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # checked before a sum that would overflow
            with pytest.raises(DataError, match=r"\(0, 1\]"):
                DepthParams(0.0, 1.0, 1.0, (1e308, 1e308))

    def test_rejects_a_center_that_does_not_increase(self):
        # A proportion too small to move a large start merges two times.
        with pytest.raises(DataError, match="^central event times must be strictly increasing$"):
            DepthParams(1e16, 1.0, 1.0, (1e-3, 1 - 1e-3))

    def test_reading_the_center_runs_no_check_and_no_cumsum(self):
        p = DepthParams(0.5, 2.0, 1.0, (0.25, 0.25, 0.5))
        calls = []
        # Each Python call by its function's name, each C call by the builtin's.
        sys.setprofile(lambda frame, event, arg: calls.append(
            (event, arg.__name__ if event.startswith("c_") else frame.f_code.co_name)))
        try:
            center = p.center
        finally:
            sys.setprofile(None)
        # The getter alone runs, calling nothing; then the profile is switched off.
        assert calls == [("call", "center"), ("return", "center"), ("c_call", "setprofile")]
        assert center is p.center == (1.0, 1.5, 2.5)

    def test_the_kept_center_is_not_a_field(self):
        p = DepthParams(0.5, 2.0, 1.0, (0.25, 0.75))
        q = DepthParams(0.5, 2.0, 1.0, (0.25, 0.75))
        assert p == q and hash(p) == hash(q)
        assert repr(p) == "DepthParams(start=0.5, mu_last=2.0, var_last=1.0, u_bar=(0.25, 0.75), horizon=2.0)"
        assert replace(p, mu_last=4.0).center == (1.5, 4.5)
        assert replace(p, mu_last=4.0) == DepthParams(0.5, 4.0, 1.0, (0.25, 0.75), 2.0)


class TestCumulativeTimes:
    @pytest.mark.parametrize("k", range(1, 21))
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["C", "F"])
    def test_equals_the_row_major_cumsum(self, k, layout):
        # Terms of mixed magnitude, so that another summation order rounds differently.
        rng = np.random.default_rng(k)
        n, c = 300, 4

        def draw(*shape):
            return rng.exponential(1.0, shape) * 10.0 ** rng.integers(-8, 8, shape)

        cases = [(2.5, draw(k)), (rng.uniform(0.5, 3.0, n), draw(k)),
                 (rng.uniform(0.5, 3.0, n), layout(draw(n, k))), (2.5, layout(draw(c, k))),
                 (rng.uniform(0.5, 3.0, c), layout(draw(c, k)))]
        for duration, proportions in cases:
            cum = np.cumsum(proportions, axis=-1)
            cum[..., -1] = 1.0
            expected = np.asarray(duration)[..., None] * cum
            assert same_bits(cumulative_times(duration, proportions), expected), (np.shape(duration), cum.shape)


class TestDepthParams:
    def test_from_moments_defaults(self):
        p = DepthParams(start=1.0, mu_last=2.0, var_last=0.5, u_bar=(0.25, 0.75))
        assert p.eta == 3.0
        assert p.big_m == 3.0
        assert p.center == (1.5, 3.0)
        assert p.k == 2

    def test_big_m_override(self):
        p = DepthParams(start=1.0, mu_last=2.0, var_last=0.5, u_bar=(1.0,), horizon=5.0)
        assert p.horizon == 5.0
        assert p.big_m == 6.0

    def test_rejects_degenerate_variance(self):
        with pytest.raises(DataError, match="variance"):
            DepthParams(start=0.0, mu_last=1.0, var_last=0.0, u_bar=(1.0,))

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DataError):
            DepthParams(start=0.0, mu_last=0.0, var_last=1.0, u_bar=(1.0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["start", "mu_last", "var_last", "horizon"])
    def test_rejects_nonfinite_fields(self, field, value):
        fields = {"start": 0.0, "mu_last": 1.0, "var_last": 1.0, "u_bar": (1.0,), field: value}
        with pytest.raises(DataError, match="^parameters must be finite$"):
            DepthParams(**fields)

    def test_rejects_degenerate_horizon(self):
        with pytest.raises(DataError, match="horizon"):
            DepthParams(start=0.0, mu_last=1.0, var_last=1.0, u_bar=(1.0,), horizon=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("start", "0", "start must be a number, got '0'"),
        ("mu_last", True, "mu_last must be a number, got True"),
        ("var_last", None, "var_last must be a number, got None"),
        ("horizon", "1", "horizon must be a number, got '1'"),
        ("mu_last", 10**400, "mu_last must fit in a float"),
        ("horizon", -(10**400), "horizon must fit in a float"),
        ("u_bar", 5, "u_bar must be a sequence of numbers, got 5"),
        ("u_bar", ("0.5", "0.5"), "every u_bar entry must be a number, got '0.5'"),
        ("u_bar", (False, 1.0), "every u_bar entry must be a number, got False"),
        ("u_bar", (1.0, 10**400), "every u_bar entry must fit in a float"),
    ], ids=["start-text", "mu_last-bool", "var_last-none", "horizon-text", "mu_last-huge", "horizon-huge",
            "u_bar-number", "u_bar-text", "u_bar-bool", "u_bar-huge"])
    def test_every_field_is_a_number_that_fits_in_a_float(self, field, value, message):
        fields = {"start": 0.0, "mu_last": 1.0, "var_last": 1.0, "u_bar": (0.5, 0.5), field: value}
        with pytest.raises(DataError) as caught:
            DepthParams(**fields)
        assert str(caught.value) == message

    def test_numbers_of_any_real_type_are_taken(self):
        taken = DepthParams(Fraction(1, 2), np.float32(1.5), np.int64(2), [Fraction(1, 4), np.float64(0.75)], 3)
        assert taken == DepthParams(0.5, 1.5, 2.0, (0.25, 0.75), 3.0)
        assert all(type(v) is float for v in (taken.start, taken.mu_last, taken.var_last, taken.horizon, *taken.u_bar))

    def test_rejects_empty_proportions(self):
        with pytest.raises(DataError, match="^gap proportions must be a nonempty vector$"):
            DepthParams(0.0, 1.0, 1.0, ())

    # k, eta and the center are derived; a params file stores them as
    # checked redundancy, so a wrong stored value fails at load.
    def test_rejects_inconsistent_eta(self, tmp_path):
        with pytest.raises(DataError, match="eta"):
            load_params_json(write_params(
                tmp_path, k=1, start=0.0, mu_last=1.0, var_last=1.0, u_bar=(1.0,),
                eta=2.0, big_m=1.0, center=(1.0,),
            ))

    def test_rejects_inconsistent_center(self, tmp_path):
        with pytest.raises(DataError, match="center"):
            load_params_json(write_params(
                tmp_path, k=2, start=0.0, mu_last=1.0, var_last=1.0, u_bar=(0.5, 0.5),
                eta=1.0, big_m=1.0, center=(0.9, 1.0),
            ))

    def test_rejects_inconsistent_k(self, tmp_path):
        path = write_params(tmp_path, k=3, start=0.0, mu_last=1.0, var_last=1.0, u_bar=(0.5, 0.5),
                            eta=1.0, big_m=1.0, center=(0.5, 1.0))
        with pytest.raises(DataError, match=re.escape(f"{path}: bad parameters (k is 3, but u_bar has 2")):
            load_params_json(path)

    def test_derived_fields_are_not_stored(self):
        p = DepthParams(start=1.0, mu_last=2.0, var_last=0.5, u_bar=(0.25, 0.75))
        assert PARAM_FIELDS == tuple(f.name for f in fields(p)) == ("start", "mu_last", "var_last", "u_bar", "horizon")

    def test_affine_matches_refit_identities(self):
        p = DepthParams(start=1.0, mu_last=2.0, var_last=0.5, u_bar=(0.3, 0.7))
        q = DepthParams(**vars(affine_fields(p, 2.0, 3.0)))
        assert q.start == 5.0
        assert q.mu_last == 4.0
        assert q.var_last == 2.0
        assert q.u_bar == p.u_bar
        assert q.eta == pytest.approx(2.0 * p.eta + 3.0, rel=1e-15)
        assert q.center == pytest.approx(tuple(2.0 * c + 3.0 for c in p.center), rel=1e-15)

    def test_affine_fields_match_affine_per_row(self):
        # The per-row map the scale-shift check uses gives, bit for bit,
        # the DepthParams of the same map applied one transform at a time.
        p = DepthParams(start=0.5, mu_last=1.5, var_last=0.4, u_bar=(0.25, 0.75))
        a = np.array([0.1, 0.5, 2.0, 7.25])
        b = np.array([9.5, -3.0, 0.0, 4.5])
        fields = affine_fields(p, a, b)
        # eta, big_m and the center as DepthParams and the exact-center test
        # of depth_columns derive them from the fields.
        derived = {"eta": fields.start + fields.mu_last, "big_m": fields.start + fields.horizon,
                   "center": fields.start[:, None] + cumulative_times(fields.mu_last, fields.u_bar)}
        for i in range(a.size):
            q = DepthParams(**vars(affine_fields(p, float(a[i]), float(b[i]))))
            for name in PARAM_FIELDS:
                expected = np.asarray(getattr(q, name))
                row = np.broadcast_to(getattr(fields, name), (a.size, *expected.shape))[i]
                assert np.array_equal(bits(row), bits(expected)), name
            for name, values in derived.items():
                assert np.array_equal(bits(values[i]), bits(getattr(q, name))), name

    def test_identity_transform_is_exact(self):
        # a=1, b=0 must reproduce parameters and depths bitwise: the
        # scale-shift check has exactly zero margin there.
        p = DepthParams(start=0.5, mu_last=1.5, var_last=0.4, u_bar=(0.25, 0.75))
        q = DepthParams(**vars(affine_fields(p, 1.0, 0.0)))
        assert q == p
        sample = SampleSet(0.5, [[1.0, 2.5]])
        assert (
            product_depth(SampleSet(1.0 * sample.start + 0.0, 1.0 * sample.times + 0.0).sequence(0), q)["product"]
            == product_depth(sample.sequence(0), p)["product"]
        )

    @pytest.mark.parametrize("fields", [
        (1e308, 1e307, 1.0, (0.5, 0.5), 1e308),
        (1.7e308, 1e308, 1.0, (1.0,)),
        (1.7e308, 1e308, 1.0, (0.5, 0.5)),
    ], ids=["big_m", "eta-k1", "center"])
    def test_rejects_derived_times_that_overflow(self, fields):
        # eta, big_m and the center derive from the fields; a params file
        # stores them, so each must be a finite number too.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^eta, big_m and the central event times must be finite$"):
                DepthParams(*fields)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.integers(1, 6), k=st.integers(1, 5))
    def test_batched_rules_are_each_rows_own(self, data, c, k):
        # Row i of one broken_rules call gives DepthParams' verdict on row i
        # alone: the same first message, or the same center.
        special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1.0 + U_BAR_SUM_TOL,
                                   1e16, 1e307, 1e308, 1.7e308, -1.7e308])
        plain = st.floats(0.1, 10.0)
        number = st.one_of(plain, plain, plain, special, st.floats())
        rows = []
        for _ in range(c):
            scale = data.draw(st.sampled_from([1.0, 1.0, 1.7e307]))  # the last makes derived times overflow
            start, mu_last, var_last = data.draw(number) * scale, data.draw(number) * scale, data.draw(number)
            weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
            u_bar = weights / weights.sum()
            u_bar[-1] += data.draw(st.sampled_from([0.0, 0.0, U_BAR_SUM_TOL, -U_BAR_SUM_TOL, 2 * U_BAR_SUM_TOL]))
            for j in data.draw(st.lists(st.integers(0, k - 1), max_size=2)):
                u_bar[j] = data.draw(number)
            horizon = mu_last if data.draw(st.booleans()) else data.draw(number) * scale
            rows.append((start, mu_last, var_last, u_bar, horizon))
        broken, total, center = broken_rules(*(np.array([row[i] for row in rows]) for i in range(5)))
        for i, (start, mu_last, var_last, u_bar, horizon) in enumerate(rows):
            try:
                params = DepthParams(start, mu_last, var_last, tuple(u_bar), horizon)
            except DataError as exc:
                assert broken[i] < len(RULES), i
                assert str(exc) == RULES[broken[i]].format(start=start, mu_last=mu_last, var_last=var_last,
                                                           horizon=horizon, total=total[i]), i
                continue
            assert broken[i] == len(RULES), i
            assert np.array_equal(bits(params.center), bits(center[i])), i


class TestMahalanobisDepth:
    def test_unit_at_mean(self):
        assert mahalanobis_depth((1.0, 2.0), (1.0, 2.0), np.eye(2)) == 1.0

    def test_one_sigma_scalar(self):
        assert mahalanobis_depth((4.0,), (2.0,), [[4.0]]) == 0.5

    def test_identity_covariance(self):
        assert mahalanobis_depth((2.0, 2.0), (1.0, 2.0), np.eye(2)) == 0.5

    def test_matches_inverse_oracle(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.5]])
        mean = np.array([1.0, 2.0])
        for x in ([0.0, 0.0], [1.5, 2.5], [-3.0, 4.0]):
            assert mahalanobis_depth(x, mean, cov) == pytest.approx(
                direct_mahalanobis(x, mean, cov), rel=1e-12
            )

    def test_singular_covariance_is_ridged(self):
        cov = np.array([[2.0, 4.0], [4.0, 8.0]])  # rank 1
        value = mahalanobis_depth((2.0, 4.0), (2.0, 4.0), cov)
        assert value == 1.0
        off = mahalanobis_depth((3.0, 5.0), (2.0, 4.0), cov)
        assert 0.0 < off < 1.0

    def test_zero_covariance_fails(self):
        with pytest.raises(DataError, match="singular"):
            mahalanobis_depth((1.0,), (1.0,), [[0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            mahalanobis_depth((1.0, 2.0), (1.0,), np.eye(2))

    def test_nonfinite_baseline_rejected(self):
        # np.linalg.cholesky does not raise on NaN, so this is checked up front.
        with pytest.raises(DataError, match="finite"):
            mahalanobis_column(np.ones((3, 2)), (1.0, 2.0), [[1.0, math.nan], [math.nan, 1.0]])
        with pytest.raises(DataError, match="finite"):
            mahalanobis_depth((1.0, 2.0), (math.inf, 2.0), np.eye(2))
        with pytest.raises(DataError, match="finite"):  # finite, but not once symmetrized
            mahalanobis_depth((1.0, 2.0), (1.0, 2.0), [[1e308, 0.0], [0.0, 1e308]])

    @pytest.mark.parametrize("mean, cov", [
        (("1", "2"), [["1", "0"], ["0", "1"]]),
        ((1.0, 2.0), [[1.0, "0"], [0.0, 1.0]]),
        ((True, 2.0), np.eye(2)),
        (np.array([1.0, 2.0]), np.eye(2, dtype=bool)),
        ((1.0, None), np.eye(2)),
    ])
    def test_a_baseline_of_text_or_bools_is_refused(self, mean, cov):
        # The number rule for arrays, errors.check_array: numpy would parse
        # the text and take a bool as 0 or 1.
        with pytest.raises(DataError, match=r"^the Mahalanobis (mean|covariance) must be an array of numbers \("):
            mahalanobis_depth((1.0, 2.0), mean, cov)
        with pytest.raises(DataError, match=r"^the Mahalanobis (mean|covariance) must be an array of numbers \("):
            mahalanobis_column(np.ones((3, 2)), mean, cov)

    def test_overflowing_distance_is_exactly_zero(self):
        # The whitened sum is inf - inf here, which must not read as NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mahalanobis_depth((0.0, 0.0), (1e308, 1e308), [[1.0, 0.5], [0.5, 1.0]]) == 0.0


@st.composite
def samples_with_params(draw):
    """Small samples with exact zero gaps in some rows, the center as the
    last row, and parameters with random proportions."""
    k = draw(st.integers(min_value=1, max_value=6))
    gap = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
    rows = draw(st.lists(st.lists(gap, min_size=k, max_size=k), min_size=1, max_size=20))
    weights = np.array(draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k)))
    params = DepthParams(
        start=0.0,
        mu_last=draw(st.floats(min_value=0.1, max_value=10.0)),
        var_last=draw(st.floats(min_value=0.01, max_value=10.0)),
        u_bar=weights / weights.sum(),
    )
    return SampleSet(0.0, np.vstack([np.cumsum(rows, axis=1), params.center])), params


class TestShiftInvariance:
    """The kernels subtract the start once and read only offsets, so a
    sample and its params moved by the same start keep every depth."""

    @given(samples_with_params(), st.sampled_from([0.0, 1.5, 1e6, 1e9, 1.7e9]))
    @settings(max_examples=100, deadline=None)
    def test_depth_reads_only_offsets(self, case, start):
        sample, params = case
        # Offsets on the grid of the start are exact, (start + o) - start == o,
        # as the offsets of timestamps are (Sterbenz's lemma).
        offsets = (start + sample.times) - start
        assert ((start + offsets) - start == offsets).all()
        # The exact-center test alone compares absolute times; a row that
        # meets the center only after rounding at this start is left out.
        center = np.asarray(params.center)
        rows = (start + offsets == start + center).all(axis=1) == (offsets == center).all(axis=1)
        shifted = depth_columns(start + offsets, replace(params, start=start))
        reference = depth_columns(offsets, params)
        for name in BREAKDOWN_FIELDS:
            assert np.array_equal(bits(shifted[name][rows]), bits(reference[name][rows])), name

    def test_distinct_times_far_from_the_start_have_positive_depth(self):
        # Both offsets round to 1000001.0, but the second gap is the
        # difference of the times, so the conditional depth stays positive.
        p = DepthParams(start=-1e6, mu_last=1e6 + 1.0, var_last=1.0, u_bar=(0.5, 0.5))
        times = np.array([[1.0, np.nextafter(1.0, 2.0)]])
        assert depth_columns(times, p)["conditional"][0] > 0.0
        assert hpp_conditional_column(times, p.start)[0] > 0.0

    @pytest.mark.parametrize("start", [1.5, 1e6, 1.7e9])
    def test_center_is_exactly_one_at_any_start(self, start):
        p = DepthParams(start=start, mu_last=1.7, var_last=0.3, u_bar=(0.2, 0.3, 0.5))
        breakdown = product_depth(EventSequence(p.start, p.center), p)
        assert (breakdown["product"], breakdown["exponent"]) == (1.0, 0.0)


class TestBatchKernel:
    @given(samples_with_params())
    @settings(max_examples=100, deadline=None)
    def test_scalar_is_kernel_row_bit_for_bit(self, case):
        sample, params = case
        columns = depth_columns(sample.times, params)
        for i in range(sample.n):
            breakdown = product_depth(sample.sequence(i), params)
            for name in BREAKDOWN_FIELDS:
                assert bits(breakdown[name]) == bits(columns[name][i]), (i, name)
        on_boundary = np.any(sample.gaps() == 0.0, axis=1)
        assert np.all(columns["conditional"][on_boundary] == 0.0)
        assert np.all(columns["product"][on_boundary] == 0.0)
        center = {name: columns[name][-1] for name in BREAKDOWN_FIELDS}
        assert center == {"omega": 1.0, "exponent": 0.0, "marginal_factor": 1.0,
                          "conditional": 1.0, "product": 1.0}

    @given(samples_with_params())
    @settings(max_examples=50, deadline=None)
    def test_scalar_is_the_breakdown_row(self, case):
        # One float per breakdown name, in BREAKDOWN_FIELDS order, with the
        # bits of the realization's row of depth_breakdown.
        sample, params = case
        columns = depth_breakdown(sample, params)
        for i in range(sample.n):
            breakdown = product_depth(sample.sequence(i), params)
            assert tuple(breakdown) == BREAKDOWN_FIELDS
            assert all(type(v) is float for v in breakdown.values())
            assert [bits(v) for v in breakdown.values()] == [bits(columns[name][i]) for name in BREAKDOWN_FIELDS]

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_depth_values_unchanged_across_block_size(self, n):
        rng = np.random.Generator(np.random.Philox(key=17))
        gaps = rng.exponential(1.0, size=(BLOCK_ROWS + 1, 3))
        gaps[rng.integers(0, BLOCK_ROWS + 1, size=40), rng.integers(0, 3, size=40)] = 0.0
        full = SampleSet(0.0, np.cumsum(gaps, axis=1))
        params = DepthParams(start=0.0, mu_last=3.0, var_last=3.0, u_bar=(0.2, 0.3, 0.5))
        baseline = (full.times.mean(axis=0), np.cov(full.times, rowvar=False))
        sample = SampleSet(0.0, full.times[:n])
        last = sample.sequence(n - 1)
        scalar = {
            "product": product_depth(last, params)["product"],
            "marginal": marginal_factor(last.times[-1], params),
            "conditional": conditional_depth(last, params),
            "hpp-conditional": hpp_conditional_depth(last),
            "mahalanobis": mahalanobis_depth(last.times, *baseline),
        }
        for method in METHODS:
            reference = depth_values(full, params, method, baseline=baseline)
            values = depth_values(sample, params, method, baseline=baseline)
            assert np.array_equal(bits(values), bits(reference[:n])), method
            assert bits(values[-1]) == bits(scalar[method]), method
        assert np.all(hpp_conditional_column(full.times, 0.0)[np.any(gaps == 0.0, axis=1)] == 0.0)


def same_bits(a, b) -> bool:
    """Equal bit patterns, a NaN matching any NaN (its sign and payload
    follow the operand order of compiled code, which no formula fixes)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((bits(a) == bits(b)) | (np.isnan(a) & np.isnan(b))))


# The kernels as they were written with numpy's reductions over the last
# axis (``.sum(axis=1)``, ``.all(axis=1)`` and a (B, k, k) product) and
# row-wise gaps; the column-wise kernels must keep their bits.
def reference_gaps(times, first):
    # The gaps of an (n, k) matrix, row by row. Written out, not taken from
    # sequences.gap_matrix: a reference shares no code with the kernels.
    gaps = np.empty(times.shape)
    gaps[:, 1:] = times[:, 1:] - times[:, :-1]
    gaps[:, 0] = first
    return gaps


@np.errstate(all="ignore")
def reference_depth_columns(times, params):
    p = SimpleNamespace(**{name: np.asarray(getattr(params, name), dtype=float) for name in PARAM_FIELDS})
    start = p.start[..., None]
    o = times - start
    dev = o[:, -1] - p.mu_last
    w = 1.0 / (1.0 + (dev * dev) / p.var_last)
    exponent = np.abs(dev) / p.horizon
    factor = np.where(exponent == 0.0, 1.0, np.minimum(w**exponent, 1.0))
    gaps = reference_gaps(times, o[:, 0])
    log_sum = (p.u_bar * (np.log(gaps) - np.log(o[:, -1:] * p.u_bar))).sum(axis=1)
    conditional = np.where((gaps > 0.0).all(axis=1), np.minimum(np.exp(log_sum), 1.0), 0.0)
    block = dict(zip(BREAKDOWN_FIELDS, (w, exponent, factor, conditional, factor * conditional)))
    center = (times == start + cumulative_times(p.mu_last, p.u_bar)).all(axis=1)
    for name, value in block.items():
        value[center] = 0.0 if name == "exponent" else 1.0
    return block


@np.errstate(all="ignore")
def reference_hpp_conditional(times, start):
    k = times.shape[1]
    o = times - start
    gaps = reference_gaps(times, o[:, 0])
    value = np.exp(np.log(k) + np.log(gaps).sum(axis=1) / k - np.log(o[:, -1]))
    return np.where((gaps > 0.0).all(axis=1), np.minimum(value, 1.0), 0.0)


@np.errstate(all="ignore")
def reference_mahalanobis(times, mean, covariance):
    k = times.shape[1]
    c = np.asarray(covariance, dtype=float)
    c = 0.5 * (c + c.T)
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(c + 1e-10 * float(np.trace(c)) / k * np.eye(k))
    whiten = np.linalg.solve(chol, np.eye(k))
    y = ((times - np.asarray(mean, dtype=float))[:, None, :] * whiten).sum(axis=2)
    distance = (y * y).sum(axis=1)
    return 1.0 / (1.0 + np.where(np.isnan(distance), np.inf, distance))


SUM_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e3, max_value=1e3),
)


class TestRowSum:
    """``_row_sum`` adds columns in numpy's own row-sum order."""

    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 300)), elements=SUM_TERMS))
    @settings(max_examples=300, deadline=None)
    def test_equals_add_reduce_bit_for_bit(self, stack):
        with np.errstate(all="ignore"):
            expected = np.add.reduce(stack, axis=-1)
            assert same_bits(_row_sum(list(stack.T)), expected)
            assert same_bits(_row_sum(np.ascontiguousarray(stack.T)), expected)

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 15, 16, 17, 128, 129, 130, 136, 300])
    def test_rounding_order_at_the_thresholds(self, k):
        # Terms of mixed magnitude, so that any other order rounds differently.
        rng = np.random.default_rng(k)
        stack = rng.standard_normal((64, k)) * 10.0 ** rng.integers(-12, 12, (64, k))
        assert same_bits(_row_sum(list(stack.T)), stack.sum(axis=1))

    def test_sum_of_negative_zeros_is_positive_zero(self):
        for k in (1, 3, 8, 200):
            zeros = np.full((2, k), -0.0)
            assert bits(_row_sum(list(zeros.T))).tolist() == bits(zeros.sum(axis=1)).tolist() == [0, 0]


def _kernel_cases(k, n=300, seed=0):
    """An (n, k) matrix with zero gaps, center rows and overflowing rows, and
    shared parameters at a nonzero start."""
    rng = np.random.default_rng(1000 * k + seed)
    weights = rng.uniform(0.05, 1.0, k)
    params = DepthParams(start=1.5, mu_last=2.0, var_last=0.7, u_bar=tuple(weights / weights.sum()), horizon=3.0)
    gaps = rng.exponential(2.0 / k, (n, k))
    gaps[rng.random((n, k)) < 0.05] = 0.0
    times = params.start + np.cumsum(gaps, axis=1)
    times[::13] = params.center
    times[5::31, -1] = 1e308
    times[7::37] = 1.7e308
    return times, params


class TestKernelsKeepTheirBits:
    """Every kernel column equals the last-axis-reduction formulas bit for bit."""

    @pytest.mark.parametrize("k", range(1, 21))
    def test_depth_columns(self, k):
        times, params = _kernel_cases(k)
        columns, reference = depth_columns(times, params), reference_depth_columns(times, params)
        for name in BREAKDOWN_FIELDS:
            assert same_bits(columns[name], reference[name]), name
        assert np.all(columns["product"][::13] == 1.0)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_depth_columns_per_row_params(self, k):
        # The refit path: every field holds one entry per row.
        times, params = _kernel_cases(k)
        n = times.shape[0]
        rng = np.random.default_rng(k)
        u_bar = rng.uniform(0.05, 1.0, (n, k))
        fields = SimpleNamespace(start=np.full(n, params.start), mu_last=rng.uniform(1.0, 3.0, n),
                                 var_last=rng.uniform(0.1, 2.0, n), u_bar=u_bar / u_bar.sum(axis=1, keepdims=True),
                                 horizon=rng.uniform(0.5, 4.0, n))
        fields.mu_last[::13] = params.mu_last
        fields.u_bar[::13] = params.u_bar
        columns, reference = depth_columns(times, fields), reference_depth_columns(times, fields)
        for name in BREAKDOWN_FIELDS:
            assert same_bits(columns[name], reference[name]), name

    @pytest.mark.parametrize("k", range(1, 21))
    def test_hpp_conditional_column(self, k):
        times, params = _kernel_cases(k)
        assert same_bits(hpp_conditional_column(times, params.start), reference_hpp_conditional(times, params.start))

    @pytest.mark.parametrize("k", range(1, 21))
    def test_mahalanobis_column(self, k):
        times, _ = _kernel_cases(k)
        finite = times[np.all(times < 1e300, axis=1)]
        mean, cov = finite.mean(axis=0), np.cov(finite, rowvar=False).reshape(k, k)
        for m, c in [(mean, cov), (mean, np.outer(cov[0], cov[0])), (np.full(k, -1e308), cov)]:
            assert same_bits(mahalanobis_column(times, m, c), reference_mahalanobis(times, m, c))

    @pytest.mark.parametrize("k", range(1, 21))
    def test_either_memory_layout(self, k):
        # The verify suite passes its (n, k) matrices as transposes of
        # event-major arrays (F order): a matrix and its F-ordered copy give
        # the bits of the references, which run on the C-ordered one.
        times, params = _kernel_cases(k)
        finite = times[np.all(times < 1e300, axis=1)]
        mean, cov = finite.mean(axis=0), np.cov(finite, rowvar=False).reshape(k, k)
        reference = reference_depth_columns(times, params)
        for matrix in (times, np.asfortranarray(times)):
            columns = depth_columns(matrix, params)
            assert all(same_bits(columns[name], reference[name]) for name in BREAKDOWN_FIELDS)
            assert same_bits(hpp_conditional_column(matrix, params.start),
                             reference_hpp_conditional(times, params.start))
            assert same_bits(mahalanobis_column(matrix, mean, cov), reference_mahalanobis(times, mean, cov))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 20])
    @pytest.mark.parametrize("shared", [True, False])
    def test_edge_rows(self, k, shared):
        # Center rows, rows that end at the center's last time only, zero
        # gaps, and exponent-0 rows: at eta, and under an infinite horizon
        # (also where omega is 0), with shared or per-row params.
        times, params = _kernel_cases(k, n=BLOCK_ROWS + 300, seed=2)
        n = times.shape[0]
        center = np.asarray(params.center)
        times[3::17] = center
        times[3::17, 0] = params.start + (center[0] - params.start) / 2
        times[4::19] = center
        times[4::19, 0] = params.start  # a zero first gap
        rng = np.random.default_rng(k)
        horizon = np.where(rng.random(n) < 0.3, math.inf, params.horizon)
        if shared:
            fields = SimpleNamespace(**{name: getattr(params, name) for name in PARAM_FIELDS})
            fields.horizon = math.inf
        else:
            fields = SimpleNamespace(start=np.full(n, params.start), mu_last=np.full(n, params.mu_last),
                                     var_last=rng.uniform(0.1, 2.0, n), u_bar=np.tile(params.u_bar, (n, 1)),
                                     horizon=horizon)
            fields.mu_last[1::23] = 2.5
        columns, reference = depth_columns(times, fields), reference_depth_columns(times, fields)
        for name in BREAKDOWN_FIELDS:
            assert same_bits(columns[name], reference[name]), name
        if k > 1:  # at k = 1 the zero first gap moves the last time off eta
            at_eta = np.broadcast_to(fields.mu_last, n)[4::19] == params.mu_last
            assert np.all(columns["exponent"][4::19][at_eta] == 0.0)
            assert np.all(columns["conditional"][4::19] == 0.0)
        assert same_bits(hpp_conditional_column(times, params.start), reference_hpp_conditional(times, params.start))

    def test_power_of_zero_is_one(self):
        # Why the marginal factor needs no special case at exponent 0: numpy
        # gives w**0 == 1 for every base, in its scalar and its vector loops.
        bases = np.array([0.0, -0.0, 5e-324, 1.0, math.inf, math.nan])
        for w in (bases, np.tile(bases, 37), np.repeat(bases, 37)):
            assert np.all(np.power(w, np.zeros_like(w)) == 1.0)
            assert np.all(np.power(w, 0.0) == 1.0)
            assert np.all(_marginal(np.full(w.shape, 2.0), SimpleNamespace(mu_last=2.0, var_last=1.0,
                                                                          horizon=1.0))[2] == 1.0)

    def test_blocks_and_batches_of_one(self):
        times, params = _kernel_cases(7, n=BLOCK_ROWS + 5, seed=1)
        finite = times[np.all(times < 1e300, axis=1)]
        mean, cov = finite.mean(axis=0), np.cov(finite, rowvar=False)
        batch = {"depth": depth_columns(times, params), "hpp": hpp_conditional_column(times, params.start),
                 "mahalanobis": mahalanobis_column(times, mean, cov)}
        for name in BREAKDOWN_FIELDS:
            assert same_bits(batch["depth"][name], reference_depth_columns(times, params)[name]), name
        assert same_bits(batch["hpp"], reference_hpp_conditional(times, params.start))
        assert same_bits(batch["mahalanobis"], reference_mahalanobis(times, mean, cov))
        for i in [0, 5, 7, 13, BLOCK_ROWS, BLOCK_ROWS + 4]:
            row = times[i:i + 1]
            one = depth_columns(row, params)
            assert all(same_bits(one[name], batch["depth"][name][i:i + 1]) for name in BREAKDOWN_FIELDS), i
            assert same_bits(hpp_conditional_column(row, params.start), batch["hpp"][i:i + 1]), i
            assert same_bits(mahalanobis_column(row, mean, cov), batch["mahalanobis"][i:i + 1]), i
