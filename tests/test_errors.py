import math
import re
from fractions import Fraction

import numpy as np
import pytest

from tppdepth import DataError, DepthParams, SimConfig, contour_grid, verify_properties
from tppdepth.analysis import COUNT_CAPS
from tppdepth.errors import check_count, check_number, check_numbers, check_seed, is_integer, shown

_PARAMS = DepthParams(0.0, 1.0, 1.0, (0.5, 0.5))

# Each caller of is_integer, called with one integer under test, and the
# message of its range check at -10**400 and (where it has one) 10**400.
_INTEGER_SITES = {
    "k": (lambda v: SimConfig(kind="hpp", rates=(2.0,), k=v, n=2), "k must be at least 1",
          "n*k = 2.00e+400 event times do not fit in one array"),
    "n": (lambda v: SimConfig(kind="hpp", rates=(2.0,), k=1, n=v), "n must be at least 1",
          "n*k = 1.00e+400 event times do not fit in one array"),
    "seed": (lambda v: SimConfig(kind="hpp", rates=(2.0,), k=1, n=2, seed=v), "seed must fit in 64 unsigned bits",
             "seed must fit in 64 unsigned bits"),
    "trials": (lambda v: verify_properties(_PARAMS, trials=v, seed=1, rays=2), "trials must be at least 1",
               f"trials must be at most {COUNT_CAPS['trials'][1]}"),
    "rays": (lambda v: verify_properties(_PARAMS, trials=2, seed=1, rays=v), "rays must be at least 1",
             f"rays must be at most {COUNT_CAPS['rays'][1]}"),
    "resolution": (lambda v: contour_grid(_PARAMS, "product", (0, 1), (0, 1), v), "resolution must be at least 2",
                   f"resolution must be at most {COUNT_CAPS['resolution'][1]}"),
}


class TestCheckNumber:
    @pytest.mark.parametrize("value, expected", [
        (2, 2.0), (-3, -3.0), (2.5, 2.5), (Fraction(1, 3), 1 / 3), (np.float32(0.1), float(np.float32(0.1))),
        (np.int64(7), 7.0), (np.float64(1e300), 1e300), (2**1023, float(2**1023)),
    ])
    def test_real_numbers_are_taken_as_floats(self, value, expected):
        converted = check_number("x", value)
        assert type(converted) is float and converted == expected

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinities_pass_to_the_owner(self, value):
        assert check_number("x", value) == value

    def test_nan_passes_to_the_owner(self):
        assert math.isnan(check_number("x", math.nan))

    @pytest.mark.parametrize("value, text", [
        ("1.5", "'1.5'"), (True, "True"), (False, "False"), (None, "None"), (1 + 2j, "(1+2j)"), ([1.0], "[1.0]"),
        (np.bool_(True), repr(np.bool_(True))),
    ])
    def test_anything_else_is_named(self, value, text):
        with pytest.raises(DataError) as caught:
            check_number("the width", value)
        assert str(caught.value) == f"the width must be a number, got {text}"

    @pytest.mark.parametrize("value", [10**400, -(2**1024), Fraction(10**400, 3), 10**5000],
                             ids=["int", "negative-int", "fraction", "int-beyond-the-digit-limit"])
    def test_beyond_the_float_range(self, value):
        with pytest.raises(DataError) as caught:
            check_number("the width", value)
        assert str(caught.value) == "the width must fit in a float"


class TestCheckNumbers:
    def test_each_entry_is_converted(self):
        assert check_numbers("u", [1, Fraction(1, 2), np.float32(0.25)], "every u") == (1.0, 0.5, 0.25)
        assert check_numbers("u", np.array([1.0, 2.0]), "every u") == (1.0, 2.0)
        assert check_numbers("u", (), "every u") == ()

    @pytest.mark.parametrize("values", [5, 2.0, None, np.float64(1.0)])
    def test_not_iterable(self, values):
        with pytest.raises(DataError, match=r"^u must be a sequence of numbers, got "):
            check_numbers("u", values, "every u")

    def test_an_entry_names_its_field(self):
        with pytest.raises(DataError, match=r"^every u must be a number, got '1'$"):
            check_numbers("u", "12", "every u")
        with pytest.raises(DataError, match=r"^every u must fit in a float$"):
            check_numbers("u", [1.0, 10**400], "every u")


class TestShown:
    @pytest.mark.parametrize("value", [-1, 2**64, 2.5, "abc", None, (0, "x"), (0, 1, 2), (True, 1)])
    def test_short_values_are_their_repr(self, value):
        assert shown(value) == repr(value)

    @pytest.mark.parametrize("value", ["x" * 10**6, list(range(10**5)), 10**4000], ids=["str", "list", "int"])
    def test_long_values_are_cut_short(self, value):
        assert len(shown(value)) < 100

    @pytest.mark.parametrize("value, name", [(10**5000, "int"), ((0, 1, 10**5000), "tuple"), ([10**5000], "list")],
                             ids=["int", "tuple", "list"])
    def test_beyond_the_digit_limit_is_the_type(self, value, name):
        assert shown(value) == f"a value of type {name}"

    def test_the_seed_message_keeps_its_text(self):
        with pytest.raises(DataError, match=r"^seed must fit in 64 unsigned bits, got -1$"):
            check_seed(-1)
        with pytest.raises(DataError, match=r"^seed must fit in 64 unsigned bits, got a value of type int$"):
            check_seed(10**5000)


class TestIsInteger:
    @pytest.mark.parametrize("value, expected", [
        (3, True), (np.int64(3), True), (3.0, True), (1e5, True), (np.float32(2.0), True), (Fraction(4, 2), True),
        (Fraction(10**400), True), (2.5, False), (Fraction(1, 3), False), (Fraction(10**400, 3), False),
        (math.inf, False), (math.nan, False), (True, False), ("3", False), (None, False),
    ])
    def test_integer_values(self, value, expected):
        assert is_integer(value) is expected

    @pytest.mark.parametrize("site", list(_INTEGER_SITES))
    def test_a_fraction_beyond_the_float_range(self, site):
        # A fraction is decided by its denominator, not through a float.
        call, below, above = _INTEGER_SITES[site]
        with pytest.raises(DataError, match=rf"^{site} must be an integer, got Fraction\("):
            call(Fraction(10**400, 3))
        # An integral one reaches its owner's range check.
        with pytest.raises(DataError, match=f"^{re.escape(below)}"):
            call(Fraction(-(10**400)))
        if above is not None:
            with pytest.raises(DataError, match=f"^{re.escape(above)}"):
                call(Fraction(10**400))


class TestCheckCount:
    def test_a_given_floor(self):
        assert check_count("resolution", Fraction(4, 2), least=2) == 2
        with pytest.raises(DataError, match="^resolution must be at least 2$"):
            check_count("resolution", 1, least=2)
        with pytest.raises(DataError, match=r"^resolution must be an integer, got 2\.5$"):
            check_count("resolution", 2.5, least=2)

    def test_a_given_cap(self):
        assert check_count("rays", 5, most=5) == 5
        with pytest.raises(DataError, match="^rays must be at most 5, got 6$"):
            check_count("rays", 6, most=5)

    @pytest.mark.parametrize("site", sorted(COUNT_CAPS))
    @pytest.mark.parametrize("over", ["cap+1", "10**400"])
    def test_the_library_caps_the_counts_the_cli_caps(self, site, over):
        # Before anything is allocated: beyond the cap, numpy would raise its
        # own ValueError (or try to allocate the grid).
        cap = COUNT_CAPS[site][1]
        value = cap + 1 if over == "cap+1" else 10**400
        with pytest.raises(DataError, match=f"^{re.escape(f'{site} must be at most {cap}, got {shown(value)}')}$"):
            _INTEGER_SITES[site][0](value)
