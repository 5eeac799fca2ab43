"""Shared error type for invalid data, parameters, and files, and the
number tests that every input check uses."""

import numbers


class DataError(ValueError):
    """Invalid sequences, samples, parameters, or input files.

    The CLI maps this (and I/O failures) to exit code 2, keeping it
    distinct from usage errors (exit 1).
    """


def is_number(value) -> bool:
    """A real number; ``True`` and ``False`` (JSON's true and false) are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer, or a number with an integer value such as ``1e5``."""
    return is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())
