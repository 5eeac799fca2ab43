"""Shared error type for invalid data, parameters, and files, and the
number tests and checks (counts, seeds) that every input check uses."""

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


def check_count(name: str, value) -> int:
    """``value`` as an int, or a DataError naming it unless it is an integer
    (see :func:`is_integer`) of at least 1."""
    if not is_integer(value):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DataError(f"{name} must be at least 1")
    return int(value)


def check_seed(seed) -> int:
    """The one seed check: ``seed`` as an int, or a DataError unless it is an
    integer (see :func:`is_integer`) with ``0 <= seed < 2**64``."""
    if not is_integer(seed):
        raise DataError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise DataError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)
