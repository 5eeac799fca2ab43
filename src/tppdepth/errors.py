"""Shared error type for invalid data, parameters, and files, and the
number tests and checks (numbers, arrays, counts, seeds) that every input check uses."""

import numbers
import reprlib

import numpy as np


class DataError(ValueError):
    """Invalid sequences, samples, parameters, or input files.

    The CLI maps this (and I/O failures) to exit code 2, keeping it
    distinct from usage errors (exit 1).
    """


def shown(value) -> str:
    """A caller's value as a message shows it: its ``repr``, cut short as
    :mod:`reprlib` cuts it, or its type where even that fails (an int
    beyond Python's digit limit for ``str``)."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"a value of type {type(value).__name__}"


def is_number(value) -> bool:
    """A real number; ``True`` and ``False`` (JSON's true and false) are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer, or a number with an integer value such as ``1e5``; a
    fraction is decided by its denominator, with no float."""
    return is_number(value) and (isinstance(value, numbers.Integral) or (
        value.denominator == 1 if isinstance(value, numbers.Rational) else float(value).is_integer()))


def check_number(name: str, value) -> float:
    """The one conversion of a caller's scalar: ``value`` as a float, or a
    DataError naming it unless it is a number (see :func:`is_number`) that
    fits in a float. Each owner checks its own range and finiteness."""
    if not is_number(value):
        raise DataError(f"{name} must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        raise DataError(f"{name} must fit in a float") from None


def check_numbers(name: str, values, each: str) -> tuple[float, ...]:
    """Each of ``values`` by :func:`check_number`, named ``each``; a
    DataError naming ``name`` if ``values`` is not iterable."""
    try:
        return tuple(check_number(each, value) for value in values)
    except TypeError:
        raise DataError(f"{name} must be a sequence of numbers, got {shown(values)}") from None


def check_array(what: str, values) -> np.ndarray:
    """The one conversion of a caller's array: ``values`` as a float array,
    or a DataError ``what (reason)`` unless every cell is a number (see
    :func:`is_number`) that fits in a float. Anything but an ndarray is read
    as objects, so no cell is parsed or converted first; an int or float
    ndarray is taken as it is (a float64 one without a copy)."""
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
        if arr.dtype.kind == "O":  # a cell of each type decides
            for cell in dict(zip(map(type, arr.flat), arr.flat)).values():
                if not is_number(cell):
                    raise ValueError(f"{shown(cell)} is not a real number")
        elif arr.dtype.kind not in "iuf":
            raise ValueError(f"the cells are of type {arr.dtype}")
        return arr.astype(float, copy=False)
    except (ValueError, OverflowError) as exc:  # ragged rows, other cells, or a number beyond the float range
        raise DataError(f"{what} ({exc})") from None


def check_count(name: str, value, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int, or a DataError naming it unless it is an integer
    (see :func:`is_integer`) of at least ``least`` and, if given, at most ``most``."""
    if not is_integer(value):
        raise DataError(f"{name} must be an integer, got {shown(value)}")
    if value < least:
        raise DataError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise DataError(f"{name} must be at most {most}, got {shown(value)}")
    return int(value)


def check_seed(seed) -> int:
    """The one seed check: ``seed`` as an int, or a DataError unless it is an
    integer (see :func:`is_integer`) with ``0 <= seed < 2**64``."""
    if not is_integer(seed):
        raise DataError(f"seed must be an integer, got {shown(seed)}")
    if not 0 <= seed < 2**64:
        raise DataError(f"seed must fit in 64 unsigned bits, got {shown(seed)}")
    return int(seed)
