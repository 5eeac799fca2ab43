"""CSV cell text: Python's ``'%.17g'`` and ``'%d'`` bytes of numeric
columns, spelled by numpy a block at a time (:func:`csv_block`).

Each numeric column of a block is spelled into its slot of the block's
byte matrix, beside a mask of the bytes each cell holds. For a float v,
the 17-digit significand D and exponent E come from |v| * 10**(16 - E)
in double-double arithmetic, E first guessed as floor(log10|v|). A
source row holds D's digits, E's and the marks; a pattern per sign and
notation (fixed, or scientific with an exponent of two or three digits)
picks the cell's bytes from it, and a mask per pattern and count of D's
trailing zeros drops those zeros. A cell the arithmetic cannot certify
is formatted by Python, one at a time: zero, non-finite and extreme
values, a rounding within _TIE of a tie, and a wrong guess of E (D
outside [1e16, 1e17)).
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_FLOAT_LIMIT = 280  # |v| in [1e-280, 1e280]: no product below overflows or turns subnormal
_TIE = 2.0**-30  # far above the error of q's fraction, which is below 2**-45
_SPLIT = 2.0**27 + 1  # Dekker's split: a double as the sum of two 26-bit halves
_FLOAT_WIDTH = 24  # len("-1.2345678901234567e-100")
_INT_WIDTH = 20  # a sign and 19 digits
# The float source row: "000" and D's 17 digits (bytes 0..19), "0" and E's
# last three digits (20..23), then the marks.
_MINUS, _POINT, _E, _PLUS = 24, 25, 26, 27
_MARKS = 10_000  # the chunk of the marks, after those of 0..9999
_CLASSES = [*range(-4, 17), 17, 100, -5, -100]  # an exponent of each notation


def _pattern(exponent: int) -> list[int]:
    # The source bytes of the cell '%.17g' spells for a positive value of
    # this exponent from all 17 digits of D.
    d = list(range(3, 20))
    if exponent < -4 or exponent >= 17:
        return d[:1] + [_POINT] + d[1:] + [_E, _MINUS if exponent < 0 else _PLUS] + [21, 22, 23][abs(exponent) < 100:]
    if exponent < 0:
        return [0, _POINT] + [0] * (-exponent - 1) + d
    return d[:exponent + 1] + [_POINT] + d[exponent + 1:]


@functools.cache
def _tables() -> SimpleNamespace:
    """The cell kernels' tables, built on the first CSV write.

    ``chunks``: the four ASCII digits of 0..9999, one uint32 each, then
    the marks; ``zeros``: the trailing zeros of 0..9999. By E + 281, for
    E in [-281, 280]: ``powers``, 10**(16 - E) as hi + lo and hi's Dekker
    halves, and ``notation``, E's index in ``_CLASSES``. ``patterns``
    (source bytes) by notation + 25 * negative, and ``masks`` (bytes
    kept) by that times 17 plus D's trailing zeros: those to D's last
    nonzero digit, but at least the integer digits, then any exponent.
    """
    n = np.arange(10_000)
    digits = n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    powers = []
    for e in range(-_FLOAT_LIMIT - 1, _FLOAT_LIMIT + 1):
        if e <= 16:  # int to float and int / int are correctly rounded
            hi = float(10**(16 - e))
            lo = float(10**(16 - e) - int(hi))
        else:
            hi = 1 / 10**(e - 16)
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**(e - 16)) / (den * 10**(e - 16))
        split = hi * _SPLIT
        high = split - (split - hi)
        powers.append((hi, high, hi - high, lo))
    e = np.arange(-_FLOAT_LIMIT - 1, _FLOAT_LIMIT + 1)
    patterns, kept, exponents = [], [], []
    for columns in ([_MINUS] * negative + _pattern(exponent) for negative in (0, 1) for exponent in _CLASSES):
        patterns.append(columns + [0] * (_FLOAT_WIDTH - len(columns)))
        kept += [max(columns.index(19 - zeros) + 1, columns.index(_POINT)) for zeros in range(17)]
        exponents.append((columns.index(_E) if _E in columns else len(columns), len(columns)))
    exponent_from, end = np.repeat(exponents, 17, axis=0).T[:, :, None]
    at = np.arange(_FLOAT_WIDTH)
    return SimpleNamespace(
        chunks=np.append(digits.astype(np.uint8).view(np.uint32), np.frombuffer(b"-.e+", dtype=np.uint32)),
        zeros=sum((n % 10**k == 0).astype(np.int64) for k in range(1, 5)),
        powers=np.array(powers),
        notation=np.where((e >= -4) & (e < 17), e + 4, 21 + 2 * (e < 0) + (np.abs(e) >= 100)),
        patterns=np.array(patterns, dtype=np.intp),
        masks=(at < np.array(kept)[:, None]) | ((at >= exponent_from) & (at < end)),
    )


def _split4(n):
    # The high and the low four digits of each n below 10**8.
    high = n // 10_000
    return high, n - high * 10_000


def _spell(chunks) -> np.ndarray:
    # Each row's chunks (int64s below 10**4, or _MARKS) as ASCII, four bytes a chunk.
    words = np.empty((len(chunks[0]), len(chunks)), dtype=np.uint32)
    for j, chunk in enumerate(chunks):
        words[:, j] = np.take(_tables().chunks, chunk)
    return words.view(np.uint8)


def _float_cells(values, cells, keep) -> None:
    """Spell ``'%.17g' % v`` for each float64 v into the rows of ``cells``
    (uint8, ``_FLOAT_WIDTH`` wide) and mark the bytes it holds in ``keep``."""
    t = _tables()
    x = np.abs(values)
    certain = (x >= 10.0**-_FLOAT_LIMIT) & (x <= 10.0**_FLOAT_LIMIT)
    x[~certain] = 1.0
    exponent = np.floor(np.log10(x)).astype(np.int64)
    row = exponent + _FLOAT_LIMIT + 1
    hi, high, low, lo = np.take(t.powers, row, axis=0).T
    product = x * hi
    split = x * _SPLIT
    x_high = split - (split - x)
    x_low = x - x_high
    # x * 10**(16 - E) = product + error, exactly but for error's last bits
    error = ((x_high * high - product) + x_high * low + x_low * high) + x_low * low + x * lo
    whole = np.floor(error)
    fraction = error - whole
    floor_q = product.astype(np.int64) + whole.astype(np.int64)
    significand = floor_q + (fraction > 0.5)
    certain &= (np.abs(fraction - 0.5) > _TIE) & (floor_q >= 10**16) & (significand < 10**17)
    significand[~certain] = 10**16
    top = significand // 10**8
    lead = top // 10**8
    chunks = [lead, *_split4(top - lead * 10**8), *_split4(significand - top * 10**8)]
    source = _spell([*chunks, np.abs(exponent), np.full_like(lead, _MARKS)])
    zeros = np.take(t.zeros, chunks[1])
    for chunk in chunks[2:]:
        zeros = np.take(t.zeros, chunk) + (chunk == 0) * zeros
    notation = np.take(t.notation, row) + 25 * (values < 0)
    keep[:] = np.take(t.masks, notation * 17 + zeros, axis=0)
    picks = np.take(t.patterns, notation, axis=0)
    picks += np.arange(0, source.size, source.shape[1])[:, None]  # as indices into the flat source
    cells[:] = np.take(source, picks)
    rows = np.flatnonzero(~certain)
    if rows.size:
        text = ["%.17g" % v for v in values[rows].tolist()]
        cells[rows] = np.array(text, dtype=f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(-1, _FLOAT_WIDTH)
        keep[rows] = np.arange(_FLOAT_WIDTH) < np.array([len(s) for s in text])[:, None]


def _int_cells(values, cells, keep) -> None:
    """Spell ``'%d' % i`` for each int64 i into the rows of ``cells``
    (uint8, ``_INT_WIDTH`` wide), right-aligned, and mark its bytes in ``keep``."""
    negative = np.minimum(values, -values)  # -|i|, which int64 holds for every i
    top = negative // -10**8
    lead = top // 10**8
    bottom = -(negative + top * 10**8)  # |i| = top * 10**8 + bottom
    chunks = [lead, *_split4(top - lead * 10**8), *_split4(bottom)]
    cells[:] = _spell(chunks)
    # The cell starts after column 0 and a '0' for each power of ten from 10
    # to 10**18 above |i|, or one column before that, at the sign.
    begin = 1 + np.searchsorted(-10 ** np.arange(18, 0, -1, dtype=np.int64), negative) - (values < 0)
    signed = np.flatnonzero(values < 0)
    cells[signed, begin[signed]] = ord("-")
    keep[:] = np.arange(_INT_WIDTH) >= begin[:, None]


def csv_block(columns, rows: slice) -> bytes:
    """The CSV text of ``rows`` of ``columns`` (float64 or int64 arrays, or
    a label's bytes, the same on every row), ``\\r\\n`` after each row.

    Each column's cells and the separator after them lie side by side in
    one byte matrix, which the mask of the bytes each cell holds compacts.
    """
    parts = [c if isinstance(c, bytes) else c[rows] for c in columns]
    count = len(next(p for p in parts if not isinstance(p, bytes)))
    widths = [len(p) if isinstance(p, bytes) else _FLOAT_WIDTH if p.dtype.kind == "f" else _INT_WIDTH
              for p in parts]
    text = np.empty((count, sum(widths) + len(parts) + 1), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    at = 0
    for part, width in zip(parts, widths):
        cells, mask = text[:, at:at + width], keep[:, at:at + width]
        if isinstance(part, bytes):
            cells[:] = np.frombuffer(part, dtype=np.uint8)
        elif part.dtype.kind == "f":
            _float_cells(part, cells, mask)
        else:
            _int_cells(part, cells, mask)
        text[:, at + width] = ord(",")
        at += width + 1
    text[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)  # over the last ","
    return text[keep].tobytes()
