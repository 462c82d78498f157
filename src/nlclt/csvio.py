"""Deterministic CSV emission: 15 significant digits, dot decimals, LF
endings, UTF-8, atomic replace so failed runs never leave partial files.

A table is a header and a sequence of blocks.  A block is a tuple of
equal-length columns, one per CSV field, and each column is one of:

- a str: the same cell on every row of the block;
- a float64 ndarray (a strided view is fine): each cell as "%.15g";
- any other sequence: each cell as format_value writes it.

render_csv gives the table as UTF-8 bytes through one record path.  Each
column of a chunk of at most BLOCK_ROWS rows becomes one fixed-width
record per cell: its UTF-8 bytes, then "," or "\n", padded to whole
4-byte words with the byte 0xFF, which UTF-8 never holds (a str cell may
hold a NUL).  A str column is one constant record; any other non-float64
column is its format_value cells, laid out by numpy; a float64 column
comes from one numpy kernel.
The chunk's rows are its columns' records side by side, and one
bytes.translate drops the padding.  Within one call, a float64 column
object that an earlier block rendered reuses its records.  A table of at
least SPLIT_MIN_CELLS cells renders the second half of its rows in one
forked child (split._run), with the same bytes.

The float64 kernel, _float_records, gives the bytes of Python's "%.15g".
It finds the 15-digit decimal of each cell exactly (the correctly rounded
conversion of Gay's dtoa.c, which CPython uses): frexp splits
x = f*2**b, and f times the double-double 2**b * 10**(14-e), through
Dekker's error-free product, gives the integer of digits and its
remainder.  Cells that are 0, inf or nan, and cells whose remainder lies
within 1e-6 of a rounding tie, take format_value instead, written into
their records, so the fallback is the reference itself.  The text is
looked up four digits at a time.
"""
from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import split

# rows rendered as one chunk of records
BLOCK_ROWS = 4096
# render_csv forks for a table of at least this many cells outside its str
# columns, a repeated float64 column's counted once: 2-column tables of
# 40000, 60000 and 100001 rows took 14.3, 22.2 and 36.4 ms serial and
# 15.2, 19.7 and 28.8 ms split, and a 48003-row figures table (64004
# cells, its three curves sharing one y column) 14.8 ms serial and 16.9
# ms split (medians of 9, 2-vCPU x86-64 VM)
SPLIT_MIN_CELLS = 120_000


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


# -- records ------------------------------------------------------------------

_PAD = 0xFF
_ENDS = b",\n"       # a cell's last byte: _ENDS[the column is the row's last]


def _text_records(cells, last: bool, words: int = 0) -> np.ndarray:
    """The records of str cells, (cells, words) uint32: each cell's UTF-8
    bytes, its end byte, then padding; words is at least the fewest that
    hold the longest cell."""
    text = [cell.encode("utf-8") for cell in cells]
    lengths = np.fromiter(map(len, text), np.intp, len(text))
    width = 4 * max(words, int(lengths.max()) // 4 + 1)
    record = np.array(text, f"S{width}").view(np.uint8).reshape(len(text), width)
    record[np.arange(width) > lengths[:, None]] = _PAD
    record[np.arange(len(text)), lengths] = _ENDS[last]
    return record.view(np.uint32)


# -- the records of a float64 cell -------------------------------------------
#
# A cell is one fixed-width record of 11 little words of 4 bytes, padded
# where it has no character:
#   0-3   sign and integer digits, leading zeros as padding ("-" sits in
#         the first byte, which is always a leading zero of 16 digits);
#   4     ".", or "0." to "0.00" before the fraction of 0.0001 <= |x| < 1;
#   5-8   fraction digits, trailing zeros as padding;
#   9-10  "e+XX" or "e-XXX" when the exponent form is used, then the end byte.

# the 4-digit groups 0000-9999 as ASCII words: with their leading zeros
# as padding, in full, and with their trailing zeros as padding
_ascii = np.frombuffer(b"0123456789", np.uint8)
_digits = np.empty((10000, 4), np.uint8)
_lead, _trail = np.empty_like(_digits), np.empty_like(_digits)
for _j, _place in enumerate((1000, 100, 10, 1)):
    _digits[:, _j] = np.tile(np.repeat(_ascii, _place), 1000 // _place)
    _lead[:, _j] = _trail[:, _j] = _digits[:, _j]
    _lead[:_place, _j] = _PAD              # v < 10**(3-j): a leading zero
    _trail[::10 * _place, _j] = _PAD       # v % 10**(4-j) == 0: a trailing one
_GROUPS = np.concatenate([_lead, _digits, _trail]).view(np.uint32).ravel()
_FULL, _TRAIL = 10000, 20000      # offsets of the full and trailing tables
_GROUP_DIV = 10 ** np.arange(12, -1, -4, dtype=np.int64)[:, None]
# ANDed into word 0: "-" over its first byte, which is padding
_SIGN = np.array([[_PAD] * 4, [ord("-"), _PAD, _PAD, _PAD]],
                 np.uint8).view(np.uint32).ravel()

# per decimal exponent X of the rounded cell, from _X_LOW on: "%.15g" writes
# -4 <= X < 15 as fixed point, the rest as d.ddd e+XX; a fixed-point cell
# has X+1 integer digits (none below 1), an exponent-form cell one
_X_LOW = -330
_x = np.arange(_X_LOW, 320, dtype=np.int64)
_fixed = (_x >= -4) & (_x < 15)
_int_digits = np.where(_fixed, np.maximum(_x + 1, 0), 1)
# N // _INT_DIV are the integer digits of the 15 digits N; the rest times
# _FRAC_MUL is the fraction left-aligned in 16 digits (X = -4 keeps one of
# its three leading zeros there: the word before holds 4 characters)
_INT_DIV = 10 ** (15 - _int_digits).astype(np.int64)
_FRAC_MUL = np.where(_x == -4, 1, 10 ** (_int_digits + 1)).astype(np.int64)
# _POINT[2*(X - _X_LOW) + (fraction != 0)]
_point = np.full((len(_x), 2, 4), _PAD, np.uint8)
_point[:, 1, 0] = ord(".")
_small = _fixed & (_x < 0)
_point[_small, :, :2] = np.frombuffer(b"0.", np.uint8)
_point[_small & (_x < -1), :, 2] = ord("0")
_point[_small & (_x < -2), :, 3] = ord("0")
_POINT = _point.view(np.uint32).ravel()
# _END[last][:, X - _X_LOW]
_ax = np.abs(_x)
_end = np.full((2, len(_x), 8), _PAD, np.uint8)
_end[:, :, 0] = ord("e")
_end[:, :, 1] = np.where(_x < 0, ord("-"), ord("+"))
_end[:, :, 2] = np.where(_ax < 100, _PAD, _ax // 100 + ord("0"))
_end[:, :, 3] = _ax // 10 % 10 + ord("0")
_end[:, :, 4] = _ax % 10 + ord("0")
_end[:, _fixed, :5] = _PAD
_end[:, :, 5] = np.frombuffer(_ENDS, np.uint8)[:, None]
_END = np.ascontiguousarray(_end.view(np.uint32).transpose(0, 2, 1))
del _ascii, _digits, _lead, _trail, _j, _place, _x, _fixed, _int_digits, _point
del _small, _ax, _end

# per binary exponent b of frexp, at i = b - _B_LOW, built the first time a
# column holds it (each entry depends on b alone): _TEN_UP[i] is 10**(e+1)
# rounded up, where 10**e <= 2**(b-1) < 10**(e+1); the cell's decimal
# exponent X is e below it and e+1 from it on, and row 2*i + (|x| >= it)
# holds X and the scale 2**b * 10**(14-X) as hi + lo, hi in two halves
_B_LOW = -1080
_B_COUNT = 1030 - _B_LOW
_BUILT = np.zeros(_B_COUNT, bool)
_TEN_UP = np.zeros(_B_COUNT)
_SCALE = np.zeros((4, 2 * _B_COUNT))         # hi, hi's halves, lo
_EXPONENT = np.zeros(2 * _B_COUNT, np.int64)  # X - _X_LOW
_SPLITTER = 134217729.0                      # 2**27 + 1, Veltkamp's


def _halves(v):
    big = _SPLITTER * v
    hi = big - (big - v)
    return hi, v - hi


def _build_scales(offsets) -> None:
    """Exact Python integers give each constant correctly rounded."""
    for i in offsets.tolist():
        k = i + _B_LOW - 1            # 2**k <= |x| < 2**(k+1)
        e = len(str(1 << k)) - 1 if k >= 0 else -len(str(1 << -k))
        two = (1 << k + 1, 1) if k >= -1 else (1, 1 << -k - 1)
        for up, x in enumerate((e, e + 1)):
            num, den = two
            if x <= 14:
                num *= 10 ** (14 - x)
            else:
                den *= 10 ** (x - 14)
            hi = num / den
            p, q = hi.as_integer_ratio()
            lo = (num * q - p * den) / (den * q)
            _SCALE[:, 2 * i + up] = (hi, *_halves(hi), lo)
            _EXPONENT[2 * i + up] = x - _X_LOW
        num, den = (10 ** (e + 1), 1) if e >= -1 else (1, 10 ** (-e - 1))
        ten = num / den
        p, q = ten.as_integer_ratio()
        _TEN_UP[i] = ten if p * den >= num * q else math.nextafter(ten, math.inf)
    _BUILT[offsets] = True


def _groups(value):
    """value // 10**(12, 8, 4, 0), and value's four 4-digit groups."""
    q = value // _GROUP_DIV
    g = q.copy()
    g[1:] -= 10000 * q[:3]
    return q, g


def _float_records(column, last: bool) -> np.ndarray:
    """The records of a float64 ndarray's cells as "%.15g" writes them,
    (11, cells) uint32."""
    a = np.abs(column)
    fallback = ~np.isfinite(a) | (a == 0)
    np.copyto(a, 1.0, where=fallback)   # before any cast of a nan or inf
    f, b = np.frexp(a)
    b -= _B_LOW
    if not _BUILT[b].all():
        seen = np.zeros(_B_COUNT, bool)
        seen[b] = True
        _build_scales(np.flatnonzero(seen > _BUILT))
    row = 2 * b + (a >= _TEN_UP[b])
    hi, hi_hi, hi_lo, lo = (np.take(s, row) for s in _SCALE)
    # y = f*(hi + lo) in [1e14, 1e15]: p = f*hi exactly as p + err (Dekker)
    f_hi, f_lo = _halves(f)
    p = f * hi
    err = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + f * lo)   # y - whole, to about 1e-16
    fallback |= np.abs(rest - 0.5) < 1e-6
    digits = whole.astype(np.int64) + (rest > 0.5)
    carry = digits == 10 ** 15
    digits[carry] = 10 ** 14
    x = np.take(_EXPONENT, row) + carry

    # the text: integer digits and fraction of the 15 digits, by X
    div = np.take(_INT_DIV, x)
    whole = digits // div
    frac = (digits - whole * div) * np.take(_FRAC_MUL, x)
    record = np.empty((11, len(a)), np.uint32)
    q, g = _groups(whole)
    g[1:] += _FULL * (q[:3] != 0)        # a group past the leading zeros
    record[0:4] = _GROUPS[g]
    q, g = _groups(frac)
    g += _TRAIL
    g[:3] -= _FULL * (frac != q[:3] * _GROUP_DIV[:3])   # digits follow it
    record[5:9] = _GROUPS[g]
    record[0] &= np.take(_SIGN, np.signbit(column).view(np.uint8))
    record[4] = np.take(_POINT, 2 * x + (frac != 0))
    record[9:11] = _END[int(last)][:, x]
    at = np.flatnonzero(fallback)
    if len(at):
        cells = map(format_value, column[at].tolist())
        record[:, at] = _text_records(list(cells), last, len(record)).T
    return record


# -- tables -------------------------------------------------------------------

def _is_float64(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


def _checked(blocks) -> list:
    """(block, rows) of each block; ValueError unless a block has a column
    that is not a str and all such columns are of one length."""
    table = []
    for block in blocks:
        lengths = {len(c) for c in block if not isinstance(c, str)}
        if len(lengths) != 1:
            raise ValueError("a block needs at least one column that is not a "
                             f"str, all of one length; got lengths {sorted(lengths)}")
        table.append((block, lengths.pop()))
    return table


def _column_records(column, i: int, j: int, last: bool) -> np.ndarray:
    """The records of rows i..j-1 of a column, (rows or 1, words) uint32."""
    if isinstance(column, str):
        return _text_records([column], last)
    if _is_float64(column):
        return _float_records(column[i:j], last).T
    return _text_records(list(map(format_value, column[i:j])), last)


def _render(table, lo: int, hi: int, repeated: set) -> bytes:
    """Rows lo..hi-1 of a _checked table, counted over all of its blocks,
    as UTF-8 bytes; the float64 columns whose id is in repeated keep their
    records for the blocks after."""
    chunks, kept, start = [], {}, 0
    for block, rows in table:
        ends = [False] * (len(block) - 1) + [True]
        for i in range(max(lo - start, 0), min(hi - start, rows), BLOCK_ROWS):
            j = min(i + BLOCK_ROWS, hi - start, rows)
            parts = []
            for column, last in zip(block, ends):
                key = id(column), i, j, last
                records = kept.get(key)
                if records is None:
                    records = _column_records(column, i, j, last)
                    if id(column) in repeated:
                        kept[key] = records
                parts.append(records)
            rows_of = np.concatenate(
                [np.broadcast_to(p, (j - i, p.shape[1])) for p in parts], axis=1)
            chunks.append(rows_of.tobytes().translate(None, bytes([_PAD])))
        start += rows
    return b"".join(chunks)


def render_csv(header: str, blocks) -> bytes:
    """The table as UTF-8 bytes: the header, then every block's rows in order.

    A table of at least SPLIT_MIN_CELLS cells (see there) may render the
    second half of its rows in one forked child (see split)."""
    table = _checked(blocks)
    seen, repeated, cells = set(), set(), 0
    for block, n in table:
        for column in block:
            if _is_float64(column) and id(column) in seen:
                repeated.add(id(column))
            elif not isinstance(column, str):
                seen.add(id(column))
                cells += n
    rows = sum(n for _, n in table)
    half = rows // 2
    body = b"".join(split._run(cells, SPLIT_MIN_CELLS,
                               lambda: _render(table, 0, half, repeated),
                               lambda: _render(table, half, rows, repeated),
                               lambda: [_render(table, 0, rows, repeated)]))
    return header.encode("utf-8") + b"\n" + body


def write_csv_atomic(path: str, header: str, blocks) -> None:
    """Write the whole table to a temp file, then rename into place."""
    data = render_csv(header, blocks)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
