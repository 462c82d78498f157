"""Deterministic CSV emission: 15 significant digits, dot decimals, LF
endings, UTF-8, atomic replace so failed runs never leave partial files.

A table is a header and a sequence of blocks.  A block is a tuple of
equal-length columns, one per CSV field, and each column is one of:

- a str: the same cell on every row of the block;
- a float64 ndarray (a strided view is fine): each cell as "%.15g";
- any other sequence: each cell as format_value writes it.

A float64 column's cells come from one numpy kernel, _float_cells, with
the bytes of Python's "%.15g".  It finds the 15-digit decimal of each
cell exactly (the correctly rounded conversion of Gay's dtoa.c, which
CPython uses): frexp splits x = f*2**b, and f times the double-double
2**b * 10**(14-e), through Dekker's error-free product, gives the
integer of digits and its remainder.  Cells that are 0, inf or nan, and
cells whose remainder lies within 1e-6 of a rounding tie, take
format_value instead, so the fallback is the reference itself.  The text
is looked up four digits at a time and its padding dropped.
"""
from __future__ import annotations

import math
import os
import tempfile

import numpy as np

# rows formatted by one % template
BLOCK_ROWS = 4096


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _formatted(column) -> list:
    return list(map(format_value, column))


# -- the text of a float64 cell ----------------------------------------------
#
# A cell is one fixed-width record of 11 little words of 4 bytes, NUL
# where it has no character:
#   0-3   sign and integer digits, leading zeros as NUL ("-" sits in the
#         first byte, which is always a leading zero of 16 digits);
#   4     ".", or "0." to "0.00" before the fraction of 0.0001 <= |x| < 1;
#   5-8   fraction digits, trailing zeros as NUL;
#   9-10  "e+XX" or "e-XXX" when the exponent form is used, then "\n".

# the 4-digit groups 0000-9999 as ASCII words: with their leading zeros
# as NUL, in full, and with their trailing zeros as NUL
_ascii = np.frombuffer(b"0123456789", np.uint8)
_digits = np.empty((10000, 4), np.uint8)
_lead, _trail = np.empty_like(_digits), np.empty_like(_digits)
for _j, _place in enumerate((1000, 100, 10, 1)):
    _digits[:, _j] = np.tile(np.repeat(_ascii, _place), 1000 // _place)
    _lead[:, _j] = _trail[:, _j] = _digits[:, _j]
    _lead[:_place, _j] = 0                 # v < 10**(3-j): a leading zero
    _trail[::10 * _place, _j] = 0          # v % 10**(4-j) == 0: a trailing one
_GROUPS = np.concatenate([_lead, _digits, _trail]).view(np.uint32).ravel()
_FULL, _TRAIL = 10000, 20000      # offsets of the full and trailing tables
_GROUP_DIV = 10 ** np.arange(12, -1, -4, dtype=np.int64)[:, None]
_SIGN = np.array([[0] * 4, [ord("-"), 0, 0, 0]], np.uint8).view(np.uint32).ravel()

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
_point = np.zeros((len(_x), 2, 4), np.uint8)
_point[:, 1, 0] = ord(".")
_small = _fixed & (_x < 0)
_point[_small, :, :2] = np.frombuffer(b"0.", np.uint8)
_point[_small & (_x < -1), :, 2] = ord("0")
_point[_small & (_x < -2), :, 3] = ord("0")
_POINT = _point.view(np.uint32).ravel()
# _END[:, X - _X_LOW]
_ax = np.abs(_x)
_end = np.zeros((len(_x), 8), np.uint8)
_end[:, 0] = ord("e")
_end[:, 1] = np.where(_x < 0, ord("-"), ord("+"))
_end[:, 2] = np.where(_ax < 100, 0, _ax // 100 + ord("0"))
_end[:, 3] = _ax // 10 % 10 + ord("0")
_end[:, 4] = _ax % 10 + ord("0")
_end[_fixed, :5] = 0
_end[:, 5] = ord("\n")
_END = np.ascontiguousarray(_end.view(np.uint32).T)
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


def _float_cells(column) -> list:
    """The cells of a float64 ndarray as "%.15g" writes them, a list of str."""
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
    record[0] |= np.take(_SIGN, np.signbit(column).view(np.uint8))
    record[4] = np.take(_POINT, 2 * x + (frac != 0))
    record[9:11] = _END[:, x]
    cells = record.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    for i in np.flatnonzero(fallback).tolist():
        cells[i] = format_value(float(column[i]))
    return cells


def _block_text(block) -> list:
    """The lines of one block, BLOCK_ROWS rows per string.

    A str column is baked into the row template (its % escaped); every
    other column fills one "%s" field of it, interleaved into one flat
    list: flat[j::m] holds the j-th such column's cells.
    """
    fields, columns, fills = [], [], []
    for column in block:
        if isinstance(column, str):
            fields.append(column.replace("%", "%%"))
            continue
        fields.append("%s")
        columns.append(column)
        float64 = isinstance(column, np.ndarray) and column.dtype == np.float64
        fills.append(_float_cells if float64 else _formatted)
    lengths = set(map(len, columns))
    if len(lengths) != 1:
        raise ValueError("a block needs at least one column that is not a "
                         f"str, all of one length; got lengths {sorted(lengths)}")
    rows, = lengths
    row = ",".join(fields)
    m = len(columns)
    text = []
    for i in range(0, rows, BLOCK_ROWS):
        k = min(BLOCK_ROWS, rows - i)
        flat = [None] * (k * m)
        for j, (column, fill) in enumerate(zip(columns, fills)):
            flat[j::m] = fill(column[i:i + k])
        text.append("\n".join([row] * k) % tuple(flat))
    return text


def render_csv(header: str, blocks) -> str:
    """The table as text: the header, then every block's rows in order."""
    lines = [header]
    for block in blocks:
        lines.extend(_block_text(block))
    return "\n".join(lines) + "\n"


def write_csv_atomic(path: str, header: str, blocks) -> None:
    """Write the whole table to a temp file, then rename into place."""
    text = render_csv(header, blocks)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
