"""Deterministic CSV emission: 15 significant digits, dot decimals, LF
endings, atomic replace so failed runs never leave partial files.

A table is a header and a sequence of blocks.  A block is a tuple of
equal-length columns, one per CSV field, and each column is one of:

- a str: the same cell on every row of the block;
- a float64 ndarray (a strided view is fine): each cell as "%.15g";
- any other sequence: each cell as format_value writes it.
"""
from __future__ import annotations

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


def _block_text(block) -> list:
    """The lines of one block, BLOCK_ROWS rows per string.

    A str column is baked into the row template (its % escaped); every
    other column fills one field of it, interleaved into one flat list:
    flat[j::m] holds the j-th such column's cells.
    """
    fields, columns, fills = [], [], []
    for column in block:
        if isinstance(column, str):
            fields.append(column.replace("%", "%%"))
            continue
        float64 = isinstance(column, np.ndarray) and column.dtype == np.float64
        fields.append("%.15g" if float64 else "%s")
        columns.append(column)
        fills.append(np.ndarray.tolist if float64 else _formatted)
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
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
