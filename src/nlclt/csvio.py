"""Deterministic CSV emission: 15 significant digits, dot decimals, LF
endings, atomic replace so failed runs never leave partial files."""
from __future__ import annotations

import os
import tempfile


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def render_csv(header: str, rows) -> str:
    """The table as text, each cell as format_value writes it.

    Each row is formatted by a single % template: "%.15g" for a float cell
    (f"{v:.15g}", as format_value) and "%s" (str) for any other.  The
    template follows the row's cell types and is rebuilt only when they
    change from the previous row.
    """
    lines = [header]
    types = template = None
    for row in rows:
        row = tuple(row)
        row_types = tuple(map(type, row))
        if row_types != types:
            types = row_types
            template = ",".join("%.15g" if issubclass(t, float) else "%s"
                                for t in types)
        lines.append(template % row)
    return "\n".join(lines) + "\n"


def write_csv_atomic(path: str, header: str, rows) -> None:
    """Write the whole table to a temp file, then rename into place."""
    text = render_csv(header, rows)
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
