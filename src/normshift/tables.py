"""The one writer of every CSV and .dat file.

Every float is written at 17 significant digits, so it reads back as the
same double, and the same double prints the same text in every file of a
run: x and y of ``trajectory.csv`` and ``plot_xy.dat``, for example, are
formatted once by :func:`formatted` and written to both.
"""

from __future__ import annotations

import numpy as np

_DIGITS = b"%.17g"
_WIDTH = 24  # the longest %.17g text: sign, 17 digits, point, e-308
_CHUNK = 256  # rows formatted per write: bounded memory for long tables


def formatted(values) -> np.ndarray:
    """The 17-significant-digit text of each value, as ASCII bytes in an array
    with the shape of ``values``, which :func:`write_table` writes verbatim.

    Each value's text takes 24 bytes of the array, not a Python object of
    its own, so a column of text costs three times the memory of its floats
    rather than ten.
    """
    values = np.asarray(values, float)
    text = np.empty(values.size, f"S{_WIDTH}")
    flat = values.ravel()
    for start in range(0, len(flat), _CHUNK):
        text[start:start + _CHUNK] = [_DIGITS % x for x in flat[start:start + _CHUNK].tolist()]
    return text.reshape(values.shape)


def write_table(path, columns, header: str | None = None, sep: str = ",",
                block: int | None = None):
    """One line per row of the equal-length 1-D ``columns``, after ``header``
    if given.  A column holds floats, or their text from :func:`formatted`.
    ``block`` ends every run of that many rows with a blank line (gnuplot's
    block separator)."""
    columns = [c if c.dtype.kind == "S" else np.asarray(c, float)
               for c in map(np.asarray, columns)]
    line = sep.encode().join(b"%s" if c.dtype.kind == "S" else _DIGITS
                             for c in columns) + b"\n"
    n_rows = len(columns[0])
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode() + b"\n")
        for start in range(0, n_rows, _CHUNK):
            cells = np.empty((min(_CHUNK, n_rows - start), len(columns)), object)
            for j, column in enumerate(columns):
                cells[:, j] = column[start:start + _CHUNK]
            template = _lines(line, start, len(cells), block)
            fh.write(template % tuple(cells.ravel().tolist()))


def _lines(line: bytes, start: int, n_rows: int, block: int | None) -> bytes:
    """The template of rows start .. start + n_rows - 1 of a table, counted
    from 0: ``line`` per row, and a blank line after each row that ends a run
    of ``block`` rows."""
    if not block:
        return line * n_rows
    cuts = [0, *range(block - start % block, n_rows + 1, block)]
    return b"\n".join(line * (b - a) for a, b in zip(cuts, cuts[1:] + [n_rows]))
