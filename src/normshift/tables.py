"""The one writer of every CSV and .dat file: floats at 17 significant
digits, so each reads back as the same double."""

from __future__ import annotations

import numpy as np


def write_table(path, rows, header: str | None = None, sep: str = ",",
                block: int | None = None):
    """One line per row of ``rows``, after ``header`` if given; ``block`` ends
    every run of that many rows with a blank line (gnuplot's block separator)."""
    rows = np.asarray(rows, float)
    line = sep.join(["{:.17g}"] * rows.shape[1]) + "\n"
    if block:
        line, rows = line * block + "\n", rows.reshape(-1, block * rows.shape[1])
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, len(rows), 256):  # bounded memory for long tables
            fh.write("".join(line.format(*row) for row in rows[start:start + 256].tolist()))
