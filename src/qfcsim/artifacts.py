"""Artifact files: the one text format every writer and reader shares.

A table is a header line, then one comma-separated row per record; a
key=value file holds one ``key=value`` line per entry.  Ints and bools are
written with ``str`` and floats with ``repr``, so a float64 reads back bit
for bit.  Table readers skip blank and ``#`` lines and raise ValueError on a
malformed or out-of-range field.

Table rows are formatted in blocks, and a table of at least
``parallel.MIN_TASKS`` blocks is formatted on forked worker processes
(``repr`` holds the GIL, so threads would not help); the blocks are written
in order, so the file is the same byte for byte on either schedule.
"""

from __future__ import annotations

import warnings

import numpy as np

from .parallel import ordered_map

#: table rows formatted per write, which bounds the Python objects alive at once
BLOCK_ROWS = 1 << 16


def format_pairs(pairs: dict, sep: str = "\n") -> str:
    """``key=value`` items joined by ``sep``; floats as ``repr``, the rest as ``str``."""
    return sep.join(f"{key}={float(val)!r}" if isinstance(val, (float, np.floating))
                    else f"{key}={val}" for key, val in pairs.items())


def parse_header(line: str) -> dict[str, str]:
    """The ``key=value`` items of a ``# key=value ...`` header line, as strings."""
    if not line.startswith("#"):
        raise ValueError("missing header line")
    return dict(item.split("=", 1) for item in line[1:].split())


def write_pairs(path, pairs: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pairs(pairs) + "\n")


def _format_rows(columns) -> str:
    """One line per row of equal-length ``columns``, each ending in a newline."""
    # tolist() gives Python ints, bools and floats, whose repr is the file format
    fields = (map(repr, c.tolist()) for c in columns)
    return "\n".join(map(",".join, zip(*fields))) + "\n"


def write_table(path, header: str, columns) -> None:
    """The ``header`` line, then row i from the i-th entries of ``columns``,
    formatted per ``BLOCK_ROWS`` block and written in block order."""
    columns = [np.asarray(col) for col in columns]
    blocks = ([c[lo:lo + BLOCK_ROWS] for c in columns]
              for lo in range(0, len(columns[0]), BLOCK_ROWS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for text in ordered_map(_format_rows, blocks, processes=True):
            fh.write(text)


def read_table(lines, dtype: np.dtype, skip: str | None = None) -> list[np.ndarray]:
    """One column per ``dtype`` field from the rows in ``lines`` (an iterable
    of lines or a UTF-8 file path), minus lines equal to ``skip``."""
    if skip is not None:
        lines = (line for line in lines if line.strip() != skip)
    with warnings.catch_warnings():
        # a table without rows gives empty columns; a float in an integer column is an error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("error", "loadtxt.*integer via a float", DeprecationWarning)
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments="#", ndmin=1,
                          encoding="utf-8")
    return [rows[name] for name in dtype.names]
