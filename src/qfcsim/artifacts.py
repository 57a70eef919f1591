"""Artifact files: the one text format every writer and reader shares.

A table is a header line, then one comma-separated row per record; a
key=value file holds one ``key=value`` line per entry.  Ints and bools are
written with ``str`` and floats with ``repr``, so a float64 reads back bit
for bit.  Table readers skip blank and ``#`` lines and raise ValueError on a
malformed or out-of-range field.

A table's rows come as a sequence of column blocks, which a stream save
makes one chunk at a time, and are formatted ``BLOCK_ROWS`` rows at a time
in the calling process, so a save holds one chunk's block and a few MB of
text however long the stream is.  A row block of integer and float
columns is formatted by numpy integer arithmetic over the whole block,
with the bytes ``repr`` gives: digits come from a table of the 10,000
four-digit groups, and a float takes the fewest fraction digits whose
nearest decimal reads back to it, rounded half to even as Python's
shortest-repr search (Gay's dtoa) does.  A row block with a bool or other
column, or with a float that is not zero and not in [2**23, 2**53) in
magnitude (non-finite or subnormal values, small values whose exact
products would overflow int64, large ones that ``repr`` may write with an
exponent), is formatted by ``repr`` itself, so every byte is right by
construction.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

#: table rows formatted per write, which bounds the arrays alive at once
BLOCK_ROWS = 1 << 14


@functools.cache
def _glyph_table() -> np.ndarray:
    """Four ASCII bytes per entry, as one uint32 each: the 10,000 groups of
    four digits zero-padded (``_FULL``), with leading zeros blanked but the
    units digit kept (``_LEAD``), with every leading zero blanked
    (``_BLANK_LEAD``), and blanked with the first digit shown as a point
    (``_POINT_LEAD``); then one entry each for nothing, a comma, a newline
    and a minus sign, right-aligned.  Blanks are zero bytes, which the
    writer deletes.  It is built on first use, so a command that writes no
    block on the integer path never pays for it, and one digit position per
    row, where numpy is fast."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    shown = digits > 0
    for place in range(1, 4):
        shown[place] |= shown[place - 1]
    first = shown.copy()
    first[1:] &= ~shown[:-1]
    digits += ord("0")
    blank_lead = np.where(shown, digits, np.uint8(0))
    lead = blank_lead.copy()
    lead[3] = digits[3]
    marks = np.zeros((4, 4), dtype=np.uint8)
    marks[3, 1:] = [ord(","), ord("\n"), ord("-")]
    table = np.concatenate([digits, lead, blank_lead,
                            np.where(first, np.uint8(ord(".")), blank_lead), marks], axis=1)
    glyphs = table.T.copy().view(np.uint32).ravel()
    glyphs.flags.writeable = False  # one table serves every call
    return glyphs


#: the indices into ``_glyph_table()`` are uint16, a quarter of the bytes of int64
_FULL, _LEAD, _BLANK_LEAD, _POINT_LEAD, _NOTHING, _COMMA, _NEWLINE, _MINUS = np.array(
    [*range(0, 40_000, 10_000), *range(40_000, 40_004)], dtype=np.uint16)

#: 10**0 .. 10**18, as int64
_POW10 = 10 ** np.arange(19, dtype=np.int64)

#: per k, the fewest decimal places f with 10**f > 2**k: the digit count of 2**k
_FINER_PLACES = (np.floor(np.arange(54) * np.log10(2.0)) + 1).astype(np.int8)

#: the magnitudes a float takes on the integer path besides 0: int64 holds
#: every product of its search, and ``repr`` writes it without an exponent
_FAST_FLOATS = (2.0 ** 23, 2.0 ** 53)


def format_pairs(pairs: dict, sep: str = "\n") -> str:
    """``key=value`` items joined by ``sep``; floats as ``repr``, the rest as ``str``."""
    return sep.join(f"{key}={float(val)!r}" if isinstance(val, (float, np.floating))
                    else f"{key}={val}" for key, val in pairs.items())


def parse_header(line: str) -> dict[str, str]:
    """The ``key=value`` items of a ``# key=value ...`` header line, as strings;
    a key given twice is refused, as neither value can be trusted."""
    if not line.startswith("#"):
        raise ValueError("missing header line")
    items = line[1:].split()
    pairs = dict(item.split("=", 1) for item in items)
    if len(pairs) < len(items):
        raise ValueError(f"header repeats a key: {line}")
    return pairs


def write_pairs(path, pairs: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pairs(pairs) + "\n")


def _groups(values: np.ndarray, n_groups: int, lead: np.uint16, upper_lead: np.uint16
            ) -> list[np.ndarray]:
    """``_glyph_table()`` indices of the ``n_groups`` four-digit groups of each
    non-negative integer, most significant first: a group with a nonzero
    group above it is ``_FULL``, the units group otherwise ``lead`` and any
    other ``upper_lead``."""
    groups = []
    for i in range(n_groups):
        higher = values // 10_000
        index = (values - higher * 10_000).astype(np.uint16)
        index += np.where(higher > 0, _FULL, upper_lead if i else lead)
        groups.append(index)
        values = higher
    return groups[::-1]


def _integer_glyphs(magnitude: np.ndarray, negative: np.ndarray) -> list[np.ndarray]:
    """``_glyph_table()`` indices that spell ``str`` of each integer, from its
    non-negative ``magnitude`` and its sign."""
    n_groups = -(-len(str(magnitude.max())) // 4)
    sign = [np.where(negative, _MINUS, _NOTHING)] if negative.any() else []
    return sign + _groups(magnitude, n_groups, _LEAD, _BLANK_LEAD)


def _nearest_decimal(r, k, places):
    """D, the numerator of the decimal D / 10**places nearest to r / 2**k
    (half to even), and whether it is nearer than half of 2**-k."""
    power = _POW10[places]
    d = r * power
    twice_rest = d.copy()
    d >>= k
    twice_rest -= d << k
    twice_rest *= 2
    ulp = np.left_shift(1, k, dtype=np.int64)
    up = (twice_rest > ulp) | ((twice_rest == ulp) & (d & 1 == 1))
    d += up
    # twice the distance, in units of 2**-k 10**-places
    ulp *= 2
    ulp *= up
    twice_rest -= ulp
    return d, np.abs(twice_rest, out=twice_rest) < power


def _float_glyphs(column: np.ndarray) -> list[np.ndarray] | None:
    """``_glyph_table()`` indices that spell ``repr`` of each float, or None when a
    value is neither 0 nor inside ``_FAST_FLOATS``.

    x = m 2**-k exactly, with integer part I = m >> k and fraction r / 2**k.
    At f fraction digits the nearest decimal is D / 10**f, D = r 10**f / 2**k
    rounded half to even as ``repr`` does, and it reads back to x when
    |2 (D 2**k - r 10**f)| < 10**f.  (Equality, a decimal halfway between
    two floats, needs f > k, which the search never reaches.)  ``repr``
    writes the fewest such f.  A decimal grid finer than 2**-k always reads
    back, and a coarser one can only read back if every finer one does, so
    the search starts at the first f with 10**f > 2**k and goes down while
    the nearest decimal still reads back.  Its products stay below
    10 * 4**k, which int64 holds for k <= 29, that is x >= 2**23.  The
    fraction is spelled as 10**f + D, whose leading 1 is the point.
    """
    x = column.astype(np.float64, copy=False)
    size = np.abs(x)
    if not np.all((size == 0.0) | ((size >= _FAST_FLOATS[0]) & (size < _FAST_FLOATS[1]))):
        return None
    fraction, k = np.frexp(size, out=(size, None))
    r = np.ldexp(fraction, 53, out=fraction).astype(np.int64)  # m, until I is taken off
    del fraction, size
    np.subtract(53, k, out=k)
    whole = r >> k
    r -= whole << k
    places = _FINER_PLACES[k]
    decimals, _ = _nearest_decimal(r, k, places)
    rows = np.arange(len(x))
    while len(rows):
        fewer = places[rows] - 1
        d, ok = _nearest_decimal(r[rows], k[rows], fewer)
        rows = rows[ok]
        decimals[rows], places[rows] = d[ok], fewer[ok]
        rows = rows[fewer[ok] > 0]
    places[places == 0] = 1  # a whole number still shows one digit, ".0"
    decimals += _POW10[places]
    return (_integer_glyphs(whole, np.signbit(x))
            + _groups(decimals, int(places.max()) // 4 + 1, _POINT_LEAD, _POINT_LEAD))


def _repr_rows(columns) -> bytes:
    """The rows through ``repr`` of each Python value, the reference format."""
    # tolist() gives Python ints, bools and floats, whose repr is the file format
    fields = (map(repr, c.tolist()) for c in columns)
    return ("\n".join(map(",".join, zip(*fields))) + "\n").encode()


def _format_rows(columns) -> bytes:
    """One line per row of equal-length ``columns``, each ending in a newline."""
    n = len(columns[0])
    comma = np.full(n, _COMMA)
    glyphs = []
    for column in columns:
        if column.dtype.kind in "iu":
            negative = column < 0
            magnitude = column.astype(np.uint64)  # two's complement: -v wraps to |v|
            np.negative(magnitude, out=magnitude, where=negative)
            glyphs += _integer_glyphs(magnitude, negative)
        elif column.dtype.kind == "f" and column.dtype.itemsize <= 8:
            text = _float_glyphs(column)
            if text is None:
                return _repr_rows(columns)
            glyphs += text
        else:
            return _repr_rows(columns)
        glyphs.append(comma)
    glyphs[-1] = np.full(n, _NEWLINE)
    return np.take(_glyph_table(), np.stack(glyphs, axis=1)).tobytes().translate(None, b"\0")


def write_table(path, header: str, blocks) -> None:
    """The ``header`` line, then row i of each block from the i-th entries of
    its columns, the blocks in order, formatted ``BLOCK_ROWS`` rows at a time."""
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for columns in blocks:
            columns = [np.asarray(col) for col in columns]
            for lo in range(0, len(columns[0]), BLOCK_ROWS):
                fh.write(_format_rows([c[lo:lo + BLOCK_ROWS] for c in columns]))
            del columns  # before the next block is made


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
