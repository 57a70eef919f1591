"""The table writer: its bytes equal a per-row ``repr`` of every field."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qfcsim import artifacts
from qfcsim.artifacts import BLOCK_ROWS, write_table
from qfcsim.config import PRESETS
from qfcsim.sources import generate_hbt_stream

FLOATS = [-0.0, 1e16, 1e-05, 5e-324, 2.4e11 + 0.1, -35.5, 0.30000000000000004, 1.0]

#: the edges of the integer float path and of ``repr``'s notation, each
#: with its float neighbours: 2**(53 - 30), the smallest magnitude on the
#: path, 2**53, where it ends, and 1e16 and 1e-4, where ``repr`` switches
#: to an exponent
EDGES = np.array([edge * side for edge in (2.0 ** 23, 2.0 ** 53, 1e16, 1e-4)
                  for edge in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
                  for side in (1.0, -1.0)])

#: the integer extremes and their neighbours, as int64
INT_EDGES = np.array([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1, -32768, -32767, 32766, 32767,
                      -1, 0, 1, -9999, -10000, 9999, 10000])


def _reference(header, columns):
    """The per-row ``str.format`` writer the block writer replaced."""
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    return header + "\n" + "".join(map(row.format, *(np.asarray(c).tolist() for c in columns)))


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                    4 * BLOCK_ROWS, 4 * BLOCK_ROWS + 1])
def test_write_table_equals_per_row_repr(tmp_path, n_rows):
    rows = np.arange(n_rows)
    columns = (
        (rows % 3 + 1).astype(np.int16),
        rows * 7919 - 2**40,
        rows % 2 == 0,
        np.resize(np.array(FLOATS), n_rows),
    )
    path = tmp_path / "table.csv"
    write_table(path, "a,b,c,d", [columns])
    assert path.read_text() == _reference("a,b,c,d", columns)


def _fast_floats(rng, n):
    """Floats on the integer path: magnitudes spread evenly in log between
    2**23 and 2**53, exact binary fractions I + j / 2**k (the decimal ties of
    the rounding), and zeros, each with either sign."""
    size = 2.0 ** rng.uniform(23.0, 53.0, n)
    k = rng.integers(1, 30, n)
    whole = np.floor(2.0 ** rng.uniform(23.0, 53.0 - k))
    ties = whole + rng.integers(0, 2**k) / 2.0 ** k
    x = np.where(rng.random(n) < 0.5, size, ties)
    x[rng.random(n) < 0.01] = 0.0
    return np.where(rng.random(n) < 0.5, x, -x)


def _slow_floats(rng, n):
    """Floats that take ``repr``: either random float64 bit patterns, which
    include subnormals, infinities and NaNs, with the special values and
    edges among them, or values within a factor 2 outside one end of the
    integer path, [2**22, 2**23) or [2**53, 2**54), each with either sign."""
    if rng.random() < 0.5:
        x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        special = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                                   2.2250738585072014e-308], EDGES])
        picks = rng.random(n) < 0.05
        x[picks] = rng.choice(special, int(picks.sum()))
        return x
    x = 2.0 ** (rng.uniform(22.0, 23.0, n) + rng.choice([0.0, 31.0]))
    return np.where(rng.random(n) < 0.5, x, -x)


# a smaller seed is no simpler an example, so a failure is reported unshrunk
@settings(derandomize=True, max_examples=30, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), with_bools=st.booleans())
def test_write_table_equals_repr_on_random_columns(tmp_path_factory, seed, with_bools):
    """12,000 rows of three or four columns per example, in 1,024-row
    blocks: about a third of the blocks mix fallback floats into the
    integer-path ones, so a table has blocks of both kinds, and a bool
    column sends every block through ``repr``.  Over the examples that is
    more than 10**6 values."""
    rng = np.random.default_rng(seed)
    n, block = 12_000, 1_024
    ints16 = rng.integers(-2**15, 2**15, n).astype(np.int16)
    ints64 = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True)
    ints64[rng.random(n) < 0.3] //= 2**40  # short ones, with their signs
    for column in (ints16, ints64):
        picks = rng.random(n) < 0.01
        column[picks] = rng.choice(INT_EDGES[(INT_EDGES >= np.iinfo(column.dtype).min)
                                             & (INT_EDGES <= np.iinfo(column.dtype).max)],
                                   int(picks.sum()))
    floats = _fast_floats(rng, n)
    for lo in range(0, n, block):
        if rng.random() < 0.3:
            rows = slice(lo, lo + block)
            mixed = rng.random(len(floats[rows])) < rng.random()
            floats[rows][mixed] = _slow_floats(rng, int(mixed.sum()))
    columns = [ints16, ints64, floats] + [rng.random(n) < 0.5] * with_bools
    path = tmp_path_factory.mktemp("table") / "table.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "BLOCK_ROWS", block)
        write_table(path, "a,b,c", [columns])
    assert path.read_text() == _reference("a,b,c", columns)


def test_calibrated_stream_takes_the_integer_path(monkeypatch, tmp_path):
    """Only the block that holds the first 2**23 ps of a calibrated stream
    goes through ``repr``; a save that fell back on more would still be
    right, only slower."""
    cfg = PRESETS["calibrated_g2"](seed=1701)
    cfg.n_pulses = 2_000_000
    stream = generate_hbt_stream(cfg)
    assert len(stream) > 4 * BLOCK_ROWS
    fallbacks = []
    repr_rows = artifacts._repr_rows
    monkeypatch.setattr(artifacts, "_repr_rows",
                        lambda columns: fallbacks.append(1) or repr_rows(columns))
    stream.save(tmp_path / "events.csv")
    assert len(fallbacks) <= 1
