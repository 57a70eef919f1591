"""The table writer: its bytes equal a per-row ``repr`` of every field."""

import numpy as np
import pytest

from qfcsim.artifacts import BLOCK_ROWS, write_table
from qfcsim.parallel import MIN_TASKS

FLOATS = [-0.0, 1e16, 1e-05, 5e-324, 2.4e11 + 0.1, -35.5, 0.30000000000000004, 1.0]


def _reference(header, columns):
    """The per-row ``str.format`` writer the block writer replaced."""
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    return header + "\n" + "".join(map(row.format, *(np.asarray(c).tolist() for c in columns)))


# from MIN_TASKS blocks on, a table is formatted on the pool where there are CPUs for one
@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                    MIN_TASKS * BLOCK_ROWS, MIN_TASKS * BLOCK_ROWS + 1])
def test_write_table_equals_per_row_repr(tmp_path, n_rows):
    rows = np.arange(n_rows)
    columns = (
        (rows % 3 + 1).astype(np.int16),
        rows * 7919 - 2**40,
        rows % 2 == 0,
        np.resize(np.array(FLOATS), n_rows),
    )
    path = tmp_path / "table.csv"
    write_table(path, "a,b,c,d", columns)
    assert path.read_text() == _reference("a,b,c,d", columns)

