"""The one CSV table format for every numeric table vsglab saves.

A table is a header line of column names, then one `\\n`-terminated line
per row.  Each field is `str()` of a Python scalar, so floats are written
in their shortest round-trip form and load back exactly.

`write_table` takes the table as columns and formats it in blocks of
`BLOCK_CELLS` cells.  Within a block each column runs `str()` once per run
of cells with one bit pattern and repeats the text down the run (a trace's
gains, truth and estimates are long runs).  A table of at least
`FORK_MIN_BLOCKS` blocks has the second half of its blocks formatted in a
forked child process, which streams them into an unlinked temporary file
that is appended once the first half is written.
The bytes are those of the row-wise `",".join(map(str, row))`.
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .fork import run_beside_fork

# cells formatted at once: the most text a writing process holds
BLOCK_CELLS = 2**14
# The fewest blocks whose second half goes to a forked child.  With the other
# core idle the child pays off from 2 blocks on; with it busy (paper-repro's
# two simulate stages) the child lost 10-25 % below 4 blocks and broke even
# from 4 on (8-column tables, 96 MiB parent, 2-core x86-64 VM).
FORK_MIN_BLOCKS = 4

_NUMERIC = (np.dtype(np.float64), np.dtype(np.int64))


def _checked_columns(path, names: Sequence[str], columns: Sequence) -> list[np.ndarray]:
    """`columns` as 1-D float64, int64 or str arrays of one length, one per name."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(names):
        which = (f"column {names[len(cols)]!r} has no data" if len(cols) < len(names)
                 else f"column {len(names)} has no name")
        raise ValueError(f"{path}: {len(cols)} columns for {len(names)} names: {which}")
    for name, c in zip(names, cols):
        if c.ndim != 1 or (c.dtype not in _NUMERIC and c.dtype.kind != "U"):
            raise ValueError(f"{path}: column {name!r} is not a 1-D float64, int64 "
                             f"or str sequence (shape {c.shape}, dtype {c.dtype})")
        if len(c) != len(cols[0]):
            raise ValueError(f"{path}: column {name!r} has {len(c)} rows, "
                             f"column {names[0]!r} has {len(cols[0])}")
    return cols


def _column_text(c: np.ndarray) -> list[str]:
    """`str()` of each cell of `c`, formatted once per run of equal bits."""
    if c.dtype.kind == "U":
        return c.tolist()
    bits = c.view(np.uint64)  # so that -0.0 is not taken for 0.0 beside it
    ends = (bits[1:] != bits[:-1]).nonzero()[0]  # the last cell of each run but the last
    if len(ends) == len(c) - 1:  # no repeats: no run to repeat down
        return list(map(str, c.tolist()))
    starts = np.concatenate(([0], ends + 1))
    text = np.array(list(map(str, c[starts].tolist())), dtype=object)
    return np.repeat(text, np.diff(starts, append=len(c))).tolist()


def write_table(path: str | Path, names: Sequence[str], columns: Sequence) -> None:
    """Write the header `names`, then the rows of `columns`, one 1-D float64, int64
    or str sequence per name.

    Columns of unequal length, another count than `len(names)` or another dtype
    raise `ValueError` naming the column, before the file is created.
    """
    cols = _checked_columns(path, names, columns)
    n_rows = len(cols[0]) if cols else 0
    step = max(1, BLOCK_CELLS // max(1, len(cols)))

    def write_rows(f, r0: int, r1: int) -> None:
        for r in range(r0, r1, step):
            text = [_column_text(c[r:min(r + step, r1)]) for c in cols]
            f.write(("\n".join(map(",".join, zip(*text))) + "\n").encode())

    blocks = range(0, n_rows, step)
    with open(path, "wb") as f:
        f.write((",".join(names) + "\n").encode())
        if len(blocks) < FORK_MIN_BLOCKS:
            write_rows(f, 0, n_rows)
            return
        mid = blocks[len(blocks) // 2]
        with tempfile.TemporaryFile() as tail:
            def write_tail() -> None:
                write_rows(tail, mid, n_rows)
                tail.flush()

            run_beside_fork(write_tail, lambda: write_rows(f, 0, mid))
            tail.seek(0)
            shutil.copyfileobj(tail, f)


def read_table(path: str | Path, columns: Sequence[str]) -> np.ndarray:
    """(rows, columns) float array of a table whose header must be `columns`.

    A foreign header, no data row or rows of another width raise `ValueError`
    naming the file.
    """
    with open(path) as f:
        header = f.readline().rstrip("\r\n")
        if header != ",".join(columns):
            raise ValueError(f"{path}: header {header!r} is not {','.join(columns)!r}")
        body = f.tell()
        if not f.readline().strip():
            raise ValueError(f"{path}: no data row after the header")
        f.seek(body)
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: rows have {data.shape[1]} fields, "
                         f"the header names {len(columns)}")
    return data
