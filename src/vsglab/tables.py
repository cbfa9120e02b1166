"""The one CSV table format for every numeric table vsglab saves.

A table is a header line of column names, then one `\\n`-terminated line
per row.  Each field is `str()` of a Python scalar, so floats are written
in their shortest round-trip form and load back exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np


def write_table(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header, then each row as `rows` yields it (nothing is buffered)."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


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
