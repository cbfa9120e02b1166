"""The one CSV table format for every numeric table vsglab saves.

A table is a header line of column names, then one `\\n`-terminated line
per row.  Each field is `str()` of a Python scalar, so floats are written
in their shortest round-trip form and load back exactly.

The bodies are formatted and parsed in C (`tables.c`, built and loaded by
`vsglab.rk4` on the first table read or write).  `write_table` streams them
through one buffer of `CHUNK_BYTES`, writing each float's shortest digits as
`repr()` lays them out, each int in decimal and each str as its UTF-8 bytes.
`read_table` takes one row at a time from a stdio buffer of `CHUNK_BYTES`, to
the end of the file, and parses each field where it lies.  It reads that
grammar and no other: the header's bytes, then rows of `,`-separated fields
with a `\\n` after every row, each field parsed whole as `strtod` parses
Python's float syntax without surrounding whitespace, underscores,
hexadecimal or `nan(…)`.  A field of `write_table`'s decimal form with at
most 19 significant digits is parsed by Eisel–Lemire, with the power-of-5
table `_lemire_table` derived on the first read; every other field, and one
whose result Eisel–Lemire cannot decide, goes to `strtod`, so each field
reads to the same bits either way.  A last row
with no `\\n`, a cut file, is an error, and so are `\\r\\n` line ends, `#`
comments and blank lines; each names the file, the line and the column.

`read_json` reads the JSON documents saved beside the tables, the model and
scenario files, and names the file when it is not UTF-8 JSON.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import rk4

# the bytes of the writer's buffer and of the reader's stdio buffer
CHUNK_BYTES = 2**16

# the kinds of column `tables.c` formats: float64, int64 and UTF-8 text
_KINDS = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}
_TEXT = 2
# what `vsg_table_read` stopped at, and the bytes of a bad field it copies out
READ_IO, READ_FIELD, READ_WIDTH, READ_ROWS, READ_END = range(1, 6)
FIELD_TEXT = 64
# the decimal exponents of the first and last rows of `_lemire_table`
LEMIRE_Q_MIN, LEMIRE_Q_MAX = -342, 308


def _checked_columns(path, names: Sequence[str], columns: Sequence) -> list[np.ndarray]:
    """`columns` as 1-D float64, int64 or str arrays of one length, one per name."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(names):
        which = (f"column {names[len(cols)]!r} has no data" if len(cols) < len(names)
                 else f"column {len(names)} has no name")
        raise ValueError(f"{path}: {len(cols)} columns for {len(names)} names: {which}")
    for name, c in zip(names, cols):
        if c.ndim != 1 or (c.dtype not in _KINDS and c.dtype.kind != "U"):
            raise ValueError(f"{path}: column {name!r} is not a 1-D float64, int64 "
                             f"or str sequence (shape {c.shape}, dtype {c.dtype})")
        if len(c) != len(cols[0]):
            raise ValueError(f"{path}: column {name!r} has {len(c)} rows, "
                             f"column {names[0]!r} has {len(cols[0])}")
    return cols


def _top_bits(x: int, bits: int) -> int:
    """The positive integer `x` shifted to exactly `bits` bits, cut or padded with zeros."""
    shift = x.bit_length() - bits
    return x >> shift if shift >= 0 else x << -shift


def _words(rows: list[int]) -> np.ndarray:
    """128-bit integers as rows of their (low, high) 64-bit words."""
    return np.array([(r & (2**64 - 1), r >> 64) for r in rows], dtype=np.uint64)


@functools.cache
def _ryu_tables() -> np.ndarray:
    """Ryū's power-of-5 tables, each row the (low, high) 64-bit words of a 128-bit
    number: 5^i in its top 125 bits for i < 326, then
    floor(2^(bits(5^i) - 1 + 125) / 5^i) + 1 for i < 342."""
    rows = [_top_bits(5**i, 125) for i in range(326)]
    rows += [(1 << (5**i).bit_length() + 124) // 5**i + 1 for i in range(342)]
    return _words(rows)


@functools.cache
def _lemire_table() -> np.ndarray:
    """Eisel–Lemire's power-of-5 table, for q from `LEMIRE_Q_MIN` to `LEMIRE_Q_MAX`,
    each row the (low, high) 64-bit words of a 128-bit number: 5^q in its top 128
    bits for q >= 0, and for q < 0, with z = bits(5^-q),
    floor(2^(z + 127) / 5^-q) + 1 for q >= -27, else floor(2^(2z + 128) / 5^-q) + 1
    cut to its top 128 bits."""
    rows = []
    for q in range(LEMIRE_Q_MIN, LEMIRE_Q_MAX + 1):
        p = 5**abs(q)
        if q >= 0:
            rows.append(_top_bits(p, 128))
        elif q >= -27:
            rows.append((1 << p.bit_length() + 127) // p + 1)
        else:
            rows.append(_top_bits((1 << 2 * p.bit_length() + 128) // p + 1, 128))
    return _words(rows)


def write_table(path: str | Path, names: Sequence[str], columns: Sequence) -> None:
    """Write the header `names`, then the rows of `columns`, one 1-D float64, int64
    or str sequence per name.

    Columns of unequal length, another count than `len(names)` or another dtype
    raise `ValueError` naming the column, before the file is created.
    """
    cols = _checked_columns(path, names, columns)
    write = rk4.library().vsg_table_write  # built before the file exists
    keep = []  # the arrays that `spec` holds the addresses of
    spec = []  # per column: its kind, then its cells and step or its text and offsets
    for c in cols:
        if c.dtype.kind == "U":
            cells = [s.encode() for s in c.tolist()]
            text = np.frombuffer(b"".join(cells), dtype=np.uint8)
            offsets = np.cumsum([0, *map(len, cells)], dtype=np.int64)
            keep += [text, offsets]
            spec += [_TEXT, text.ctypes.data, offsets.ctypes.data]
        else:
            spec += [_KINDS[c.dtype], c.ctypes.data, c.strides[0]]
    spec = np.array(spec, dtype=np.int64)
    with open(path, "wb") as f:
        f.write((",".join(names) + "\n").encode())
        f.flush()
        code = write(f.fileno(), len(cols[0]) if cols else 0, len(cols), spec.ctypes.data,
                     _ryu_tables().ctypes.data, CHUNK_BYTES)
    if code:
        raise OSError(code, os.strerror(code), str(path))


def read_table(path: str | Path, columns: Sequence[str]) -> np.ndarray:
    """(rows, columns) float array of a table whose header must be `columns`.

    A foreign header, no data row, a field that is not a float, rows of another
    width, more rows than fit the array sized from the file's size at opening,
    or a last row with no line end raise `ValueError` naming the file, and for
    all but the first two the line and the column.
    """
    read = rk4.library().vsg_table_read
    n = len(columns)
    with open(path, "rb") as f:
        header = f.readline().removesuffix(b"\n")
        if header != ",".join(columns).encode():
            raise ValueError(f"{path}: header {header.decode(errors='replace')!r} "
                             f"is not {','.join(columns)!r}")
        start, size = f.tell(), os.fstat(f.fileno()).st_size
        # a row takes at least two bytes a column, so this holds every row and
        # a cut last one; the pages past the rows read are never touched, and
        # they are given back below
        data = np.empty(((size - start) // max(1, 2 * n) + 1, n))
        err = np.zeros(4, dtype=np.int64)
        text = np.zeros(FIELD_TEXT, dtype=np.uint8)
        rows = read(f.fileno(), start, n, data.ctypes.data, len(data),
                    _lemire_table().ctypes.data, CHUNK_BYTES, err.ctypes.data, text.ctypes.data)
    what, line, column, count = err.tolist()
    where = f"{path}: line {line}, column {column}"
    if what == READ_IO:
        raise OSError(count, os.strerror(count), str(path))
    if what == READ_FIELD:
        field = text[:count].tobytes().decode(errors="replace")
        raise ValueError(f"{where}: {field!r} is not a float")
    if what == READ_WIDTH:
        raise ValueError(f"{where}: the row has {count} fields, the header names {n}")
    if what == READ_ROWS:
        raise ValueError(f"{where}: more rows than the file's size allows")
    if what == READ_END:
        raise ValueError(f"{where}: the last row has no line end")
    if rows == 0:
        raise ValueError(f"{path}: no data row after the header")
    data.resize((rows, n), refcheck=False)
    return data


def read_json(path: str | Path):
    """The JSON document in the file at `path`.  A file that is not UTF-8 text, or not
    JSON, raises `ValueError` naming it, and for JSON the line and the column."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
