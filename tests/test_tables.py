"""The table writer: its bytes are the row-wise `str()` join, in one block or many."""

import math
import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsglab import tables
from vsglab.ann import DATASET_COLUMNS, Dataset, save_dataset_csv
from vsglab.estimator import EstimateRecord, write_estimate_log_csv
from vsglab.sim import TIMESERIES_COLUMNS, TimeSeries
from vsglab.tables import BLOCK_CELLS, FORK_MIN_BLOCKS, read_table, write_table

# NaNs of either sign or another payload all print as "nan"; -0.0 is not 0.0
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
SPECIAL = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
           5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, 1e-5, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
VALUES = {"f": FLOATS, "i": st.integers(-2**63, 2**63 - 1),
          "U": st.text(alphabet="abcxyz_", max_size=6)}


@st.composite
def column(draw, kind: str, n: int) -> list:
    """`n` values of one kind, in runs of one to four repeats."""
    out = []
    while len(out) < n:
        out += [draw(VALUES[kind])] * draw(st.integers(1, 4))
    return out[:n]


@st.composite
def table(draw, kinds: str = "ffiU"):
    n = draw(st.integers(1, 40))
    cols = [draw(column(k, n)) for k in draw(st.lists(st.sampled_from(kinds), min_size=1,
                                                       max_size=5))]
    return [f"c{j}" for j in range(len(cols))], cols


def rowwise(names, cols) -> bytes:
    """The table as the row-wise join of `str()` of each Python value."""
    return (",".join(names) + "\n"
            + "".join(",".join(map(str, row)) + "\n" for row in zip(*cols))).encode()


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def written(names, cols, block_cells: int) -> bytes:
    with tempfile.TemporaryDirectory() as d, mock.patch.object(tables, "BLOCK_CELLS",
                                                               block_cells):
        path = Path(d) / "t.csv"
        write_table(path, names, cols)
        return path.read_bytes()


# block sizes down to one cell, so that most tables take several blocks and fork
@settings(max_examples=80, deadline=None)
@given(table(), st.sampled_from([1, 3, 16, BLOCK_CELLS]))
def test_bytes_are_the_rowwise_str_join(tab, block_cells):
    names, cols = tab
    assert written(names, cols, block_cells) == rowwise(names, cols)


@settings(max_examples=40, deadline=None)
@given(table(kinds="f"), st.sampled_from([2, 7, BLOCK_CELLS]))
def test_read_table_returns_the_floats_bit_exact(tab, block_cells):
    names, cols = tab
    with tempfile.TemporaryDirectory() as d, mock.patch.object(tables, "BLOCK_CELLS",
                                                               block_cells):
        path = Path(d) / "t.csv"
        write_table(path, names, cols)
        got = read_table(path, names)
    want = np.array(cols).T
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_several_real_blocks_match_and_leave_no_child(tmp_path):
    # a trace-like table: time, a noisy signal, a gain in five runs and a run index
    n = 5 * BLOCK_CELLS // 4
    rng = np.random.default_rng(0)
    gain = np.repeat([2087.0, -0.0, 0.0, math.nan, 1e-300], n // 5)
    cols = [np.arange(n) * 1e-3, rng.normal(size=n), gain, np.repeat(np.arange(5), n // 5)]
    names = ["t", "p", "d_p", "segment"]
    path = tmp_path / "trace.csv"
    write_table(path, names, cols)
    assert path.read_bytes() == rowwise(names, [c.tolist() for c in cols])
    assert_no_child_process()


@pytest.mark.parametrize("columns, named", [
    ([[1.0, 2.0], [1.0]], "column 'b' has 1 rows"),
    ([[1.0, 2.0]], "column 'b' has no data"),
    ([[1.0], [2.0], [3.0]], "column 2 has no name"),
    ([[1.0, 2.0], [[1.0], [2.0]]], "column 'b' is not a 1-D"),
    ([[1.0, 2.0], [True, False]], "column 'b' is not a 1-D"),
])
def test_malformed_columns_raise_before_the_file_or_a_fork(tmp_path, monkeypatch, columns,
                                                           named):
    # one-cell blocks and a two-block fork floor: a two-row table would be
    # written in two processes
    monkeypatch.setattr(tables, "BLOCK_CELLS", 1)
    monkeypatch.setattr(tables, "FORK_MIN_BLOCKS", 2)
    monkeypatch.setattr(tables, "run_beside_fork", lambda *_: pytest.fail("forked"))
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=named):
        write_table(path, ["a", "b"], columns)
    assert not path.exists()


def refuse_to_fork(*_):
    raise AssertionError("forked")


def test_fork_floor_is_the_first_block_count_written_in_two_processes(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "run_beside_fork", refuse_to_fork)
    names = [f"c{j}" for j in range(8)]
    rows = BLOCK_CELLS // len(names)  # one block
    below = [np.arange((FORK_MIN_BLOCKS - 1) * rows) * 0.5] * len(names)
    write_table(tmp_path / "below.csv", names, below)
    assert (tmp_path / "below.csv").read_bytes() == rowwise(names, [c.tolist() for c in below])
    at = [np.append(c, 1.0) for c in below]  # one row into the next block
    with pytest.raises(AssertionError, match="forked"):
        write_table(tmp_path / "at.csv", names, at)


def test_estimate_log_is_written_in_one_process(tmp_path, monkeypatch):
    # 3000 windows: the estimate log of a 60 s run
    monkeypatch.setattr(tables, "run_beside_fork", refuse_to_fork)
    rec = EstimateRecord(t=0.02, r_g_hat=0.7, l_g_hat=0.011, window_start=0.0,
                         window_end=0.02)
    write_estimate_log_csv(tmp_path / "est.csv", [(rec, 0.71, 0.0113, True)] * 3000)


def test_traces_and_the_dataset_are_written_in_two_processes(tmp_path, monkeypatch):
    # a 60 s trace at 1 ms and the 5000-window training set
    monkeypatch.setattr(tables, "run_beside_fork", refuse_to_fork)
    trace = TimeSeries(**{c: np.zeros(60001) for c in TIMESERIES_COLUMNS})
    with pytest.raises(AssertionError, match="forked"):
        trace.to_csv(tmp_path / "trace.csv")
    n = 5000
    ds = Dataset(np.zeros((n, len(DATASET_COLUMNS) - 7)), np.ones((n, 2)),
                 *np.ones((5, n)))
    with pytest.raises(AssertionError, match="forked"):
        save_dataset_csv(tmp_path / "dataset.csv", ds)
