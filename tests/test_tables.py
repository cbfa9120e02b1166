"""The table format: its bytes are the row-wise `str()` join, and they read back exactly."""

import math
import re
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsglab import tables
from vsglab.tables import CHUNK_BYTES, read_table, write_table

# NaNs of either sign or another payload all print as "nan"; -0.0 is not 0.0
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
SPECIAL = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
           5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, 1e-5, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
# any 64-bit pattern, as the double it encodes
BIT_FLOATS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
VALUES = {"f": FLOATS, "i": st.integers(-2**63, 2**63 - 1),
          "U": st.text(alphabet="abcxyz_µ€", max_size=6)}


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


def written(names, cols, chunk_bytes: int) -> bytes:
    with tempfile.TemporaryDirectory() as d, mock.patch.object(tables, "CHUNK_BYTES",
                                                               chunk_bytes):
        path = Path(d) / "t.csv"
        write_table(path, names, cols)
        return path.read_bytes()


def same_floats(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether `got` holds `want`'s bits, with any NaN for a NaN."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


# buffers down to one byte (the writer takes at least 32), so that most rows
# straddle two or more of them
@settings(max_examples=80, deadline=None)
@given(table(), st.sampled_from([1, 7, 64, CHUNK_BYTES]))
def test_bytes_are_the_rowwise_str_join(tab, chunk_bytes):
    names, cols = tab
    assert written(names, cols, chunk_bytes) == rowwise(names, cols)


@settings(max_examples=40, deadline=None)
@given(table(kinds="f"), st.sampled_from([1, 7, 64, CHUNK_BYTES]))
def test_read_table_returns_the_floats_bit_exact(tab, chunk_bytes):
    names, cols = tab
    with tempfile.TemporaryDirectory() as d, mock.patch.object(tables, "CHUNK_BYTES",
                                                               chunk_bytes):
        path = Path(d) / "t.csv"
        write_table(path, names, cols)
        got = read_table(path, names)
    assert same_floats(got, np.array(cols).T)


def formatted(values: np.ndarray) -> list[bytes]:
    """Each float as `write_table` writes it."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        write_table(path, ["x"], [values])
        return path.read_bytes().split(b"\n")[1:-1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(FLOATS, BIT_FLOATS), min_size=1, max_size=40))
def test_each_float_is_written_as_str_writes_it(values):
    assert formatted(np.array(values)) == [str(v).encode() for v in values]


def test_a_sweep_of_hard_floats_is_written_as_str_writes_it(hard_floats):
    assert len(hard_floats) >= 200_000
    assert formatted(hard_floats) == [str(v).encode() for v in hard_floats.tolist()]


def test_a_sweep_of_hard_floats_reads_back_bit_exact(tmp_path, hard_floats):
    path = tmp_path / "t.csv"
    write_table(path, ["x"], [hard_floats])
    assert same_floats(read_table(path, ["x"])[:, 0], hard_floats)


# fields on either side of each bound of the reader's fast path for w * 10^q: at
# most 19 significant digits, no subnormal or infinite result, q in [-342, 308];
# significands whose first 20 digits are a multiple of 2^64, which wrap a 64-bit
# w to 0; w <= 2^53 and |q| <= 22, where w * 10^q is one exact double product;
# and forms that only strtod reads
HARD_DECIMALS = [
    "1234567890123456789", "12345678901234567891", "9999999999999999999e-10",
    "12345678901234567890", "1.000000000000000000", "1.0000000000000000000",
    "18446744073709551616", "1.8446744073709551616", "184467440737095516160",
    "1.8446744073709551616e19", "-18446744073709551616.0", "0.00092233720368547758080",
    "0.000000000000000000000000000000000000000000000000000000000000123456789",
    "00000000000000000000000000000000000000000000000000000000000000000000001.5",
    "9007199254740993", "9007199254740992e22", "9007199254740992e23", "9007199254740993e-22",
    "9007199254740992e-22", "1e22", "1e23", "1e-22", "1e-23",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "4.9406564584124654e-324",
    "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-342", "1e-343",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
    "1e308", "1e309", "1e400", "1e-400", "-1e400",
    "-0", "0e999", "-0.000e-999", "00012.5000", "1E5", "1e+005", "5e-0000000000000000000001",
    "+1", ".5", "5.", "nan", "-inf", "Infinity",
]


def test_hard_decimals_read_back_as_float_reads_them(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\n" + "".join(f"{s}\n" for s in HARD_DECIMALS))
    got = read_table(path, ["x"])[:, 0]
    want = np.array([float(s) for s in HARD_DECIMALS])
    assert (list(zip(HARD_DECIMALS, got.view(np.uint64).tolist()))
            == list(zip(HARD_DECIMALS, want.view(np.uint64).tolist())))


def test_the_eisel_lemire_table_rows_are_their_definitions():
    table = tables._lemire_table()
    assert table.shape == (tables.LEMIRE_Q_MAX - tables.LEMIRE_Q_MIN + 1, 2) == (651, 2)

    def row(q: int) -> int:
        low, high = table[q - tables.LEMIRE_Q_MIN].tolist()
        return high << 64 | low

    def defined(q: int) -> int:
        if q >= 0:  # 5^q with its leading bit moved to bit 127, then cut
            r = 5**q
            while r < 2**127:
                r *= 2
            while r >= 2**128:
                r //= 2
            return r
        z = (5**-q).bit_length()
        if q >= -27:
            return 2**(z + 127) // 5**-q + 1
        r = 2**(2 * z + 128) // 5**-q + 1
        while r >= 2**128:
            r //= 2
        return r

    assert row(0) == 2**127
    for q in (0, 1, 27, 308, -1, -27, -28, -342):
        assert row(q) == defined(q), q
    assert row(-342) == 0xEEF453D6923BD65A_113FAA2906A13B3F
    assert row(308) == 0x8E679C2F5E44FF8F_570F09EAA7EA7648


def test_several_real_blocks_match_the_rowwise_join(tmp_path):
    # a trace-like table of many chunks: time, a noisy signal, a gain in five
    # runs and a run index
    n = 5 * (CHUNK_BYTES // 16)
    rng = np.random.default_rng(0)
    gain = np.repeat([2087.0, -0.0, 0.0, math.nan, 1e-300], n // 5)
    cols = [np.arange(n) * 1e-3, rng.normal(size=n), gain, np.repeat(np.arange(5), n // 5)]
    names = ["t", "p", "d_p", "segment"]
    path = tmp_path / "trace.csv"
    write_table(path, names, cols)
    assert path.read_bytes() == rowwise(names, [c.tolist() for c in cols])


def test_strided_reversed_and_broadcast_columns_are_written_as_their_values(tmp_path):
    # the dataset's columns are the transposed rows of its input matrix
    m = np.arange(12.0).reshape(4, 3) / 7
    cols = [*m.T, m[::-1, 0], np.broadcast_to(np.int64(7), 4)]
    write_table(tmp_path / "t.csv", list("abcde"), cols)
    assert (tmp_path / "t.csv").read_bytes() == rowwise(list("abcde"), [c.tolist() for c in cols])


@pytest.mark.parametrize("columns, named", [
    ([[1.0, 2.0], [1.0]], "column 'b' has 1 rows"),
    ([[1.0, 2.0]], "column 'b' has no data"),
    ([[1.0], [2.0], [3.0]], "column 2 has no name"),
    ([[1.0, 2.0], [[1.0], [2.0]]], "column 'b' is not a 1-D"),
    ([[1.0, 2.0], [True, False]], "column 'b' is not a 1-D"),
])
def test_malformed_columns_raise_before_the_file(tmp_path, columns, named):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=named):
        write_table(path, ["a", "b"], columns)
    assert not path.exists()


@pytest.mark.parametrize("body, rows", [
    ("+1,+2.5e3\n", [[1.0, 2500.0]]),
    ("NaN,Infinity\nnan,-INF\n-nAn,+inFINity\ninf,iNf\n",
     [[math.nan, math.inf], [math.nan, -math.inf], [math.nan, math.inf], [math.inf, math.inf]]),
    ("1e999,1e-999\n.5,5.\n", [[math.inf, 0.0], [0.5, 5.0]]),
], ids=["plus", "nan-inf", "range"])
def test_read_table_accepts_what_loadtxt_accepted(tmp_path, body, rows):
    path = tmp_path / "t.csv"
    path.write_bytes(("a,b\n" + body).encode())
    np.testing.assert_array_equal(read_table(path, ["a", "b"]), np.array(rows))


@pytest.mark.parametrize("body, line, column", [
    ("1,\n", 2, 2),  # an empty field
    ("1,2,\n", 2, 3),  # a trailing comma
    ("0x10,1\n", 2, 1),
    ("1,-0X1p3\n", 2, 2),
    ("1,nan(1)\n", 2, 2),
    ("1,2\n1_0,1\n", 3, 1),
    ("1,2\n\n3\n", 3, 1),  # an empty line, one empty field, before a ragged row
    ("1,2\n 1 2,3\n", 3, 1),
    ("1,2\r\n3,abc\r\n", 2, 2),
    ("1,2\n   \n", 3, 1),  # a line of spaces is a row of one field of spaces
    (" 1.5 ,\t-2\n\x0b3\xa0,\u30004\x0c\n", 2, 1),  # surrounding spaces
    ("# a comment\n1,2 # the rest of the line\n#\n3,4#\n", 2, 1),
    ("1,2\r\n3,4\r\n", 2, 2),
    ("1,2\r3,4\r", 2, 2),
    ("1,2\n3,4", 3, 2),  # no final line end
    ("1,2\n\n3,4\n\r\n", 3, 1),  # an empty line
    ("1.0,2.5\n3.0,4.56", 3, 2),  # cut inside its last field
], ids=["empty", "trailing-comma", "hex", "hex-float", "nan-payload", "underscore", "ragged",
        "inner-space", "word", "spaces-line", "spaces", "comments", "crlf", "cr",
        "no-final-newline", "blank-lines", "cut"])
def test_read_table_names_the_file_line_and_column_of_a_bad_body(tmp_path, body, line, column):
    path = tmp_path / "t.csv"
    path.write_bytes(("a,b\n" + body).encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}, column {column}: ")):
        read_table(path, ["a", "b"])


@pytest.mark.parametrize("body, message", [
    ("1,x \n", "line 2, column 2: 'x ' is not a float"),
    ("1,2\r\n", "line 2, column 2: '2\\r' is not a float"),
], ids=["trailing-space", "crlf"])
def test_read_table_quotes_the_bad_field_as_read(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_bytes(("a,b\n" + body).encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_table(path, ["a", "b"])


def test_a_field_holding_a_nul_byte_is_quoted_as_read(tmp_path):
    # strtod stops at the NUL, so the field is not read whole
    field = "1\x005"
    path = tmp_path / "t.csv"
    path.write_bytes(f"a,b\n2,{field}\n".encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2, column 2: "
                                                   f"{field!r} is not a float")):
        read_table(path, ["a", "b"])


def _under_reported_size(monkeypatch, short: int):
    """`os.fstat` as if the file had grown by `short` bytes since it was sized."""
    real = tables.os.fstat
    monkeypatch.setattr(tables.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real(fd).st_size - short))


def test_a_table_that_grows_after_it_is_sized_reads_to_its_last_row(tmp_path, monkeypatch):
    names, cols = ["a", "b"], [[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]]
    path = tmp_path / "t.csv"
    write_table(path, names, cols)
    _under_reported_size(monkeypatch, 8)  # the last row, "7.0,8.0\n"
    np.testing.assert_array_equal(read_table(path, names), np.array(cols).T)


def test_a_table_that_grows_past_its_array_names_the_first_row_left_out(tmp_path,
                                                                        monkeypatch):
    names = ["a", "b"]
    path = tmp_path / "t.csv"
    write_table(path, names, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    # as if only the header had been there: the array holds one row
    _under_reported_size(monkeypatch, 24)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 3, column 1: more rows than the file's size allows")):
        read_table(path, names)


def test_every_cut_of_a_table_reads_its_whole_rows_or_raises(tmp_path):
    names, cols = ["t", "x"], [[0.0, 0.5, 1.0], [4.56789, -1e-300, math.inf]]
    whole = tmp_path / "whole.csv"
    write_table(whole, names, cols)
    data = whole.read_bytes()
    header = data.index(b"\n") + 1
    for end in range(header, len(data) + 1):
        path = tmp_path / "cut.csv"
        path.write_bytes(data[:end])
        rows = data[header:end].count(b"\n")
        if end == header:
            with pytest.raises(ValueError, match="no data row"):
                read_table(path, names)
        elif data[end - 1:end] == b"\n":
            np.testing.assert_array_equal(read_table(path, names), np.array(cols).T[:rows])
        else:
            with pytest.raises(ValueError, match=f"line {rows + 2}, column .: the last row"):
                read_table(path, names)
