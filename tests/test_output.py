"""CSV writer: the exact bytes of a table with special values."""

import numpy as np
import pytest

from gflowlab import SpeedFunction, output
from gflowlab.cli import _write_history
from gflowlab.flow import FlowHistory
from gflowlab.output import (_CSV_BLOCK, _fmt, format_column, read_csv,
                             write_csv)

EXPECTED = """\
# gflowlab-csv v1
# a=inf
# speed=sum
# tol=1e-10
x,x32,i,s
nan,nan,0,a
inf,inf,1,b
-inf,-inf,2,c
-0.0,-0.0,3,d
1e-300,0.0,4,e
0.1,0.10000000149011612,5,f
"""


def test_write_csv_exact_text(tmp_path):
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1])
    path = tmp_path / "t.csv"
    write_csv(str(path), {"x": x, "x32": x.astype(np.float32),
                          "i": np.arange(6),
                          "s": np.array(["a", "b", "c", "d", "e", "f"])},
              {"tol": 1e-10, "speed": "sum", "a": float("inf")})
    assert path.read_bytes() == EXPECTED.encode()
    data, meta = read_csv(str(path))
    assert meta == {"a": "inf", "speed": "sum", "tol": "1e-10"}
    assert np.array_equal(data["x"], x, equal_nan=True)
    assert list(data["s"]) == ["a", "b", "c", "d", "e", "f"]


def test_write_csv_repeated_values_exact_text(tmp_path):
    # the text is _fmt of every cell: -0.0 beside 0.0 (equal as floats,
    # apart as bits), repeated non-finite values, float32 repeats, and runs
    # of one value that cross the block boundary
    n = _CSV_BLOCK + 700
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan, 0.1,
                        1e-300, -0.0, 0.0])
    columns = {
        "s": np.resize(special, n),
        "s32": np.resize(special, n).astype(np.float32),
        "t": np.repeat(np.linspace(0.0, 1.0, n // 300 + 1), 300)[:n],
        "z": np.resize(np.linspace(-5.0, 5.0, 101), n),
        "u": np.arange(n) / 7.0,
        "i": np.arange(n) % 3,
    }
    assert columns["t"][_CSV_BLOCK - 1] == columns["t"][_CSV_BLOCK]
    path = tmp_path / "r.csv"
    write_csv(str(path), columns, {"tol": 0.0})
    rows = [",".join(_fmt(a[i]) for a in columns.values()) for i in range(n)]
    expected = "\n".join(["# gflowlab-csv v1", "# tol=0.0", "s,s32,t,z,u,i"]
                          + rows) + "\n"
    assert path.read_bytes() == expected.encode()
    assert rows[0].startswith("0.0,0.0,") and rows[1].startswith("-0.0,-0.0,")


@pytest.mark.parametrize("rows", [1, _CSV_BLOCK - 1, _CSV_BLOCK,
                                  _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 5])
def test_write_csv_blocks_match_one_block(tmp_path, monkeypatch, rows):
    # the row blocks join into the text of a single-block write
    columns = {"u": np.arange(rows) / 7.0,
               "s": np.array([f"r{i}" for i in range(rows)], dtype=object),
               "i": np.arange(rows)}
    write_csv(str(tmp_path / "blocks.csv"), columns, {"tol": 0.5})
    monkeypatch.setattr(output, "_CSV_BLOCK", 4 * _CSV_BLOCK)
    write_csv(str(tmp_path / "whole.csv"), columns, {"tol": 0.5})
    text = (tmp_path / "blocks.csv").read_bytes()
    assert text == (tmp_path / "whole.csv").read_bytes()
    assert text.count(b"\n") == rows + 3


def test_write_csv_passes_str_through(tmp_path):
    # a column of str is written as given, numeric-looking or not
    text = ["1.50", "-0", "nan", "x y", "1e5"]
    path = tmp_path / "s.csv"
    write_csv(str(path), {"s": np.array(text, dtype=object),
                          "u": np.array(text)})
    rows = path.read_text().splitlines()[2:]
    assert rows == [f"{x},{x}" for x in text]


def test_format_column_returns_str_cells_as_they_are(monkeypatch):
    # an object column of str skips _fmt: each cell is the object given
    text = ["1.50", "-0", "nan", "x y"]
    monkeypatch.setattr(output, "_fmt", None)
    cells = format_column(np.array(text, dtype=object))
    assert cells == text and all(a is b for a, b in zip(cells, text))


def test_format_column_mixed_object_goes_through_fmt(monkeypatch, tmp_path):
    # one np.float32 among the str sends the block through _fmt per cell:
    # str(np.float32(0.1)) is "0.1", its float spelling is not
    col = np.array(["a", np.float32(0.1), "b"], dtype=object)
    seen = []
    monkeypatch.setattr(output, "_fmt", lambda x: seen.append(x) or _fmt(x))
    assert format_column(col) == ["a", "0.10000000149011612", "b"]
    assert len(seen) == 3
    write_csv(str(tmp_path / "m.csv"), {"m": col})
    assert (tmp_path / "m.csv").read_text().splitlines()[2:] == [
        "a", "0.10000000149011612", "b"]


@pytest.mark.parametrize("columns, message", [
    ({"a": np.arange(3.0), "b": np.ones((3, 2))},
     "column 'b' must be 1-D, got shape (3, 2)"),
    ({"s": 1.5}, "column 's' must be 1-D, got shape ()"),
    ({}, "write_csv needs at least one column"),
])
def test_write_csv_rejects_columns_that_are_not_1d(tmp_path, columns,
                                                   message):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as err:
        write_csv(str(path), columns)
    assert str(err.value) == message
    assert not path.exists()


def test_write_history_text_is_fmt_of_every_cell(tmp_path):
    # _write_history formats each time and height once and repeats the
    # strings; the table must read as _fmt of every (t, z, v) cell, with
    # -0.0 kept apart from 0.0 and non-finite values spelled out
    z = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    times = np.array([0.0, 0.1, 0.2, 0.30000000000000004])
    snapshots = np.arange(20.0).reshape(4, 5) / 3.0
    snapshots[1, 2], snapshots[2, 0], snapshots[3, 4] = np.nan, np.inf, -np.inf
    hist = FlowHistory("radial", z, times, snapshots, SpeedFunction("sum", 3),
                       "heun")
    _write_history(str(tmp_path), "h", hist, {"preset": "test"})
    rows = [",".join(map(_fmt, (t, zj, snapshots[i, j])))
            for i, t in enumerate(times) for j, zj in enumerate(z)]
    expected = "\n".join(["# gflowlab-csv v1", "# n=3", "# preset=test",
                          "# representation=radial", "# speed=sum", "t,z,v"]
                         + rows) + "\n"
    assert (tmp_path / "h.csv").read_text() == expected
    assert rows[1].startswith("0.0,-0.0,") and rows[2].startswith("0.0,0.0,")
