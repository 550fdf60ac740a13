"""CSV writer: the exact bytes of a table with special values."""

import numpy as np

from gflowlab.output import read_csv, write_csv

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
