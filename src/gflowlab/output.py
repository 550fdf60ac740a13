"""Deterministic CSV / JSON / plot-script writers.

All floats are written with shortest round-trip ``repr`` so identical inputs
produce byte-identical files; JSON keys are sorted.
The CSV writer takes 1-D columns of one length.  It formats a float column
with one ``repr`` per run of adjacent cells with equal bit patterns,
repeating that string down the run (found by comparing neighbours, with no
dict and no sort), and writes a column of ``str`` as given; an object
column whose cells are all exactly ``str`` is passed on whole, after one
type check per row block.  Any other object column goes through ``_fmt``
cell by cell: ``str(np.float32(x))`` is not ``repr(float(x))``, so an
``np.float32`` among strings still gets its float spelling.  A caller
whose column repeats by construction in rows that are not adjacent (the
flow history's z) formats each distinct value once with ``format_column``
and passes the repeated strings.  Rows are formatted and written in blocks
of ``_CSV_BLOCK`` (1,024) rows, so the formatted strings held at once are
those of one block, whatever the table's length.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

CSV_SCHEMA = "gflowlab-csv v1"
_CSV_BLOCK = 1024


def _fmt(x) -> str:
    """Shortest round-trip ``repr`` of a float (spelling nan, inf and -inf),
    ``str`` of anything else."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def format_column(a: np.ndarray) -> list:
    """``_fmt`` of every entry of a 1-D array.

    A float64-or-narrower column goes through ``repr`` of Python floats,
    which spells nan and +-inf as ``_fmt`` does, once per run of adjacent
    entries whose float64 bit patterns are equal.  An object column whose
    cells are all exactly ``str`` is returned as it is, since ``_fmt`` of a
    ``str`` is that ``str``; any other object column, say one holding an
    ``np.float32``, goes through ``_fmt`` cell by cell.
    """
    if a.dtype.kind == "f" and a.dtype.itemsize <= 8:
        a = a.astype(np.float64, copy=False)
        # a run of one bit pattern has one spelling: format its first cell
        # and repeat the string (-0.0 and 0.0, or NaNs with different
        # payloads, only start new runs)
        bits = a.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True],
                                                bits[1:] != bits[:-1])))
        if starts.size >= a.size:  # no repeat, or an empty block
            return list(map(repr, a.tolist()))
        cells = np.array(list(map(repr, a[starts].tolist())), dtype=object)
        return np.repeat(cells, np.diff(starts, append=a.size)).tolist()
    if a.dtype.kind == "O":
        cells = a.tolist()
        if set(map(type, cells)) == {str}:
            return cells
    return [_fmt(x) for x in a]


def write_csv(path: str, columns: Mapping[str, Sequence],
              meta: Mapping | None = None) -> None:
    """Write named 1-D columns of one length with a schema line and
    ``# key=value`` metadata."""
    names = list(columns)
    if not names:
        raise ValueError("write_csv needs at least one column")
    arrays = [np.asarray(columns[c]) for c in names]
    for name, a in zip(names, arrays):
        if a.ndim != 1:
            raise ValueError(
                f"column {name!r} must be 1-D, got shape {a.shape}")
    length = arrays[0].shape[0]
    if any(a.shape[0] != length for a in arrays):
        raise ValueError("columns must share a length")
    lines = [f"# {CSV_SCHEMA}"]
    for key in sorted(meta or {}):
        lines.append(f"# {key}={_fmt((meta or {})[key])}")
    lines.append(",".join(names))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        # row blocks bound the memory held by the formatted strings
        for lo in range(0, length, _CSV_BLOCK):
            cells = [format_column(a[lo:lo + _CSV_BLOCK]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path: str):
    """Read back a write_csv file: (columns dict, meta dict)."""
    meta = {}
    names = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                body = line[2:]
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k] = v
                continue
            if names is None:
                names = line.split(",")
                continue
            rows.append(line.split(","))
    data = {}
    for j, name in enumerate(names or []):
        col = [r[j] for r in rows]
        try:
            data[name] = np.array([float(x) for x in col])
        except ValueError:
            data[name] = np.array(col)
    return data, meta


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plot_script(path: str, csv_name: str, x: str, ycols: Sequence[str],
                      title: str, logy: bool = False) -> None:
    """Emit a plain gnuplot script referencing a CSV written by write_csv."""
    lines = [
        "# gnuplot script generated by gflowlab",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set title '{title}'",
        f"set xlabel '{x}'",
    ]
    if logy:
        lines.append("set logscale y")
    plots = ", ".join(
        f"'{csv_name}' using '{x}':'{y}' with lines" for y in ycols)
    lines.append(f"plot {plots}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def output_dir(cli_value: str | None) -> str:
    """Resolve the output directory: flag wins, then GFLOWLAB_OUTDIR, then ./out."""
    path = cli_value or os.environ.get("GFLOWLAB_OUTDIR") or "out"
    os.makedirs(path, exist_ok=True)
    return path
