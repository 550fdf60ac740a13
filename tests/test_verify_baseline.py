"""Every measured value of ``gflowlab verify`` against a committed baseline.

``verify_baseline.json`` holds each criterion's measured string and details,
as ``gflowlab verify --json`` prints them (without runtimes or cache hits).
A criterion passes its gate by orders of magnitude more often than not, so
a regression of a few decades would still pass ``verify``; this test fails
when any number moves by a factor of 10 or more, and when a zero becomes
nonzero.  A change that moves a number rewrites the baseline with

    PYTHONPATH=src python tests/test_verify_baseline.py

which prints each leaf it moves, old -> new, for the change to state.
"""

import json
import os
import re

import pytest

from gflowlab import acceptance, output

BASELINE = os.path.join(os.path.dirname(__file__), "verify_baseline.json")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
FACTOR = 10.0


def _measured(cid):
    r = acceptance.run_criterion(cid)
    return {"id": r.cid, "measured": r.measured,
            "details": output._sanitize(r.details)}


def _leaves(obj, path=""):
    """(path, value) for every number and flag in a measured row; the
    numbers of a string are its leaves in order."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    elif isinstance(obj, str):
        for i, m in enumerate(NUMBER.findall(obj)):
            yield f"{path}#{i}", float(m)
    else:
        yield path, obj


def _baseline():
    with open(BASELINE) as fh:
        return {row["id"]: row for row in json.load(fh)}


def test_baseline_covers_every_criterion():
    assert sorted(_baseline()) == acceptance.criteria_ids()


@pytest.mark.parametrize("cid", acceptance.criteria_ids())
def test_measured_values_near_baseline(cid):
    want = dict(_leaves(_baseline()[cid]))
    got = dict(_leaves(_measured(cid)))
    assert got.keys() == want.keys(), _measured(cid)["measured"]
    for path, old in want.items():
        new = got[path]
        if isinstance(old, bool) or not isinstance(old, (int, float)):
            assert new == old, path
        elif old == 0:
            assert new == 0, f"{path}: {old!r} -> {new!r}"
        else:
            assert 1.0 / FACTOR < new / old < FACTOR, \
                f"{path}: {old!r} -> {new!r}"


def _moves(old_rows, new_rows):
    """A line "criterion <id> <path>: old -> new" per leaf that differs
    between two baselines; a leaf that only one of them has reads None."""
    old = {(row["id"], p): v for row in old_rows for p, v in _leaves(row)}
    new = {(row["id"], p): v for row in new_rows for p, v in _leaves(row)}
    return [f"criterion {cid} {path}: {old.get((cid, path))!r} -> "
            f"{new.get((cid, path))!r}"
            for cid, path in sorted(old.keys() | new.keys())
            if old.get((cid, path)) != new.get((cid, path))]


def test_moves_names_each_changed_leaf():
    old = [{"id": 7, "measured": "speed 0.5", "details": {"rms": 4.0}}]
    new = [{"id": 7, "measured": "speed 0.5", "details": {"rms": 4.5,
                                                         "extra": 1}}]
    assert _moves(old, new) == ["criterion 7 /details/extra: None -> 1",
                                "criterion 7 /details/rms: 4.0 -> 4.5"]
    assert _moves(old, old) == []


if __name__ == "__main__":
    rows = [_measured(cid) for cid in acceptance.criteria_ids()]
    with open(BASELINE) as fh:
        print("\n".join(_moves(json.load(fh), rows)) or "no leaf moved")
    with open(BASELINE, "w", newline="\n") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
