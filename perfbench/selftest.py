"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--workload NAME ...]

1. The span analysis on hand-made spans: self times, nesting errors, and
   the parent links that ``Tracer.wrap`` records for nested calls.
2. For each workload (default: all), at seed 0 with the shortest runs:
   a ``--trace 0`` run and two ``--trace 1`` runs complete with
   ``correct`` true and report every metric of BENCHMARK.json with its
   unit; the traced spans nest; and the exact counts (integrator nodes and
   calls, node steps, inversions, projections, output rows and bytes, span
   count) are identical in the two traced runs.

Prints what it checked and exits 0 when every check passes.  Takes about
three minutes for all three workloads on a 2-vCPU Intel Xeon machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import tracer as tracing


def check_span_analysis() -> list:
    errors = []
    spans = [["cli.main", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0]]
    if tracing.self_times(spans) != [3.0, 2.0, 1.0, 4.0]:
        errors.append(f"self times {tracing.self_times(spans)}")
    if tracing.nesting_errors(spans):
        errors.append(f"nested spans flagged: {tracing.nesting_errors(spans)}")
    outside = spans + [["d", 8.0, 11.0, 0, 0]]
    overlap = spans[:3] + [["c", 3.5, 9.0, 0, 0]]
    other_op = spans[:3] + [["c", 5.0, 9.0, 0, 1]]
    for label, bad in (("child outside parent", outside),
                       ("overlapping siblings", overlap),
                       ("child in another op", other_op)):
        if not tracing.nesting_errors(bad):
            errors.append(f"{label} not flagged")

    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * inner(x))
    tr.op = 7
    if outer(1) != 4:
        errors.append("wrapped function returned a wrong value")
    parents = [(name, parent, op) for name, _, _, parent, op in tr.spans]
    if parents != [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]:
        errors.append(f"recorded spans {parents}")
    errors += tracing.nesting_errors(tr.spans)
    return errors


def check_metrics(record: dict, declared: list) -> list:
    got = record["result"]["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    errors = [f"{name}: missing or unit {got.get(name, {}).get('unit')!r}, "
              f"expected {unit!r}"
              for name, unit in want.items()
              if got.get(name, {}).get("unit") != unit]
    errors += [f"{name}: not a number" for name, m in got.items()
               if not isinstance(m["value"], (int, float))]
    if set(got) != set(want):
        errors.append(f"undeclared metrics {sorted(set(got) - set(want))}")
    if not record["result"]["correct"]:
        errors.append(f"correct is false: {record['problems']}")
    return errors


def check_workload(workload: str, spec: dict) -> list:
    errors = []
    untraced = run.run(workload, 0, 1.0, trace=False)
    errors += check_metrics(untraced, spec["end_to_end"])
    counts = []
    for _ in range(2):
        traced = run.run(workload, 0, 1.0, trace=True)
        errors += check_metrics(traced, spec["per_layer"])
        metrics = traced["result"]["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if not k.endswith(run.TIMED) and k not in run.ACCURACY})
        spans_path = os.path.join(run.WORK, f"{workload}-trace1",
                                  "spans.json")
        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]
        errors += tracing.nesting_errors(spans)[:5]
    if counts[0] != counts[1]:
        errors.append(f"exact counts differ between runs: {counts}")
    print(f"{workload}: exact counts {json.dumps(counts[0])}")
    return [f"{workload}: {e}" for e in errors]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    spec = run.load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]

    errors = check_span_analysis()
    print(f"span analysis: {'ok' if not errors else errors}")
    for name in names:
        found = check_workload(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        errors += found
    for err in errors:
        print(f"FAIL {err}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
