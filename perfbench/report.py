"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload this makes one ``--trace 0`` run and one ``--trace 1``
run, prints both metric tables with the provenance, then the traced pass's
self time per span name, which sums to the traced pass wall time, and the
tracing overhead.  Exits 1 if any run found an output problem.
"""

from __future__ import annotations

import argparse
import sys

import run


def print_self_times(record: dict):
    layers = record["layers"][-1]
    wall = record["samples"]["traced_wall_s"][-1]
    print(f"# self time per span, last traced pass ({wall:.3f} s):")
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"#   {name:36s} calls {row['calls']:>7d}  busy "
              f"{row['busy_s']:9.4f} s  self {row['self_s']:9.4f} s  "
              f"{100 * row['self_s'] / wall:6.2f}%")
    total = sum(row["self_s"] for row in layers.values())
    print(f"#   {'sum of self times':36s} {total:.4f} s = "
          f"{100 * total / wall:.3f}% of the traced wall time")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=run.load_spec()["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in run.load_spec()["workloads"]]

    ok = True
    for name in names:
        untraced = run.run(name, args.seed, args.seconds, trace=False)
        traced = run.run(name, args.seed, args.seconds, trace=True)
        print(f"\n== {name} ==")
        run.print_record(untraced)
        run.print_record(traced)
        print_self_times(traced)
        metrics = traced["result"]["metrics"]
        print(f"# tracing overhead: traced wall "
              f"{metrics['trace.wall_s']['value']:.3f} s - untraced wall "
              f"{metrics['pass.wall_s']['value']:.3f} s = "
              f"{metrics['trace.overhead_s']['value']:+.3f} s (medians of "
              "the traced run)")
        ok = ok and untraced["result"]["correct"] and traced["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
