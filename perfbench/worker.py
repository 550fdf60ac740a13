"""One pass of a workload in a fresh interpreter, as one CLI command is.

Usage (started by run.py, which sets PYTHONPATH to the checkout's src/ and
pins the BLAS threads to 1):

    python3 perfbench/worker.py --root DIR --workdir DIR --result FILE
        --workload NAME --seed N --trace 0|1

The worker records the monotonic clock once ``gflowlab.cli`` is imported
(run.py subtracts its spawn time to get the set-up time), runs every
operation of the pass through ``cli.main``, then checks the outputs and
writes one JSON result.  With ``--trace 1`` it installs the tracer first
and also writes the pass's spans next to the result.  Right before and
right after the operations it times a fixed reference loop, the unit of
the ``wall_ref`` metric.
"""

# Set-up ends when the CLI is imported, so that import comes first.
import time
import gflowlab.cli as cli
T_READY = time.monotonic()

import argparse
import contextlib
import json
import os
import resource
import sys
import traceback

import numpy as np
import scipy

import gflowlab
import tracer as tracing
import workloads


REFERENCE_STEPS = 2_500_000


def reference_s() -> float:
    """Time a fixed pure-Python loop.

    On a shared 2-vCPU virtual machine the vCPU speed drifted by up to 1.7x
    over minutes, on both vCPUs together.  The loop is interpreter-bound,
    like the profile integrator, the Thomas solve and the CSV formatting,
    so it slows down with them, and pass time over loop time cancels most
    of the drift.
    """
    start = time.perf_counter()
    x, v = 0.1, 0.0
    for _ in range(REFERENCE_STEPS):
        a = -x - 0.1 * v
        x += 1e-3 * v
        v += 1e-3 * a
    return time.perf_counter() - start


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "gflowlab": gflowlab.__version__,
        "numba_enabled": bool(gflowlab.NUMBA_ENABLED),
        "backend": ("numba" if gflowlab.NUMBA_ENABLED
                    else "numpy/pure-Python fallback (numba absent)"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _accuracy_of_profiles(profiles) -> dict:
    out = {}
    for prof in profiles:
        res = float(np.max(prof.residual_norms()))
        out["solitons.residual_max"] = max(
            res, out.get("solitons.residual_max", res))
        if isinstance(prof, gflowlab.BowlProfile):
            target = 1.0 / (2.0 * prof.speed.F11)
            err = abs(prof.tip_curvature - target) / target
            out["solitons.tip_rel_err"] = max(
                err, out.get("solitons.tip_rel_err", err))
    return out


def run_pass(args) -> dict:
    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    main = cli.main
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)

    rcs, op_s, problems = [], [], []
    ref_s = reference_s()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                rc = main(["--outdir", os.path.join(args.workdir, f"op{i}")]
                          + op.argv)
            except Exception:  # the program crashed: record it, keep going
                rc = None
                problems.append(f"op {i} raised:\n{traceback.format_exc()}")
            op_s.append(time.perf_counter() - t0)
            rcs.append(rc)
        wall = time.perf_counter() - start
    ref_s += reference_s()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    accuracy = {}
    for i, (op, rc) in enumerate(zip(ops, rcs)):
        op_failed, op_problems, op_accuracy = workloads.check(
            op, rc, os.path.join(args.workdir, f"op{i}"))
        failed += bool(op_failed)
        problems += [f"op {i} ({op.argv[0]}): {p}" for p in op_problems]
        for key, val in op_accuracy.items():
            accuracy[key] = max(val, accuracy.get(key, val))

    result = {"wall_s": wall, "ref_s": ref_s, "op_s": op_s, "rss_mb": rss_mb,
              "attempted": len(ops), "failed": failed, "exit_codes": rcs}
    if tracer is not None:
        tracer.uninstall()
        accuracy.update(_accuracy_of_profiles(tracer.profiles))
        spans = tracer.spans
        problems += tracing.nesting_errors(spans)
        result["layers"] = tracing.summarize(spans)
        result["counts"] = dict(tracer.counts)
        result["span_count"] = len(spans)
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": spans}, fh)
    result["accuracy"] = accuracy
    result["problems"] = problems
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(gflowlab.__file__).startswith(src + os.sep):
        print(f"gflowlab was imported from {gflowlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    result = {"t_ready": T_READY, "provenance": provenance()}
    result.update(run_pass(args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
