#!/usr/bin/env python3
"""Benchmark the jitted kernels against the pure-numpy fallback.

Runs the same workloads in two subprocesses, one with numba enabled and one
with GFLOWLAB_NO_NUMBA=1, and prints a timing table.  Each workload is a
real hot path: the bowl and shrinker profile solves and the explicit PDE
stepping loop.  The profile solves drive scipy's LSODA from Python in both
modes, so numba reaches only the speed algebra they call.  Where numba is
absent both columns time the fallback.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = {
    "bowl sum n=3 to rho=1000": (
        "import gflowlab as gf;"
        "gf.solve_bowl(gf.SpeedFunction('sum', 3), 1000.0, tol=1e-10)"),
    "bowl bh n=3 to rho=1000": (
        "import gflowlab as gf;"
        "gf.solve_bowl(gf.SpeedFunction('bh', 3), 1000.0, tol=1e-10)"),
    "shrinker sum n=3 a=100": (
        "import gflowlab as gf;"
        "gf.solve_shrinker(gf.SpeedFunction('sum', 3), 100.0, tol=1e-8)"),
    "rescaled flow 2000 steps x 561 nodes": (
        "import numpy as np, gflowlab as gf;"
        "from gflowlab.flow import RadialFlowState, BoundaryCondition, run_flow;"
        "s = gf.SpeedFunction('sum', 3);"
        "z = np.linspace(-14.0, 14.0, 561);"
        "st = RadialFlowState('rescaled', z, np.full(561, 2.0) + 1e-4*np.exp(-z**2), 0.0, s);"
        "run_flow(st, 5e-4, 2000, bc=BoundaryCondition(mode='frozen'), record_every=2000)"),
}

TIMER = """
import json, time, sys
times = {{}}
for name, src in {workloads!r}.items():
    # warm-up triggers JIT compilation so the timed pass measures steady state
    exec(src)
    best = float('inf')
    for _ in range({repeat}):
        t0 = time.perf_counter()
        exec(src)
        best = min(best, time.perf_counter() - t0)
    times[name] = best
print(json.dumps(times))
"""


def run_mode(disable_numba: bool, repeat: int) -> dict:
    env = dict(os.environ)
    env["GFLOWLAB_NO_NUMBA"] = "1" if disable_numba else "0"
    script = TIMER.format(workloads=WORKLOADS, repeat=repeat)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    print("timing jitted kernels ...")
    jit = run_mode(False, args.repeat)
    print("timing numpy fallback ...")
    plain = run_mode(True, args.repeat)
    width = max(len(k) for k in WORKLOADS)
    print(f"\n{'workload':<{width}}  {'numba':>9}  {'numpy':>9}  {'speedup':>8}")
    for name in WORKLOADS:
        a, b = jit[name], plain[name]
        print(f"{name:<{width}}  {a:>8.3f}s  {b:>8.3f}s  {b / a:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
