"""gflowlab benchmark: runs the CLI presets as workloads and times them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {bowl_tail,shrinker_sweep,graph_flow}
        --seed N --seconds S --trace {0,1}

A *pass* runs every operation (one ``cli.main`` call each) of a workload
once, in a fresh worker process with the BLAS threads pinned to 1, so no
in-process cache carries over between passes, and each pass gives one
set-up sample.  The run makes passes until the next one would end after
``--seconds``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: medians over
the passes of the pass wall time in units of the reference loop timed in
the same worker (see worker.py), the set-up time and the peak RSS, and the
share of operations that passed.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics, from the traced passes,
with the tracing overhead.  The last line of stdout is one JSON object;
the lines above it repeat the metrics for a reader, with the provenance.
Exit code 0 means the run completed (``correct`` says whether the outputs
checked out); any other code means there is no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

RUN_LIMIT_S = 170.0        # every worker ends before this, from run start
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOT_PRODUCED = -1.0        # value of an accuracy metric a workload lacks

ACCURACY = ("solitons.tip_rel_err", "solitons.residual_max",
            "fits.c2_rel_gap", "fits.growth_rate_rel_err",
            "flow.cylinder_err", "flow.semi_implicit_err", "flow.speed_err")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("GFLOWLAB_OUTDIR", None)
    for var in PINNED:
        env[var] = "1"
    return env


def spawn(deadline: float, workdir: str, extra: list) -> dict:
    """Run one worker; return its result with ``setup_s`` and ``pass_s``."""
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workdir", workdir,
           "--result", result_path] + extra
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a worker overran the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_ready"] - t_spawn
    result["pass_s"] = time.monotonic() - t_spawn
    return result


def check_checkout():
    cli = os.path.join(ROOT, "src", "gflowlab", "cli.py")
    if not os.path.isfile(cli):
        raise BenchError(f"no gflowlab source at {cli}; run from the root "
                         "of a gflowlab checkout")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        raise BenchError("BENCHMARK.json is missing from the checkout root")


def collect(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes; return their raw results."""
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    run_dir = os.path.join(WORK, f"{workload}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)

    # users compile the package's bytecode once, not on every command
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    plain, traced = [], []
    while True:
        is_traced = trace and len(traced) < len(plain)
        pass_dir = os.path.join(run_dir, f"pass{len(plain) + len(traced)}")
        res = spawn(hard_deadline, pass_dir,
                    ["--workload", workload, "--seed", str(seed),
                     "--trace", str(int(is_traced))])
        (traced if is_traced else plain).append(res)
        if is_traced:
            # keep the spans of the latest traced pass only
            shutil.copy(os.path.join(pass_dir, "spans.json"),
                        os.path.join(run_dir, "spans.json"))
        shutil.rmtree(pass_dir)
        if trace and not traced:
            continue
        recent = max(r["pass_s"] for r in (plain + traced)[-2:])
        if time.monotonic() + recent > start + seconds:
            break
    return {"plain": plain, "traced": traced,
            "provenance": plain[0]["provenance"], "run_dir": run_dir}


def end_to_end(raw: dict) -> dict:
    passes = raw["plain"] + raw["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_ref": statistics.median(p["wall_s"] / p["ref_s"]
                                      for p in raw["plain"]),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in raw["plain"]),
        "ok_frac": (attempted - failed) / attempted,
    }


def _per_pass_layers(res: dict) -> dict:
    layers, counts = res["layers"], res["counts"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def group(prefix, key):
        return sum(row[key] for name, row in layers.items()
                   if name.startswith(prefix))

    def per_node_step(name):
        steps = counts.get(f"{name}.node_steps", 0)
        return 1e6 * get(name, "busy_s") / steps if steps else 0.0

    integ = "accel.integrate_profile"
    ivps = get(integ, "calls")
    profiles = (get("solitons.solve_bowl", "calls")
                + get("solitons.solve_shrinker", "calls"))
    roots = sum(row["self_s"] for row in layers.values())
    return {
        f"{integ}.calls": ivps,
        f"{integ}.busy_s": get(integ, "busy_s"),
        f"{integ}.nodes": counts.get(f"{integ}.nodes", 0),
        f"{integ}.buffer_mb_computed":
            counts.get(f"{integ}.buffer_bytes", 0) / 1e6,
        "accel.flow_run.calls": get("accel.flow_run", "calls"),
        "accel.flow_run.busy_s": get("accel.flow_run", "busy_s"),
        "accel.flow_run.node_steps": counts.get("accel.flow_run.node_steps", 0),
        "accel.flow_run.us_per_node_step": per_node_step("accel.flow_run"),
        "accel.radial_semi_implicit_run.busy_s":
            get("accel.radial_semi_implicit_run", "busy_s"),
        "accel.radial_semi_implicit_run.node_steps":
            counts.get("accel.radial_semi_implicit_run.node_steps", 0),
        "accel.radial_semi_implicit_run.us_per_node_step":
            per_node_step("accel.radial_semi_implicit_run"),
        "solitons.solve_bowl.self_s": get("solitons.solve_bowl", "self_s"),
        "solitons.solve_shrinker.self_s":
            get("solitons.solve_shrinker", "self_s"),
        "solitons.ivp_useful_ratio": profiles / ivps if ivps else 0.0,
        "solitons.inversion.calls": get("solitons.inversion", "calls"),
        "solitons.inversion.busy_s": get("solitons.inversion", "busy_s"),
        "flow.run_flow.self_s": get("flow.run_flow", "self_s"),
        "flow.bc_tables.busy_s": get("flow.bc_tables", "busy_s"),
        "spectral.build_basis.busy_s": get("spectral.build_basis", "busy_s"),
        "spectral.gamma_trace_from_run.busy_s":
            get("spectral.gamma_trace_from_run", "busy_s"),
        "spectral.projections": get("spectral.projections", "calls"),
        "fits.busy_s": group("fits.", "busy_s"),
        "output.write_csv.busy_s": get("output.write_csv", "busy_s"),
        "output.rows": counts.get("output.rows", 0),
        "output.bytes": counts.get("output.bytes", 0),
        "speeds.busy_s": group("speeds.", "busy_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.wall_s": res["wall_s"],
        "trace.self_coverage": roots / res["wall_s"],
        "trace.span_count": res["span_count"],
    }


# a per-layer metric with one of these endings is a time; every other one
# is an exact count (or a ratio of counts) that each traced pass repeats
TIMED = ("_s", "_per_node_step", "self_coverage")


def per_layer(raw: dict) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes: medians of the times, the
    exact counts, and a problem for each count the passes disagree on."""
    rows = [_per_pass_layers(r) for r in raw["traced"]]
    out, problems = {}, []
    for k in rows[0]:
        values = [r[k] for r in rows]
        if k.endswith(TIMED):
            out[k] = statistics.median(values)
        else:
            out[k] = values[0]
            if len(set(values)) > 1:
                problems.append(f"{k} differs between traced passes: "
                                f"{values}")
    out["pass.wall_s"] = statistics.median(p["wall_s"] for p in raw["plain"])
    out["pass.ref_s"] = statistics.median(p["ref_s"] for p in raw["plain"])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["pass.wall_s"]
    accuracy = raw["traced"][-1]["accuracy"]
    for key in ACCURACY:
        out[key] = accuracy.get(key, NOT_PRODUCED)
    return out, problems


def provenance_line(prov: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pins = " ".join(f"{v}=1" for v in PINNED)
    return (f"# backend: {prov['backend']} "
            f"(gflowlab.NUMBA_ENABLED={prov['numba_enabled']}); "
            f"gflowlab {prov['gflowlab']}, python "
            f"{platform.python_version()}, numpy {prov['numpy']}, "
            f"scipy {prov['scipy']}, BLAS {prov['blas']} pinned "
            f"({pins}); nproc {os.cpu_count()}; cpu {cpu}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and writes it, with
    provenance, next to the spans in the run's work directory."""
    check_checkout()
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    raw = collect(workload, seed, seconds, trace)
    passes = raw["plain"] + raw["traced"]
    problems = [p for res in passes for p in res["problems"]]
    if trace:
        values, count_problems = per_layer(raw)
        problems += count_problems
        declared = spec["per_layer"]
    else:
        values = end_to_end(raw)
        declared = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "provenance": raw["provenance"],
              "provenance_line": provenance_line(raw["provenance"]),
              "passes": {"untraced": len(raw["plain"]),
                         "traced": len(raw["traced"]),
                         "setup_samples": len(passes)},
              "samples": {
                  "untraced_wall_s": [p["wall_s"] for p in raw["plain"]],
                  "ref_s": [p["ref_s"] for p in passes],
                  "traced_wall_s": [p["wall_s"] for p in raw["traced"]],
                  "setup_s": [p["setup_s"] for p in passes],
                  "op_s": [p["op_s"] for p in passes]},
              "problems": problems, "layers": [r.get("layers")
                                               for r in raw["traced"]],
              "result": result}
    with open(os.path.join(raw["run_dir"], "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict, out=sys.stdout):
    print(record["provenance_line"], file=out)
    p = record["passes"]
    print(f"# {record['workload']} seed {record['seed']}: "
          f"{p['untraced']} untraced + {p['traced']} traced passes, "
          f"{p['setup_samples']} set-up samples; "
          f"{record['result']['failed']}/{record['result']['attempted']} "
          f"operations failed", file=out)
    for name, m in record["result"]["metrics"].items():
        shown = "n/a" if (name in ACCURACY
                          and m["value"] == NOT_PRODUCED) else m["value"]
        print(f"{name:48s} {shown!s:>24} {m['unit']}", file=out)
    for problem in record["problems"]:
        print(f"# PROBLEM: {problem}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
