"""Workload definitions: the ``gflowlab`` CLI calls of one pass, per seed.

Seed 0 runs the CLI presets exactly.  Any other seed rescales the physical
parameters by one factor ``s = 1 + k/1024``, k in 0..10 drawn from the seed,
small enough that the work per pass stays within about 2% of seed 0.  A
power-of-two denominator keeps the scaled values exact, so the CLI's own
window checks (``fit_hi >= 10 fit_lo``, a sweep span of 8) see exact ratios:

* ``bowl_tail``: rho_max and the tail-fit window [rho_max/10, rho_max];
* ``shrinker_sweep``: every cap parameter a, by one common factor, so the
  sweep keeps the span of 8 that ``fit_shrinker_neck`` requires;
* ``graph_flow``: the seed amplitudes, the cylinder radius r0 and the
  translation run's end time.

Each operation carries a check of its outputs.  ``check`` returns
``(failed, problems, accuracy)``: ``failed`` is the program's own verdict
(nonzero exit code or ``"pass": false`` in the manifest); ``problems`` lists
what the benchmark itself finds wrong (a missing or inconsistent manifest,
or a check the CLI does not make); ``accuracy`` holds measured errors.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# criterion 10's tolerance on the k1 growth rate (eigenvalue 1/2)
GROWTH_RATE = 0.5
GROWTH_RATE_TOL = 0.05


@dataclass
class Operation:
    argv: list
    manifest: str
    check: Callable


def seed_scale(seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + random.Random(seed).randint(0, 10) / 1024


def _num(x: float) -> str:
    return repr(float(x))


def _verdict(rc, manifest):
    """The program's own verdict plus the benchmark's consistency check."""
    failed = rc != 0 or not manifest.get("pass", False)
    problems = []
    if (rc == 0) != bool(manifest.get("pass")):
        problems.append(f"exit code {rc} disagrees with pass="
                        f"{manifest.get('pass')}")
    return failed, problems


def _check_bowl(rc, manifest):
    failed, problems = _verdict(rc, manifest)
    if "fit" not in manifest:
        problems.append("bowl manifest has no tail fit")
        return failed, problems, {}
    return failed, problems, {
        "fits.c2_rel_gap": manifest["fit"]["meta"]["relative_gap"]}


def _check_shrinker(n_caps):
    def check(rc, manifest):
        failed, problems = _verdict(rc, manifest)
        if len(manifest.get("rows", [])) != n_caps or "bounds" not in manifest:
            problems.append(f"shrinker report lacks {n_caps} rows and bounds")
        return failed, problems, {}
    return check


def _check_spectral(rc, manifest):
    failed, problems = _verdict(rc, manifest)
    verdict = manifest.get("verdict", {}).get("verdict")
    if verdict != "neutral-dominated":
        problems.append(f"spectral k=2 verdict is {verdict!r}, "
                        "expected 'neutral-dominated'")
    return failed, problems, {}


def _check_rescaled(rc, manifest):
    failed, problems = _verdict(rc, manifest)
    rate = manifest.get("sup_growth_rate")
    if rate is None:
        problems.append("rescaled manifest has no sup_growth_rate")
        return failed, problems, {}
    err = abs(rate - GROWTH_RATE) / GROWTH_RATE
    if err > GROWTH_RATE_TOL:
        problems.append(f"k1 growth rate {rate:.6g} is not within "
                        f"{GROWTH_RATE_TOL:.0%} of {GROWTH_RATE}")
    return failed, problems, {"fits.growth_rate_rel_err": err}


def _check_cylinder(key):
    def check(rc, manifest):
        failed, problems = _verdict(rc, manifest)
        if "final_error" not in manifest:
            problems.append("cylinder manifest has no final_error")
            return failed, problems, {}
        return failed, problems, {key: manifest["final_error"]}
    return check


def _check_translation(rc, manifest):
    failed, problems = _verdict(rc, manifest)
    if "translation" not in manifest:
        problems.append("translation manifest has no measured speed")
        return failed, problems, {}
    err = abs(manifest["translation"]["speed"] - manifest["target_speed"])
    return failed, problems, {"flow.speed_err": err}


def operations(workload: str, seed: int) -> list[Operation]:
    """The CLI calls of one pass of ``workload`` for ``seed``."""
    s = seed_scale(seed)
    if workload == "bowl_tail":
        rho_max = 1000.0 * s
        return [Operation(["bowl", "--speed", speed, "--rho-max", _num(rho_max),
                           "--fit-lo", _num(rho_max / 10),
                           "--fit-hi", _num(rho_max)],
                          "bowl_fit.json", _check_bowl)
                for speed in ("bh", "sum")]
    if workload == "shrinker_sweep":
        caps = [a * s for a in (50.0, 100.0, 200.0, 400.0)]
        return [Operation(["shrinker", "--a", ",".join(map(_num, caps)),
                           "--check-bounds"],
                          "shrinker_report.json", _check_shrinker(len(caps)))]
    if workload == "graph_flow":
        amp, r0 = _num(1e-4 * s), _num(2.0 * s)
        return [
            Operation(["spectral", "--seed-mode", "k=2", "--windows", "10",
                       "--amp", amp],
                      "spectral_manifest.json", _check_spectral),
            Operation(["rescaled", "--seed-mode", "k1", "--tau-end", "1.0",
                       "--amp", amp],
                      "rescaled_manifest.json", _check_rescaled),
            Operation(["flow", "--preset", "cylinder", "--t-end", "0.25",
                       "--r0", r0],
                      "flow_manifest.json", _check_cylinder("flow.cylinder_err")),
            Operation(["flow", "--preset", "bowl-translation",
                       "--t-end", _num(1.0 * s)],
                      "flow_manifest.json", _check_translation),
            Operation(["flow", "--preset", "cylinder", "--scheme",
                       "semi_implicit", "--delta", "0.025", "--r0", r0],
                      "flow_manifest.json",
                      _check_cylinder("flow.semi_implicit_err")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(op: Operation, rc: int, outdir: str):
    """Run ``op.check`` on the manifest the operation wrote to ``outdir``."""
    path = os.path.join(outdir, op.manifest)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return True, [f"{' '.join(op.argv[:1])}: no manifest ({exc})"], {}
    return op.check(rc, manifest)
