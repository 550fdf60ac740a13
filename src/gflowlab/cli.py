"""Command-line interface.

Subcommands: bowl, shrinker, flow, rescaled, spectral, verify.  Options can
come from a JSON config file (--config); explicit flags win over the file.
Outputs are CSV tables plus a JSON manifest per run, written to --outdir
(or $GFLOWLAB_OUTDIR, default ./out); identical configurations produce
byte-identical files.  Every command but ``verify`` computes its run
(``compute_*``, or ``compute`` from a command line), then writes it
(``write_*``), so a run that raises writes no file; ``verify`` certifies
the same runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erf

from . import fits, output, solitons, spectral
from .errors import (GFlowError, WindowTooNarrow, require_finite,
                     require_positive)
from .flow import (TRANSLATION_STEPS_PER_UNIT, BoundaryCondition,
                   RadialFlowState, run_flow, cylinder_radius,
                   shrinking_cylinder_reference, state_from_reference,
                   step_plan, translating_bowl_reference, translation_speed,
                   uniform_grid)
from .speeds import KINDS, SpeedFunction

# ROS3P steps per unit tau of `rescaled` and `spectral`: at 4x as many, the k1
# rate at tau = 1 and the monotone decay at tau = 7 of sum n=3, bh n=3 and
# sigma_ratio n=4 k=2 move by < 3e-5 (relative), fitted at the same times
RESCALED_STEPS_PER_UNIT = 8
# steps per time unit of a linearly implicit `flow --preset cylinder` run,
# whatever delta: on the README's grid of cylinder runs, half as many fail
# the 1e-6 check where Heun at its CFL step passes it; these fail only where
# Heun fails too.  A translating bowl has no vanishing time to resolve and
# takes flow.TRANSLATION_STEPS_PER_UNIT
FLOW_STEPS_PER_UNIT = 320
# a spectral run spans windows + 1 time units, one trace window each, and
# spectral.merle_zaag_classifier needs MIN_CLASSIFIER_WINDOWS of them
SPECTRAL_MIN_WINDOWS = spectral.MIN_CLASSIFIER_WINDOWS - 1


class Option(NamedTuple):
    """A command option: the flag --<name> and the key <name> of its config
    section, both read from their text by ``type``."""

    name: str
    type: Callable
    default: object
    choices: tuple | None = None
    help: str = ""


def float_list(text):
    return [float(x) for x in text.split(",")]


OPTIONS = {
    "speed": (Option("speed", str, "sum", KINDS),
              Option("n", int, 3), Option("k", int, None)),
    "bowl": (Option("rho-max", float, 1000.0), Option("tol", float, 1e-10),
             Option("fit-lo", float, None, help="None: 100"),
             Option("fit-hi", float, None, help="None: min(1000, rho-max)")),
    "shrinker": (Option("a", float_list, "25,50,100",
                        help="comma-separated parameters"),
                 Option("theta", float, 0.9), Option("tol", float, 1e-8),
                 Option("m-knob", float, 50.0),
                 Option("bound-l", float, 15.0),
                 Option("check-bounds", bool, False)),
    "flow": (Option("preset", str, "cylinder",
                    ("cylinder", "bowl-translation")),
             Option("delta", float, 0.05), Option("t-end", float, 0.25),
             Option("scheme", str, "semi_implicit", ("semi_implicit", "rk2"),
                    help=f"semi_implicit: ROS3P, {FLOW_STEPS_PER_UNIT} "
                         "steps per unit time for the cylinder, "
                         f"{TRANSLATION_STEPS_PER_UNIT} for bowl-translation; "
                         "rk2: Heun at its CFL step"),
             Option("r0", float, 2.0), Option("stride", int, 0)),
    "rescaled": (Option("seed-mode", str, "k1"), Option("amp", float, 1e-4),
                 Option("tau-end", float, 1.0),
                 Option("delta", float, 0.05), Option("window", float, 14.0),
                 Option("measure-l", float, 4.0)),
    "spectral": (Option("seed-mode", str, "k=2"), Option("amp", float, 1e-4),
                 Option("windows", int, 10),
                 Option("r", float, 0.3), Option("l", float, 10.0),
                 Option("kmax", int, 10), Option("quad-order", int, 90)),
}


def parse_config(path: str) -> dict:
    """The JSON object in ``path``; ValueError naming the file otherwise,
    or naming the first key that is not a section of ``OPTIONS``."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path}: holds no JSON object")
    unknown = sorted(cfg.keys() - OPTIONS.keys())
    if unknown:
        raise ValueError(f"config {unknown[0]}: unknown section "
                         f"(known: {', '.join(OPTIONS)})")
    return cfg


def _read(section, opt, value):
    """A config value read the way its text would be read as the flag: a
    number, or a string the flag accepts; --a also takes a list of numbers
    and --check-bounds a JSON bool.  None (JSON null) is unset."""
    if value is None or (opt.type is bool and type(value) is bool):
        return value
    text = None
    if type(value) is str:
        text = value
    elif type(value) in (int, float):
        text = repr(value)
    elif type(value) is list and opt.type is float_list:
        text = ",".join(map(repr, value))
    try:
        read = None if text is None or opt.type is bool else opt.type(text)
    except ValueError:
        read = None
    if opt.choices and read not in opt.choices:
        raise ValueError(f"config {section}.{opt.name}: invalid choice: "
                         f"{json.dumps(value)} (choose from "
                         f"{', '.join(opt.choices)})")
    if read is None:
        raise ValueError(f"config {section}.{opt.name}: invalid "
                         f"{opt.type.__name__} value: {json.dumps(value)}")
    return read


def _options(args, cfg, section):
    """The options of ``section``: each one's flag if given, else its config
    value, else its default.  A non-object section, an unknown key or a
    value of the wrong type, flag or not, is a ValueError naming it."""
    given = cfg.get(section, {})
    if not isinstance(given, dict):
        raise ValueError(f"config {section}: expected a JSON object, got "
                         f"{json.dumps(given)}")
    names = [opt.name for opt in OPTIONS[section]]
    unknown = sorted(given.keys() - names)
    if unknown:
        raise ValueError(f"config {section}.{unknown[0]}: unknown option "
                         f"(known: {', '.join(names)})")
    o = argparse.Namespace()
    for opt in OPTIONS[section]:
        dest = opt.name.replace("-", "_")
        values = (getattr(args, dest),
                  _read(section, opt, given.get(opt.name)),
                  _read(section, opt, opt.default))
        setattr(o, dest, next((v for v in values if v is not None), None))
    return o


def compute_bowl(sp, o):
    """The `bowl` run: (manifest, profile, tail fit or None)."""
    rho_max, tol = o.rho_max, o.tol
    fit_lo = 100.0 if o.fit_lo is None else o.fit_lo
    fit_hi = min(1000.0, rho_max) if o.fit_hi is None else o.fit_hi

    bowl = solitons.solve_bowl(sp, rho_max=rho_max, tol=tol)
    try:
        fit = fits.fit_bowl_expansion(bowl, (fit_lo, fit_hi))
    except WindowTooNarrow:
        # a window the user set must fit; the default one is skipped on a
        # profile too short for it
        if o.fit_lo is not None or o.fit_hi is not None:
            raise
        fit = None
    report = {"speed": sp.to_config(), "tol": tol,
              "tip_curvature": bowl.tip_curvature,
              "tip_target": 1.0 / (2.0 * sp.F11),
              "residual_max": float(np.max(bowl.residual_norms())),
              "monitor": {"Lambda_max": float(np.max(bowl.monitor.Lambda)),
                          "identity_gap": bowl.monitor.identity_gap,
                          "bounded": bowl.monitor.bounded},
              "gradient_ratio_bounds": bowl.gradient_ratio_bounds()}
    ok = (report["residual_max"] <= 10.0 and bowl.monitor.bounded
          and abs(bowl.tip_curvature - report["tip_target"])
          <= 1e-6 * report["tip_target"])
    if fit is not None:
        report["fit"] = fit.to_dict()
        ok = ok and fit.meta["relative_gap"] <= 0.05
    report["pass"] = ok
    return report, bowl, fit


def write_bowl(sp, o, outdir, report, bowl, fit):
    meta = {"speed": sp.kind, "n": sp.n, "k": sp.k if sp.k else "",
            "a": "inf", "theta": "", "tol": o.tol}
    csv_path = os.path.join(outdir, "bowl.csv")
    output.write_csv(csv_path, {
        "rho": bowl.rho[1:], "psi": bowl.zeta[1:],
        "psi_rho": bowl.zeta_rho[1:], "Lambda": bowl.monitor.Lambda,
        "B": bowl.monitor.B}, meta)
    output.write_plot_script(os.path.join(outdir, "bowl.gp"), "bowl.csv",
                             "rho", ["psi", "psi_rho"], "bowl profile")
    if fit is not None:
        output.write_csv(os.path.join(outdir, "bowl_fit.csv"), {
            "window_lo": [fit.window[0]], "window_hi": [fit.window[1]],
            "c2": [fit.coefficients["c2"]],
            "c2_target": [fit.targets["c2"]],
            "residual": [fit.residual]},
            {"speed": sp.kind, "n": sp.n,
             "provenance": fit.targets["provenance"]})
    output.write_json(os.path.join(outdir, "bowl_fit.json"), report)
    return (f"bowl: tip {bowl.tip_curvature:.8g}, "
            f"residual {report['residual_max']:.2e} -> "
            f"{'ok' if report['pass'] else 'FAIL'} ({csv_path})")


def compute_shrinker(sp, o):
    """The `shrinker` run: (manifest, one profile per cap parameter)."""
    require_positive("m-knob", o.m_knob)
    profiles = [solitons.solve_shrinker(sp, a, theta=o.theta, tol=o.tol)
                for a in o.a]
    # a sweep or bound window the fit rejects fails before any file is written
    sweep = (fits.fit_shrinker_neck(profiles, L=o.bound_l)
             if o.check_bounds else None)
    ok = True
    rows = []
    for a, prof in zip(o.a, profiles):
        diag = solitons.shrinker_w_diagnostic(prof, M=o.m_knob)
        margin = prof.lower_bound_margin()
        row = {"a": a, "cauchy_gap": prof.cauchy_gap,
               "tip_curvature": prof.tip_curvature,
               "w_min": float(np.min(diag.w)), "w_lower_ok": diag.lower_ok,
               "w_tip": diag.tip_limit, "w_tip_target": diag.tip_target,
               "w_bar_holds": diag.upper_ok,
               "z_Ma": diag.upper_window and diag.upper_window[1],
               # off the exact tip node (z = a, v = 0), where both sides
               # of the bound vanish
               "lower_bound_min_margin": float(np.min(margin[:-1])),
               "lower_bound_violations": int(np.sum(margin < 0))}
        rows.append(row)
        ok = ok and diag.lower_ok and row["lower_bound_violations"] == 0
    report = {"speed": sp.to_config(), "theta": o.theta, "tol": o.tol,
              "rows": rows}
    if sweep is not None:
        report["bounds"] = sweep
        ok = ok and sweep["upper"]["stable"]
    report["pass"] = ok
    return report, profiles


def write_shrinker(sp, o, outdir, report, profiles):
    for a, prof in zip(o.a, profiles):
        meta = {"speed": sp.kind, "n": sp.n, "k": sp.k if sp.k else "",
                "a": a, "theta": o.theta, "tol": o.tol}
        tag = f"{a:g}".replace(".", "p")
        output.write_csv(os.path.join(outdir, f"shrinker_a{tag}_rho.csv"),
                         {"rho": prof.rho, "psi": prof.psi,
                          "psi_rho": prof.psi_rho,
                          "Lambda": prof.monitor.Lambda, "B": prof.monitor.B},
                         meta)
        output.write_csv(os.path.join(outdir, f"shrinker_a{tag}_z.csv"),
                         {"z": prof.z, "v": prof.v, "v_z": prof.v_z,
                          "w": prof.w}, meta)
    output.write_json(os.path.join(outdir, "shrinker_report.json"), report)
    # the plot shows the last cap's profile
    output.write_plot_script(os.path.join(outdir, "shrinker.gp"),
                             f"shrinker_a{tag}_z.csv",
                             "z", ["v", "w"], "shrinker profile")
    return f"shrinker: a = {o.a} -> {'ok' if report['pass'] else 'FAIL'}"


def _ros3p_plan(name, span, per_unit):
    """(dt, nsteps): ceil(per_unit * span) equal ROS3P steps over span."""
    nsteps = math.ceil(per_unit * require_positive(name, span))
    return span / nsteps, nsteps


def _write_history(outdir, name, hist, extra_meta=None):
    # write_csv formats each run of one time once; the heights repeat too,
    # but not in adjacent rows, so format each of them once here
    zz = np.array(output.format_column(hist.z), dtype=object)
    output.write_csv(os.path.join(outdir, f"{name}.csv"),
                     {"t": np.repeat(hist.times, hist.z.size),
                      "z": np.tile(zz, hist.times.size),
                      "v": hist.snapshots.reshape(-1)},
                     {"representation": hist.representation,
                      "speed": hist.speed.kind, "n": hist.speed.n,
                      **(extra_meta or {})})


def compute_flow(sp, o):
    """The `flow` run: (manifest, history)."""
    preset, delta, t_end, r0 = o.preset, o.delta, o.t_end, o.r0
    if o.stride < 0:
        raise ValueError(f"stride must be >= 0, got {o.stride}")
    z_lo, z_hi = (-5.0, 5.0) if preset == "cylinder" else (5.0, 25.0)
    if preset == "bowl-translation" and t_end >= 2.0 * z_lo:
        raise ValueError(f"t-end = {t_end:g} must be < {2.0 * z_lo:g}: the "
                         "bowl's tip rises by t/2 and reaches the lower end "
                         f"of the window [{z_lo:g}, {z_hi:g}] at t = "
                         f"{2.0 * z_lo:g}")
    per_unit = (FLOW_STEPS_PER_UNIT if preset == "cylinder"
                else TRANSLATION_STEPS_PER_UNIT)
    dt, nsteps = (step_plan(sp, delta, t_end) if o.scheme == "rk2" else
                  _ros3p_plan("t_end", t_end, per_unit))
    if preset == "cylinder":
        t_vanish = require_positive("r0", r0) ** 2 / (2.0 * sp.F01)
        if not t_vanish > t_end:
            raise ValueError(f"r0 = {r0:g}: the cylinder vanishes at t = "
                             f"{t_vanish:.6g}, before t-end = {t_end:g}")
        ref = shrinking_cylinder_reference(sp, r0)
        target = math.sqrt(r0 ** 2 - 2.0 * sp.F01 * t_end)
    else:  # bowl-translation
        bowl = solitons.solve_bowl(sp, rho_max=60.0, tol=1e-10)
        ref = translating_bowl_reference(bowl)
        target = 0.5
    st = state_from_reference(sp, ref, z_lo, z_hi, delta)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    hist = run_flow(st, dt, nsteps, bc=bc, scheme=o.scheme,
                    record_every=o.stride or None)
    manifest = {"speed": sp.to_config(), "preset": preset,
                "grid": {"z_lo": float(st.z[0]), "z_hi": float(st.z[-1]),
                         "delta": delta},
                "scheme": o.scheme, "dt": dt, "nsteps": nsteps,
                "boundary": "dirichlet-reference", "seed": None}
    if preset == "cylinder":
        err = float(np.max(np.abs(hist.final_state.values - target)))
        manifest["final_error"] = err
        manifest["exact_radius"] = target
        ok = err <= 1e-6
    else:
        level = float(st.values[st.values.size // 2])
        res = translation_speed(hist, level)
        manifest["translation"] = res
        manifest["target_speed"] = target
        ok = abs(res["speed"] - target) <= 1e-3
    manifest["pass"] = ok
    return manifest, hist


def write_flow(sp, o, outdir, manifest, hist):
    _write_history(outdir, "flow", hist, {"preset": o.preset})
    output.write_json(os.path.join(outdir, "flow_manifest.json"), manifest)
    output.write_plot_script(os.path.join(outdir, "flow.gp"), "flow.csv",
                             "z", ["v"], f"flow: {o.preset}")
    return (f"flow[{o.preset}]: {'ok' if manifest['pass'] else 'FAIL'} "
            f"({manifest.get('final_error', manifest.get('translation'))})")


def _rescaled_seed(mode, amp, sp, z):
    """The seeded rescaled state on the grid z; its radius must be > 0."""
    sigma = cylinder_radius(sp)
    k = re.fullmatch(r"k=?(\d+)", mode)
    if mode == "cylinder":
        v = sigma + 0.0 * z
    elif k:
        v = sigma + amp * spectral.eigenfunction(sp.a_lin, int(k[1]), z)
    elif mode == "monotone":
        v = sigma - amp * erf(z / (2.0 * math.sqrt(sp.a_lin)))
    else:
        raise ValueError(f"unknown seed mode {mode!r}")
    if v.min() <= 0.0:
        raise ValueError(f"seed-mode {mode} with amp = {amp:g} gives a non-"
                         f"positive radius at z = {z[v <= 0.0][0]:.6g}")
    return RadialFlowState("rescaled", z, v, 0.0, sp)


def _seeded_run(sp, o, window, delta, span_name, span, record_every):
    """The frozen-boundary ROS3P run of `rescaled` and `spectral` over span
    units of tau: (the manifest keys the two commands share, history)."""
    dt, nsteps = _ros3p_plan(span_name, span, RESCALED_STEPS_PER_UNIT)
    require_finite("amp", o.amp)
    st = _rescaled_seed(o.seed_mode, o.amp, sp,
                        uniform_grid(-window, window, delta))
    hist = run_flow(st, dt, nsteps, bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit", record_every=record_every)
    return {"speed": sp.to_config(), "seed_mode": o.seed_mode, "amp": o.amp,
            "scheme": hist.scheme, "dt": dt, "nsteps": nsteps,
            "seed": None}, hist


def compute_rescaled(sp, o):
    """The `rescaled` run: (manifest, history)."""
    for name, value in (("window", o.window), ("measure-l", o.measure_l)):
        require_positive(name, value)
    manifest, hist = _seeded_run(sp, o, o.window, o.delta, "tau-end",
                                 o.tau_end, record_every=None)
    manifest |= {"grid": {"z_lo": float(hist.z[0]),
                          "z_hi": float(hist.z[-1]), "delta": o.delta},
                 "tau_end": o.tau_end, "boundary": "frozen"}
    if o.seed_mode == "cylinder":
        manifest["max_drift"] = float(
            np.max(np.abs(hist.snapshots - cylinder_radius(sp))))
        ok = manifest["max_drift"] <= 1e-12
    elif o.tau_end >= fits.MIN_DECAY_SPAN:
        res = manifest["decay"] = fits.measure_rescaled_decay(
            hist, L=o.measure_l)
        ok = res["fixed_point"] or res["slope"] is not None
    else:
        manifest["sup_growth_rate"] = fits.sup_growth_fit(
            hist, L=o.measure_l)["slope"]
        ok = True
    manifest["pass"] = ok
    return manifest, hist


def write_rescaled(sp, o, outdir, manifest, hist):
    _write_history(outdir, "rescaled", hist, {"seed_mode": o.seed_mode})
    output.write_json(os.path.join(outdir, "rescaled_manifest.json"),
                      manifest)
    output.write_plot_script(os.path.join(outdir, "rescaled.gp"),
                             "rescaled.csv", "z", ["v"],
                             f"rescaled flow: {o.seed_mode}")
    return f"rescaled[{o.seed_mode}]: {'ok' if manifest['pass'] else 'FAIL'}"


def compute_spectral(sp, o):
    """The `spectral` run: (manifest, eigenvalue table, mode trace)."""
    if o.windows < SPECTRAL_MIN_WINDOWS:
        raise ValueError(f"windows must be >= {SPECTRAL_MIN_WINDOWS}, "
                         f"got {o.windows}")
    require_positive("r", o.r)
    require_positive("l", o.l)
    if o.kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {o.kmax}")
    if o.quad_order < 2 * o.kmax + 2:
        raise ValueError(f"quad-order must be >= 2 kmax + 2 = {2 * o.kmax + 2}"
                         f" for kmax = {o.kmax}, got {o.quad_order}")
    manifest, hist = _seeded_run(sp, o, 18.0, 0.06, "windows", o.windows + 1,
                                 record_every=1)
    basis = spectral.build_basis(sp.a_lin, K=o.kmax, quad_order=o.quad_order)
    trace = spectral.gamma_trace_from_run(hist, basis, r=o.r, L=o.l)
    manifest |= {"windows": o.windows, "r": o.r, "L": o.l,
                 "sandwich_constant": trace.sandwich_constant,
                 "verdict": spectral.merle_zaag_classifier(trace),
                 "pass": True}
    return manifest, spectral.eigen_table(sp.n, 6, 6), trace


def write_spectral(sp, o, outdir, manifest, table, trace):
    output.write_csv(os.path.join(outdir, "eigen_table.csv"),
                     {"k": np.repeat(np.arange(7), 7),
                      "l": np.tile(np.arange(7), 7),
                      "mu": table.reshape(-1)},
                     {"n": sp.n})
    output.write_csv(os.path.join(outdir, "gamma_trace.csv"),
                     {"window": trace.windows, "gamma": trace.gamma,
                      "gamma_plus": trace.gamma_plus,
                      "gamma_zero": trace.gamma_zero,
                      "gamma_minus": trace.gamma_minus,
                      "Gamma_plus": trace.Gamma_plus,
                      "Gamma_zero": trace.Gamma_zero,
                      "Gamma_minus": trace.Gamma_minus,
                      "delta": trace.delta},
                     {"r": o.r, "L": o.l, "seed_mode": o.seed_mode})
    output.write_json(os.path.join(outdir, "spectral_manifest.json"),
                      manifest)
    output.write_plot_script(os.path.join(outdir, "gamma_trace.gp"),
                             "gamma_trace.csv", "window",
                             ["Gamma_plus", "Gamma_zero", "Gamma_minus"],
                             "mode traces", logy=True)
    return f"spectral[{o.seed_mode}]: verdict {manifest['verdict']['verdict']}"


def _only_ids(text, known):
    """The criterion ids ``verify --only`` lists: each one known, none twice;
    a ValueError names the first item that is not."""
    ids = []
    for item in text.split(","):
        cid = int(item) if item.strip().isdecimal() else None
        problem = ("empty item" if not item.strip() else
                   "unknown id" if cid not in known else
                   "repeated id" if cid in ids else None)
        if problem:
            raise ValueError(f"--only: {problem} {item!r} (known ids: "
                             f"{', '.join(map(str, known))})")
        ids.append(cid)
    return ids


def cmd_verify(args) -> int:
    # imported here: no other command needs the criteria or their modules
    from . import acceptance
    only = (None if args.only is None else
            _only_ids(args.only, acceptance.criteria_ids()))
    results = acceptance.run_all(only=only)
    ok = all(r.passed for r in results)
    rows = [{"id": r.cid, "title": r.title, "pass": r.passed,
             "measured": r.measured, "target": r.target,
             "tolerance": r.tolerance, "provenance": r.provenance,
             "runtime_s": r.runtime, "cache_hits": r.cache_hits}
            for r in results]
    if args.json:
        payload = [{**row, "details": r.details}
                   for row, r in zip(rows, results)]
        print(json.dumps(output._sanitize(payload), indent=2,
                         sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print(f"verify: {sum(r.passed for r in results)}/{len(results)} "
              f"criteria passed")
    if args.outdir:
        outdir = output.output_dir(args.outdir)
        output.write_json(os.path.join(outdir, "verify.json"), rows)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="gflowlab",
        description="numerical laboratory for rotationally symmetric "
                    "fully nonlinear curvature flows")
    ap.add_argument("--outdir", "-o", default=None,
                    help="output directory (default $GFLOWLAB_OUTDIR or ./out)")
    ap.add_argument("--config", default=None, help="JSON config file")
    sub = ap.add_subparsers(dest="command", required=True)

    # each command's compute step, and the step that writes what it returns
    # and returns the line main prints
    for name, help_text, run, write in (
            ("bowl", "solve the translating bowl profile", compute_bowl,
             write_bowl),
            ("shrinker", "solve self-shrinking cap profiles",
             compute_shrinker, write_shrinker),
            ("flow", "time-step the radial graph flow", compute_flow,
             write_flow),
            ("rescaled", "time-step the rescaled flow", compute_rescaled,
             write_rescaled),
            ("spectral", "mode traces of a seeded run", compute_spectral,
             write_spectral)):
        p = sub.add_parser(name, help=help_text)
        for opt in OPTIONS["speed"] + OPTIONS[name]:
            kwargs = ({"action": "store_true"} if opt.type is bool else
                      {"type": opt.type, "choices": opt.choices})
            p.add_argument(f"--{opt.name}", default=None, **kwargs,
                           help=f"{opt.help} (default: {opt.default})")
        p.set_defaults(run=run, write=write)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion ids")
    return ap


def _command(args, cfg):
    """(speed, options) of a parsed command line under the config ``cfg``."""
    o = _options(args, cfg, args.command)
    speed = _options(args, cfg, "speed")
    return SpeedFunction(speed.speed, speed.n, speed.k), o


def compute(argv):
    """What the command line ``argv`` (any command but `verify`) computes,
    read as ``main`` reads it (no config file): its manifest and the
    objects its files are written from.  Writes no file."""
    args = build_parser().parse_args(argv)
    return args.run(*_command(args, {}))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else {}
        if args.command == "verify":
            return cmd_verify(args)
        sp, o = _command(args, cfg)
        outdir = output.output_dir(args.outdir)
        run = args.run(sp, o)
        print(args.write(sp, o, outdir, *run))
        return 0 if run[0]["pass"] else 1
    except (GFlowError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
