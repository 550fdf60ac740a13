"""Command-line interface.

Subcommands: bowl, shrinker, flow, rescaled, spectral, verify.  Options can
come from a JSON config file (--config); explicit flags win over the file.
Outputs are CSV tables plus a JSON manifest per run, written to --outdir
(or $GFLOWLAB_OUTDIR, default ./out); identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.special import erf

from . import acceptance, fits, flow, output, solitons, spectral
from .errors import GFlowError
from .flow import (BoundaryCondition, RadialFlowState, run_flow,
                   cylinder_radius, shrinking_cylinder_reference,
                   state_from_reference, step_plan,
                   translating_bowl_reference, translation_speed)
from .speeds import SpeedFunction

# steps of the linearly implicit (ROS2) runs of `rescaled` and `spectral`:
# one per recorded snapshot
RESCALED_STEPS = 100
SPECTRAL_STEPS_PER_UNIT = 8


def parse_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def serialize_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


def _opt(args, cfg, section, name, default):
    """Resolution order: explicit flag > config file > default."""
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    return cfg.get(section, {}).get(name, default)


def _speed_from(args, cfg) -> SpeedFunction:
    kind = _opt(args, cfg, "speed", "speed", "sum")
    n = int(_opt(args, cfg, "speed", "n", 3))
    k = _opt(args, cfg, "speed", "k", None)
    return SpeedFunction(kind, n, None if k is None else int(k))


def cmd_bowl(args, cfg) -> int:
    sp = _speed_from(args, cfg)
    rho_max = float(_opt(args, cfg, "bowl", "rho-max", 1000.0))
    tol = float(_opt(args, cfg, "bowl", "tol", 1e-10))
    fit_lo = float(_opt(args, cfg, "bowl", "fit-lo", 100.0))
    fit_hi = float(_opt(args, cfg, "bowl", "fit-hi", min(1000.0, rho_max)))
    outdir = output.output_dir(args.outdir)

    bowl = solitons.solve_bowl(sp, rho_max=rho_max, tol=tol)
    meta = {"speed": sp.kind, "n": sp.n, "k": sp.k if sp.k else "",
            "a": "inf", "theta": "", "tol": tol}
    csv_path = os.path.join(outdir, "bowl.csv")
    output.write_csv(csv_path, {
        "rho": bowl.rho[1:], "psi": bowl.zeta[1:],
        "psi_rho": bowl.zeta_rho[1:], "Lambda": bowl.monitor.Lambda,
        "B": bowl.monitor.B}, meta)
    output.write_plot_script(os.path.join(outdir, "bowl.gp"), "bowl.csv",
                             "rho", ["psi", "psi_rho"], "bowl profile")

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
    if fit_hi >= 10 * fit_lo >= 100 and fit_hi <= rho_max:
        fit = fits.fit_bowl_expansion(bowl, (fit_lo, fit_hi))
        report["fit"] = fit.to_dict()
        ok = ok and fit.meta["relative_gap"] <= 0.05
        output.write_csv(os.path.join(outdir, "bowl_fit.csv"), {
            "window_lo": [fit_lo], "window_hi": [fit_hi],
            "c2": [fit.coefficients["c2"]],
            "c2_target": [fit.targets["c2"]],
            "residual": [fit.residual]},
            {"speed": sp.kind, "n": sp.n,
             "provenance": fit.targets["provenance"]})
    report["pass"] = ok
    output.write_json(os.path.join(outdir, "bowl_fit.json"), report)
    print(f"bowl: tip {bowl.tip_curvature:.8g}, "
          f"residual {report['residual_max']:.2e} -> "
          f"{'ok' if ok else 'FAIL'} ({csv_path})")
    return 0 if ok else 1


def cmd_shrinker(args, cfg) -> int:
    sp = _speed_from(args, cfg)
    a_list = _opt(args, cfg, "shrinker", "a", "25,50,100")
    if isinstance(a_list, str):
        a_list = [float(x) for x in a_list.split(",")]
    theta = float(_opt(args, cfg, "shrinker", "theta", 0.9))
    tol = float(_opt(args, cfg, "shrinker", "tol", 1e-8))
    m_knob = float(_opt(args, cfg, "shrinker", "m-knob", 50.0))
    bound_l = float(_opt(args, cfg, "shrinker", "bound-l", 15.0))
    check_bounds = bool(getattr(args, "check_bounds", False)
                        or cfg.get("shrinker", {}).get("check-bounds", False))
    outdir = output.output_dir(args.outdir)

    profiles = []
    ok = True
    rows = []
    for a in a_list:
        prof = solitons.solve_shrinker(sp, a, theta=theta, tol=tol, M=m_knob)
        profiles.append(prof)
        meta = {"speed": sp.kind, "n": sp.n, "k": sp.k if sp.k else "",
                "a": a, "theta": theta, "tol": tol}
        tag = f"{a:g}".replace(".", "p")
        output.write_csv(os.path.join(outdir, f"shrinker_a{tag}_rho.csv"),
                         {"rho": prof.rho, "psi": prof.psi,
                          "psi_rho": prof.psi_rho,
                          "Lambda": prof.monitor.Lambda, "B": prof.monitor.B},
                         meta)
        output.write_csv(os.path.join(outdir, f"shrinker_a{tag}_z.csv"),
                         {"z": prof.z, "v": prof.v, "v_z": prof.v_z,
                          "w": prof.w}, meta)
        diag = solitons.shrinker_w_diagnostic(prof)
        margin = prof.lower_bound_margin()
        row = {"a": a, "cauchy_gap": prof.cauchy_gap,
               "tip_curvature": prof.tip_curvature,
               "w_min": float(np.min(diag.w)), "w_lower_ok": diag.lower_ok,
               "w_tip": diag.tip_limit, "w_tip_target": diag.tip_target,
               "w_bar_holds": prof.w_bar_holds, "z_Ma": prof.z_Ma,
               "lower_bound_min_margin": float(np.min(margin)),
               "lower_bound_violations": int(np.sum(margin < 0))}
        rows.append(row)
        ok = ok and diag.lower_ok and row["lower_bound_violations"] == 0
    report = {"speed": sp.to_config(), "theta": theta, "tol": tol,
              "rows": rows}
    if check_bounds:
        sweep = fits.fit_shrinker_neck(profiles, L=bound_l)
        report["bounds"] = sweep
        ok = ok and sweep["lower_ok"] and sweep["upper"]["stable"]
    report["pass"] = ok
    output.write_json(os.path.join(outdir, "shrinker_report.json"), report)
    output.write_plot_script(os.path.join(outdir, "shrinker.gp"),
                             f"shrinker_a{f'{a_list[-1]:g}'.replace('.', 'p')}_z.csv",
                             "z", ["v", "w"], "shrinker profile")
    print(f"shrinker: a = {a_list} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _write_history(outdir, name, hist, extra_meta=None):
    times = np.repeat(hist.times, hist.z.size)
    zz = np.tile(hist.z, hist.times.size)
    vals = hist.snapshots.reshape(-1)
    output.write_csv(os.path.join(outdir, f"{name}.csv"),
                     {"t": times, "z": zz, "v": vals},
                     {"representation": hist.representation,
                      "speed": hist.speed.kind, "n": hist.speed.n,
                      **(extra_meta or {})})


def cmd_flow(args, cfg) -> int:
    sp = _speed_from(args, cfg)
    preset = _opt(args, cfg, "flow", "preset", "cylinder")
    delta = float(_opt(args, cfg, "flow", "delta", 0.05))
    t_end = float(_opt(args, cfg, "flow", "t-end", 0.25))
    safety = float(_opt(args, cfg, "flow", "safety", 0.4))
    scheme = _opt(args, cfg, "flow", "scheme", "rk2")
    r0 = float(_opt(args, cfg, "flow", "r0", 2.0))
    stride = int(_opt(args, cfg, "flow", "stride", 0))
    outdir = output.output_dir(args.outdir)

    if preset == "cylinder":
        ref = shrinking_cylinder_reference(sp, r0)
        st = state_from_reference(sp, ref, -5.0, 5.0, delta)
        target = math.sqrt(r0 ** 2 - 2.0 * sp.F01 * t_end)
    elif preset == "bowl-translation":
        bowl = solitons.solve_bowl(sp, rho_max=60.0, tol=1e-10)
        ref = translating_bowl_reference(bowl, tip_speed=0.5)
        st = state_from_reference(sp, ref, 5.0, 25.0, delta)
        target = 0.5
    else:
        raise ValueError(f"unknown flow preset {preset!r}")
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt, nsteps = step_plan(sp, delta, t_end, safety)
    hist = run_flow(st, dt, nsteps, bc=bc, scheme=scheme, cfl_safety=safety,
                    record_every=stride or max(1, nsteps // 50))
    manifest = {"speed": sp.to_config(), "preset": preset,
                "grid": {"z_lo": float(st.z[0]), "z_hi": float(st.z[-1]),
                         "delta": delta},
                "scheme": scheme, "dt": dt, "nsteps": nsteps,
                "cfl_safety": safety, "boundary": "dirichlet-reference",
                "seed": None}
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
    _write_history(outdir, "flow", hist, {"preset": preset})
    output.write_json(os.path.join(outdir, "flow_manifest.json"), manifest)
    output.write_plot_script(os.path.join(outdir, "flow.gp"), "flow.csv",
                             "z", ["v"], f"flow: {preset}")
    print(f"flow[{preset}]: {'ok' if ok else 'FAIL'} "
          f"({manifest.get('final_error', manifest.get('translation'))})")
    return 0 if ok else 1


def _rescaled_seed(mode, amp, sp, basis, z):
    sigma = cylinder_radius(sp)
    if mode == "cylinder":
        return sigma + 0.0 * z
    if mode.startswith("k=") or (mode.startswith("k") and mode[1:].isdigit()):
        k = int(mode.lstrip("k=").lstrip("k") or mode[-1])
        return sigma + amp * basis.value(k, z)
    if mode == "monotone":
        return sigma - amp * erf(z / (2.0 * math.sqrt(sp.a_lin)))
    raise ValueError(f"unknown seed mode {mode!r}")


def cmd_rescaled(args, cfg) -> int:
    sp = _speed_from(args, cfg)
    seed_mode = _opt(args, cfg, "rescaled", "seed-mode", "k1")
    amp = float(_opt(args, cfg, "rescaled", "amp", 1e-4))
    tau_end = float(_opt(args, cfg, "rescaled", "tau-end", 1.0))
    delta = float(_opt(args, cfg, "rescaled", "delta", 0.05))
    window = float(_opt(args, cfg, "rescaled", "window", 14.0))
    measure_l = float(_opt(args, cfg, "rescaled", "measure-l", 4.0))
    outdir = output.output_dir(args.outdir)

    basis = spectral.build_basis(sp.a_lin, K=8, quad_order=80)
    n = int(round(2 * window / delta)) + 1
    z = np.linspace(-window, window, n)
    st = RadialFlowState("rescaled", z, _rescaled_seed(seed_mode, amp, sp,
                                                       basis, z), 0.0, sp)
    nsteps = RESCALED_STEPS
    dt = tau_end / nsteps
    hist = run_flow(st, dt, nsteps, bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit", record_every=1)
    manifest = {"speed": sp.to_config(), "seed_mode": seed_mode, "amp": amp,
                "grid": {"window": window, "delta": delta},
                "scheme": hist.scheme, "dt": dt, "nsteps": nsteps,
                "tau_end": tau_end, "boundary": "frozen", "seed": None}
    if seed_mode == "cylinder":
        manifest["max_drift"] = float(
            np.max(np.abs(hist.snapshots - cylinder_radius(sp))))
        ok = manifest["max_drift"] <= 1e-12
    elif tau_end >= 6.0:
        res = fits.measure_rescaled_decay(hist, L=measure_l)
        manifest["decay"] = res
        ok = res["fixed_point"] or res["slope"] is not None
    else:
        sigma = cylinder_radius(sp)
        sup = hist.sup_deviation(sigma, window=measure_l)
        slope = float(np.polyfit(hist.times, np.log(np.maximum(sup, 1e-300)),
                                 1)[0])
        manifest["sup_growth_rate"] = slope
        ok = True
    manifest["pass"] = ok
    _write_history(outdir, "rescaled", hist, {"seed_mode": seed_mode})
    output.write_json(os.path.join(outdir, "rescaled_manifest.json"),
                      manifest)
    output.write_plot_script(os.path.join(outdir, "rescaled.gp"),
                             "rescaled.csv", "z", ["v"],
                             f"rescaled flow: {seed_mode}")
    print(f"rescaled[{seed_mode}]: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_spectral(args, cfg) -> int:
    sp = _speed_from(args, cfg)
    seed_mode = _opt(args, cfg, "spectral", "seed-mode", "k=2")
    windows = int(_opt(args, cfg, "spectral", "windows", 10))
    r_exp = float(_opt(args, cfg, "spectral", "r", 0.3))
    big_l = float(_opt(args, cfg, "spectral", "l", 10.0))
    amp = float(_opt(args, cfg, "spectral", "amp", 1e-4))
    kmax = int(_opt(args, cfg, "spectral", "kmax", 10))
    quad_order = int(_opt(args, cfg, "spectral", "quad-order", 90))
    outdir = output.output_dir(args.outdir)

    basis = spectral.build_basis(sp.a_lin, K=kmax, quad_order=quad_order)
    table = spectral.eigen_table(sp.n, 6, 6)
    output.write_csv(os.path.join(outdir, "eigen_table.csv"),
                     {"k": np.repeat(np.arange(7), 7),
                      "l": np.tile(np.arange(7), 7),
                      "mu": table.reshape(-1)},
                     {"n": sp.n})

    delta = 0.06
    n = int(round(36.0 / delta)) + 1
    z = np.linspace(-18.0, 18.0, n)
    st = RadialFlowState("rescaled", z,
                         _rescaled_seed(seed_mode, amp, sp, basis, z),
                         0.0, sp)
    tau_end = float(windows + 1)
    nsteps = int(SPECTRAL_STEPS_PER_UNIT * tau_end)
    dt = tau_end / nsteps
    hist = run_flow(st, dt, nsteps, bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit", record_every=1)
    trace = spectral.gamma_trace_from_run(hist, basis, r=r_exp, L=big_l)
    verdict = spectral.merle_zaag_classifier(trace)
    output.write_csv(os.path.join(outdir, "gamma_trace.csv"),
                     {"window": trace.windows, "gamma": trace.gamma,
                      "gamma_plus": trace.gamma_plus,
                      "gamma_zero": trace.gamma_zero,
                      "gamma_minus": trace.gamma_minus,
                      "Gamma_plus": trace.Gamma_plus,
                      "Gamma_zero": trace.Gamma_zero,
                      "Gamma_minus": trace.Gamma_minus,
                      "delta": trace.delta},
                     {"r": r_exp, "L": big_l, "seed_mode": seed_mode})
    manifest = {"speed": sp.to_config(), "seed_mode": seed_mode,
                "windows": windows, "r": r_exp, "L": big_l, "amp": amp,
                "sandwich_constant": trace.sandwich_constant,
                "scheme": hist.scheme, "dt": dt, "nsteps": nsteps,
                "verdict": verdict, "seed": None, "pass": True}
    output.write_json(os.path.join(outdir, "spectral_manifest.json"),
                      manifest)
    output.write_plot_script(os.path.join(outdir, "gamma_trace.gp"),
                             "gamma_trace.csv", "window",
                             ["Gamma_plus", "Gamma_zero", "Gamma_minus"],
                             "mode traces", logy=True)
    print(f"spectral[{seed_mode}]: verdict {verdict['verdict']}")
    return 0


def cmd_verify(args, cfg) -> int:
    only = None
    if args.only:
        only = [int(x) for x in args.only.split(",")]
    results = acceptance.run_all(only=only)
    ok = all(r.passed for r in results)
    if args.json:
        payload = [{"id": r.cid, "title": r.title, "pass": r.passed,
                    "measured": r.measured, "target": r.target,
                    "tolerance": r.tolerance, "provenance": r.provenance,
                    "runtime_s": r.runtime, "details": r.details}
                   for r in results]
        print(json.dumps(output._sanitize(payload), indent=2,
                         sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print(f"verify: {sum(r.passed for r in results)}/{len(results)} "
              f"criteria passed")
    if args.outdir:
        outdir = output.output_dir(args.outdir)
        output.write_json(os.path.join(outdir, "verify.json"),
                          [{"id": r.cid, "title": r.title, "pass": r.passed,
                            "measured": r.measured, "target": r.target,
                            "tolerance": r.tolerance,
                            "provenance": r.provenance,
                            "runtime_s": r.runtime} for r in results])
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gflowlab",
        description="numerical laboratory for rotationally symmetric "
                    "fully nonlinear curvature flows")
    ap.add_argument("--outdir", "-o", default=None,
                    help="output directory (default $GFLOWLAB_OUTDIR or ./out)")
    ap.add_argument("--config", default=None, help="JSON config file")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_speed(p):
        p.add_argument("--speed", default=None,
                       choices=["sum", "bh", "sigma_ratio"])
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("bowl", help="solve the translating bowl profile")
    add_speed(p)
    p.add_argument("--rho-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--fit-lo", type=float, default=None)
    p.add_argument("--fit-hi", type=float, default=None)
    p.set_defaults(fn=cmd_bowl)

    p = sub.add_parser("shrinker", help="solve self-shrinking cap profiles")
    add_speed(p)
    p.add_argument("--a", default=None, help="comma-separated parameters")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--m-knob", type=float, default=None)
    p.add_argument("--bound-l", type=float, default=None)
    p.add_argument("--check-bounds", action="store_true")
    p.set_defaults(fn=cmd_shrinker)

    p = sub.add_parser("flow", help="time-step the radial graph flow")
    add_speed(p)
    p.add_argument("--preset", default=None,
                   choices=["cylinder", "bowl-translation"])
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--safety", type=float, default=None)
    p.add_argument("--scheme", default=None,
                   choices=["rk2", "semi_implicit"])
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("rescaled", help="time-step the rescaled flow")
    add_speed(p)
    p.add_argument("--seed-mode", default=None)
    p.add_argument("--amp", type=float, default=None)
    p.add_argument("--tau-end", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--measure-l", type=float, default=None)
    p.set_defaults(fn=cmd_rescaled)

    p = sub.add_parser("spectral", help="mode traces of a seeded run")
    add_speed(p)
    p.add_argument("--seed-mode", default=None)
    p.add_argument("--windows", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--amp", type=float, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--quad-order", type=int, default=None)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion ids")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = parse_config(args.config) if args.config else {}
    try:
        return args.fn(args, cfg)
    except (GFlowError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
