"""CLI surface: subcommands, exit codes, file formats, determinism, input
errors, and the positional contract of the benchmark's tracer."""

import builtins
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gflowlab
from gflowlab import acceptance, cli, errors, fits, flow, output
from gflowlab.cli import (OPTIONS, float_list, _options, build_parser,
                          main, parse_config)
from gflowlab.output import read_csv


def _run(tmp_path, *argv):
    return main(["-o", str(tmp_path), *argv])


def test_bowl_command(tmp_path):
    code = _run(tmp_path, "bowl", "--speed", "sum", "--n", "3",
                "--rho-max", "200", "--fit-lo", "15", "--fit-hi", "150")
    assert code == 0
    data, meta = read_csv(tmp_path / "bowl.csv")
    assert set(data) == {"rho", "psi", "psi_rho", "Lambda", "B"}
    assert meta["speed"] == "sum"
    report = json.loads((tmp_path / "bowl_fit.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "bowl.gp").exists()


def test_bowl_output_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        assert main(["-o", str(d), "bowl", "--rho-max", "50"]) == 0
    assert (a / "bowl.csv").read_bytes() == (b / "bowl.csv").read_bytes()
    assert (a / "bowl_fit.json").read_bytes() == \
        (b / "bowl_fit.json").read_bytes()


def test_bowl_far_tail_passes(tmp_path):
    # bh n=3 to rho = 3000 passes the residual gate of 10, which a residual
    # whose rounding floor grows like rho^2 does not; the output holds one
    # row per solver step
    assert _run(tmp_path, "bowl", "--speed", "bh", "--rho-max", "3000") == 0
    report = json.loads((tmp_path / "bowl_fit.json").read_text())
    assert report["residual_max"] <= 10.0
    data, _ = read_csv(tmp_path / "bowl.csv")
    assert len(data["rho"]) < 4000


def test_bowl_rejects_degenerate_speed(tmp_path, capsys):
    code = _run(tmp_path, "bowl", "--speed", "bh", "--n", "2")
    assert code == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConeViolation"


def test_shrinker_command(tmp_path):
    code = _run(tmp_path, "shrinker", "--a", "25,50", "--check-bounds",
                "--bound-l", "12")
    assert code == 0
    zdata, meta = read_csv(tmp_path / "shrinker_a50_z.csv")
    assert set(zdata) == {"z", "v", "v_z", "w"}
    assert float(meta["a"]) == 50.0
    assert float(meta["theta"]) == 0.9
    report = json.loads((tmp_path / "shrinker_report.json").read_text())
    assert report["pass"] is True
    assert all(row["lower_bound_violations"] == 0 for row in report["rows"])
    assert set(report["bounds"]) == {"upper"}


def test_flow_cylinder_preset(tmp_path):
    code = _run(tmp_path, "flow", "--preset", "cylinder",
                "--t-end", "0.25", "--delta", "0.05")
    assert code == 0
    manifest = json.loads((tmp_path / "flow_manifest.json").read_text())
    assert manifest["final_error"] <= 1e-6
    data, meta = read_csv(tmp_path / "flow.csv")
    assert set(data) == {"t", "z", "v"}


def test_flow_stride_ends_on_the_final_state(tmp_path):
    # --stride 3 does not divide the 80 steps: the last row and the
    # final error still come from t-end
    code = _run(tmp_path, "flow", "--preset", "cylinder", "--stride", "3")
    assert code == 0
    manifest = json.loads((tmp_path / "flow_manifest.json").read_text())
    assert manifest["final_error"] <= 1e-6
    data, _ = read_csv(tmp_path / "flow.csv")
    assert float(data["t"][-1]) == 0.25


def test_flow_default_is_linearly_implicit(tmp_path):
    # 320 ROS3P steps per time unit, at most 50 records after the first
    code = _run(tmp_path, "flow", "--preset", "cylinder")
    assert code == 0
    manifest = json.loads((tmp_path / "flow_manifest.json").read_text())
    assert manifest["scheme"] == "semi_implicit"
    assert manifest["nsteps"] == 80
    assert "cfl_safety" not in manifest
    assert manifest["final_error"] <= 1e-7
    data, _ = read_csv(tmp_path / "flow.csv")
    times = sorted(set(data["t"]), key=float)
    assert len(times) <= 51
    assert float(times[-1]) == 0.25


_FAMILIES = {"sum3": ("sum", 3, None), "bh3": ("bh", 3, None),
             "sigma_ratio42": ("sigma_ratio", 4, 2)}


def _label(manifest):
    return gflowlab.SpeedFunction(**manifest["speed"]).label()


def _bowl_tail(m):
    return {"c2": m["fit"]["coefficients"]["c2"],
            "target": m["fit"]["targets"]["c2"],
            "rel": m["fit"]["meta"]["relative_gap"]}


def _neck(row):
    return {"w_min": row["w_min"], "lower_ok": row["w_lower_ok"],
            "tip": row["w_tip"],
            "tip_rel": abs(row["w_tip"] - row["w_tip_target"])
            / row["w_tip_target"]}


def _translation(m):
    # 40 ROS3P steps per time unit, each recorded, at t-end 1
    assert m["scheme"] == "semi_implicit"
    assert m["nsteps"] == 40
    assert m["dt"] == 0.025
    return m["translation"]


# criterion id -> (manifest file, the CLI runs, that criterion's details read
# off the runs' manifests)
_CRITERION_RUNS = {
    1: ("bowl_fit.json",
        [["bowl", "--speed", kind, "--n", str(n),
          *(["--k", str(k)] if k else []), "--rho-max", "1"]
         for kind, n, k in (("sum", 3, None), ("sum", 4, None),
                            ("bh", 3, None), ("bh", 4, None),
                            ("sigma_ratio", 3, 2), ("sigma_ratio", 4, 2))],
        lambda ms: {_label(m): abs(m["tip_curvature"] - m["tip_target"])
                    / m["tip_target"] for m in ms}),
    2: ("bowl_fit.json",
        [["bowl", "--speed", "sum"], ["bowl", "--speed", "bh"]],
        lambda ms: {_label(m): _bowl_tail(m) for m in ms}),
    3: ("shrinker_report.json", [["shrinker"]],
        lambda ms: {f"a={row['a']:g}":
                    {"min_margin": row["lower_bound_min_margin"],
                     "violations": row["lower_bound_violations"]}
                    for row in ms[0]["rows"]}),
    4: ("shrinker_report.json", [["shrinker"]],
        lambda ms: {f"a={row['a']:g}": _neck(row) for row in ms[0]["rows"]}),
    6: ("flow_manifest.json",
        [["flow", "--scheme", "rk2", "--delta", delta]
         for delta in ("0.1", "0.05", "0.025")],
        lambda ms: {"errors": [m["final_error"] for m in ms]}),
    7: ("flow_manifest.json",
        [["flow", "--preset", "bowl-translation", "--t-end", "1"]],
        lambda ms: _translation(ms[0])),
}


@pytest.mark.parametrize("cid", sorted(_CRITERION_RUNS))
def test_cli_run_is_criterion(tmp_path, cid):
    # each of these commands, at its defaults, is a run that verify
    # certifies: its manifest holds the criterion's details to the last bit
    name, runs, read = _CRITERION_RUNS[cid]
    manifests = []
    for argv in runs:
        assert _run(tmp_path, *argv) == 0
        manifests.append(json.loads((tmp_path / name).read_text()))
    details = json.loads(json.dumps(
        output._sanitize(acceptance.run_criterion(cid).details)))
    assert read(manifests) == details


@pytest.mark.parametrize("argv", [
    ["bowl", "--rho-max", "30"], ["shrinker", "--a", "50"],
    ["flow", "--t-end", "0.01"],
    ["rescaled", "--tau-end", "0.5", "--delta", "0.1", "--window", "10"],
    ["spectral", "--windows", "7"]], ids=lambda argv: argv[0])
def test_compute_is_what_main_writes(tmp_path, argv):
    # cli.compute serves every command: its manifest is the one main writes,
    # to the last bit
    manifest = cli.compute(argv)[0]
    assert _run(tmp_path, *argv) == 0
    name = {"bowl": "bowl_fit", "shrinker": "shrinker_report"}.get(
        argv[0], f"{argv[0]}_manifest")
    assert (json.loads((tmp_path / f"{name}.json").read_text())
            == json.loads(json.dumps(output._sanitize(manifest))))


@pytest.mark.parametrize("family", _FAMILIES)
def test_translation_step_plan_is_accurate(tmp_path, family):
    # the planned steps give the speed of 4x as many, fitted at the same
    # times, within a thousandth of the speed's spatial error
    kind, n, k = _FAMILIES[family]
    assert _run(tmp_path, "flow", "--preset", "bowl-translation",
                "--speed", kind, "--n", str(n),
                *(["--k", str(k)] if k else []), "--t-end", "1") == 0
    m = json.loads((tmp_path / "flow_manifest.json").read_text())

    # the same run at 4x the steps, built as cli.compute_flow builds it
    sp = gflowlab.SpeedFunction(kind, n, k)
    dt, nsteps = cli._ros3p_plan("t_end", 1.0,
                                 4 * flow.TRANSLATION_STEPS_PER_UNIT)
    assert nsteps == 4 * m["nsteps"]
    ref = flow.translating_bowl_reference(
        gflowlab.solve_bowl(sp, rho_max=60.0, tol=1e-10))
    state = flow.state_from_reference(sp, ref, 5.0, 25.0, 0.05)
    bc = gflowlab.BoundaryCondition.from_reference(ref, state.z[0],
                                                   state.z[-1])
    hist = gflowlab.run_flow(state, dt, nsteps, bc=bc,
                             scheme="semi_implicit", record_every=4)
    fine = flow.translation_speed(
        hist, float(state.values[state.values.size // 2]))["speed"]
    assert (abs(m["translation"]["speed"] - fine)
            <= 1e-3 * abs(fine - m["target_speed"]))


def test_rescaled_k2_preset(tmp_path):
    code = _run(tmp_path, "rescaled", "--seed-mode", "k2",
                "--tau-end", "1.0", "--delta", "0.1", "--window", "10")
    assert code == 0
    manifest = json.loads((tmp_path / "rescaled_manifest.json").read_text())
    assert manifest["pass"] is True
    # ceil(8 tau) ROS3P steps, the plan of `spectral` too
    assert manifest["scheme"] == "semi_implicit"
    assert manifest["nsteps"] == math.ceil(8 * 1.0)
    assert manifest["dt"] == 1.0 / manifest["nsteps"]


@pytest.mark.parametrize("seed", [
    ["--seed-mode", "k1", "--tau-end", "1"],
    ["--seed-mode", "monotone", "--amp", "1e-5", "--tau-end", "7"]],
    ids=["k1_rate", "monotone_decay"])
@pytest.mark.parametrize("family", _FAMILIES)
def test_rescaled_step_plan_is_accurate(tmp_path, family, seed):
    # the planned steps give the rate of 4x as many, fitted at the same
    # times, within 0.5%: a tenth of the 5% check on the k1 rate
    kind, n, k = _FAMILIES[family]
    assert _run(tmp_path, "rescaled", "--speed", kind, "--n", str(n),
                *(["--k", str(k)] if k else []), *seed,
                "--delta", "0.1", "--window", "10") == 0
    m = json.loads((tmp_path / "rescaled_manifest.json").read_text())
    rate = m["decay"]["slope"] if "decay" in m else m["sup_growth_rate"]

    # the same run at 4x the steps, built as cli.compute_rescaled builds it
    sp = gflowlab.SpeedFunction(kind, n, k)
    dt, nsteps = cli._ros3p_plan("tau-end", m["tau_end"],
                                 4 * cli.RESCALED_STEPS_PER_UNIT)
    assert nsteps == 4 * m["nsteps"]
    state = cli._rescaled_seed(m["seed_mode"], m["amp"], sp,
                               flow.uniform_grid(-10.0, 10.0, 0.1))
    hist = gflowlab.run_flow(
        state, dt, nsteps, bc=gflowlab.BoundaryCondition(mode="frozen"),
        scheme="semi_implicit", record_every=4 * math.ceil(m["nsteps"] / 50))
    fit = (fits.measure_rescaled_decay if "decay" in m
           else fits.sup_growth_fit)(hist, L=4.0)
    assert abs(rate - fit["slope"]) <= 5e-3 * abs(fit["slope"])


@pytest.mark.parametrize("argv,z_lo", [
    (["rescaled", "--delta", "0.3", "--tau-end", "0.25"], -14.0),
    (["flow", "--preset", "cylinder", "--delta", "0.3"], -5.0)],
    ids=["rescaled", "flow"])
def test_grid_keeps_delta_and_is_reported(tmp_path, argv, z_lo):
    # 0.3 does not divide the span: the spacing stays 0.3, the far end
    # moves, and the manifest records the grid the run wrote
    assert _run(tmp_path, *argv) == 0
    data, _ = read_csv(tmp_path / f"{argv[0]}.csv")
    z = data["z"][data["t"] == data["t"][0]]
    assert z[0] == z_lo
    assert np.max(np.abs(np.diff(z) - 0.3)) <= 1e-12
    grid = json.loads(
        (tmp_path / f"{argv[0]}_manifest.json").read_text())["grid"]
    assert grid == {"z_lo": z[0], "z_hi": z[-1], "delta": 0.3}


def test_spectral_k2_neutral_verdict(tmp_path):
    code = _run(tmp_path, "spectral", "--seed-mode", "k=2",
                "--windows", "8")
    assert code == 0
    manifest = json.loads((tmp_path / "spectral_manifest.json").read_text())
    assert manifest["verdict"]["verdict"] == "neutral-dominated"
    # 8 ROS3P steps per time unit over windows + 1 = 9 units
    assert manifest["scheme"] == "semi_implicit"
    assert manifest["nsteps"] == 72
    assert manifest["dt"] == 9.0 / 72
    trace, meta = read_csv(tmp_path / "gamma_trace.csv")
    assert "Gamma_plus" in trace
    assert (tmp_path / "eigen_table.csv").exists()


def test_verify_subset(tmp_path, capsys):
    code = _run(tmp_path, "verify", "--only", "8,11")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 2
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert [row["id"] for row in payload] == [8, 11]


def test_verify_reports_cache_hits(tmp_path, capsys):
    # criterion 4 takes the shrinker run criterion 3 computed from the cache
    outputs = []
    for flags in ([], ["--json"]):
        acceptance._run.cache_clear()
        assert _run(tmp_path, "verify", "--only", "3,4", *flags) == 0
        outputs.append(capsys.readouterr().out)
        rows = json.loads((tmp_path / "verify.json").read_text())
        assert [row["cache_hits"] for row in rows] == [0, 1]
    lines = outputs[0].splitlines()
    assert "cache hits" not in lines[0]
    assert lines[1].endswith("(1 cache hits)")
    assert [row["cache_hits"] for row in json.loads(outputs[1])] == [0, 1]


@pytest.mark.parametrize("only, problem", [
    ("8,8", "repeated id '8'"), ("6,13", "unknown id '13'"),
    (",8", "empty item ''"), ("", "empty item ''"), ("8,x", "unknown id 'x'"),
])
def test_verify_only_is_checked_before_any_criterion_runs(
        tmp_path, capsys, monkeypatch, only, problem):
    ran = []
    monkeypatch.setattr(acceptance, "run_criterion", ran.append)
    assert _run(tmp_path, "verify", "--only", only) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "ValueError"
    assert error["message"].startswith(f"--only: {problem} ")
    assert error["message"].endswith(
        "(known ids: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)")
    assert ran == []
    assert not (tmp_path / "verify.json").exists()


def test_verify_json_format(tmp_path, capsys):
    code = _run(tmp_path, "verify", "--only", "11", "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["pass"] is True
    assert payload[0]["provenance"] == "oracle"


def test_config_file_and_flag_override(tmp_path):
    cfg = {"speed": {"speed": "sum", "n": 3},
           "bowl": {"rho-max": 50.0, "tol": 1e-8}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "o1"
    out1.mkdir()
    code = main(["-o", str(out1), "--config", str(cfg_path), "bowl"])
    assert code == 0
    _, meta = read_csv(out1 / "bowl.csv")
    assert float(meta["tol"]) == 1e-8
    # flags win over the config file
    out2 = tmp_path / "o2"
    out2.mkdir()
    code = main(["-o", str(out2), "--config", str(cfg_path), "bowl",
                 "--tol", "1e-9"])
    assert code == 0
    _, meta = read_csv(out2 / "bowl.csv")
    assert float(meta["tol"]) == 1e-9


def test_config_round_trip(tmp_path):
    cfg = {"speed": {"speed": "bh", "n": 3},
           "shrinker": {"a": "25,50", "theta": 0.9},
           "spectral": {"windows": 10, "r": 0.3}}
    path = tmp_path / "cfg.json"
    text = json.dumps(cfg, indent=2, sort_keys=True)
    path.write_text(text)
    again = parse_config(str(path))
    assert again == cfg
    assert json.dumps(again, indent=2, sort_keys=True) == text


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GFLOWLAB_OUTDIR", str(tmp_path / "envout"))
    code = main(["bowl", "--rho-max", "30"])
    assert code == 0
    assert (tmp_path / "envout" / "bowl.csv").exists()


def test_rescaled_monotone_decay_preset(tmp_path):
    code = _run(tmp_path, "rescaled", "--seed-mode", "monotone",
                "--amp", "1e-5", "--tau-end", "7.0", "--delta", "0.1",
                "--window", "16")
    assert code == 0
    manifest = json.loads((tmp_path / "rescaled_manifest.json").read_text())
    assert 0.4 <= manifest["decay"]["slope"] <= 0.6


@pytest.mark.parametrize("argv,cause", [
    (["flow", "--delta", "0"], "delta must be finite and positive"),
    (["flow", "--t-end", "0"], "t_end must be finite and positive"),
    (["flow", "--r0", "0.1"], "cylinder vanishes at t = 0.0025"),
    (["flow", "--t-end", "inf"], "t_end must be finite and positive"),
    (["rescaled", "--delta", "0"], "delta must be finite and positive"),
    (["rescaled", "--tau-end", "0"], "tau-end must be finite and positive"),
    (["spectral", "--windows", "-1"], "windows must be >= 7, got -1"),
    (["bowl", "--tol", "0"], "tol must be finite and positive"),
    (["bowl", "--rho-max", "1000", "--fit-hi", "2000"],
     "window end 2000.0 beyond the solved range 1000"),
    (["bowl", "--rho-max", "1000", "--fit-lo", "5", "--fit-hi", "50"],
     "need rho_hi >= 10 rho_lo >= 100"),
    (["rescaled", "--measure-l", "-1"],
     "measure-l must be finite and positive, got -1.0"),
    (["flow", "--stride", "-1"], "stride must be >= 0, got -1"),
    (["shrinker", "--a", "50", "--m-knob", "-5"],
     "m-knob must be finite and positive, got -5.0"),
    (["shrinker", "--a", "3"],
     "a = 3.0 must exceed the neck constant L0 = 5.123"),
    (["spectral", "--r", "nan"], "r must be finite and positive, got nan"),
    (["spectral", "--r", "-1"], "r must be finite and positive, got -1.0"),
    (["spectral", "--l", "-1"], "l must be finite and positive, got -1.0"),
    (["rescaled", "--amp", "nan"], "amp must be finite, got nan"),
    (["rescaled", "--amp", "inf"], "amp must be finite, got inf"),
    (["spectral", "--amp", "nan"], "amp must be finite, got nan"),
    (["spectral", "--kmax", "-1"], "kmax must be >= 0, got -1"),
    (["flow", "--delta", "4"],
     "delta = 4 gives 3 grid nodes over a span of 10; the flow needs >= 5"),
    (["flow", "--preset", "bowl-translation", "--delta", "8"],
     "delta = 8 gives 3 grid nodes over a span of 20; the flow needs >= 5"),
    (["rescaled", "--delta", "20"],
     "delta = 20 gives 2 grid nodes over a span of 28; the flow needs >= 5"),
    (["spectral", "--quad-order", "5"],
     "quad-order must be >= 2 kmax + 2 = 22 for kmax = 10, got 5"),
    (["spectral", "--kmax", "50"],
     "quad-order must be >= 2 kmax + 2 = 102 for kmax = 50, got 90"),
    (["rescaled", "--seed-mode", "k1", "--amp", "2"],
     "seed-mode k1 with amp = 2 gives a non-positive radius at z = -14"),
    (["rescaled", "--seed-mode", "k=2", "--amp", "-3"],
     "seed-mode k=2 with amp = -3 gives a non-positive radius at z = -14"),
    (["spectral", "--seed-mode", "k1", "--amp", "2"],
     "seed-mode k1 with amp = 2 gives a non-positive radius at z = -18"),
    # a run that fails midway, after the eigenvalue table was once written
    (["spectral", "--speed", "bh", "--seed-mode", "k1", "--windows", "7"],
     "step 25 of 64 (t = 3.125): ellipticity lost"),
])
def test_bad_input_names_its_parameter(tmp_path, capsys, argv, cause):
    assert _run(tmp_path, *argv) == 1
    assert list(tmp_path.iterdir()) == []
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # a fit window the profile cannot serve is the fit's own error, and a
    # run that leaves the cone the flow's
    expected = ("WindowTooNarrow" if "--fit-hi" in argv else
                "ConeExit" if "ellipticity lost" in cause else "ValueError")
    assert err["error"] == expected
    assert cause in err["message"]


@pytest.mark.parametrize("bound_l", ["3", "-1"])
def test_neck_bound_below_the_solved_heights_is_named(tmp_path, capsys,
                                                      bound_l):
    # the a = 50 cap is solved down to z_min = L0 = 5.12 (sum n=3): an L
    # below it leaves the upper-bound fit no node to test
    assert _run(tmp_path, "shrinker", "--a", "50", "--check-bounds",
                "--bound-l", bound_l) == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "WindowTooNarrow",
                   "message": f"L = {bound_l} lies below the lowest solved "
                              "height 5.123"}
    assert list(tmp_path.iterdir()) == []


def test_rescaled_fixed_point_has_no_growth_rate(tmp_path):
    # a zero seed stays on the cylinder: there is no slope to report
    assert _run(tmp_path, "rescaled", "--amp", "0", "--tau-end", "1",
                "--delta", "0.1", "--window", "10") == 0
    manifest = json.loads((tmp_path / "rescaled_manifest.json").read_text())
    assert manifest["sup_growth_rate"] is None


def test_spectral_windows_checked_before_the_run(tmp_path, capsys):
    # six windows give a trace of 7, one short of the classifier's 8
    assert _run(tmp_path / "six", "spectral", "--windows", "6") == 1
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": "ValueError",
                   "message": "windows must be >= 7, got 6"}
    assert list((tmp_path / "six").iterdir()) == []
    assert _run(tmp_path / "seven", "spectral", "--windows", "7") == 0
    manifest = json.loads(
        (tmp_path / "seven" / "spectral_manifest.json").read_text())
    assert manifest["nsteps"] == 64


@pytest.mark.parametrize("command", ["rescaled", "spectral"])
@pytest.mark.parametrize("mode", ["k=", "k=-1", "kx"])
def test_unknown_seed_mode_is_named(tmp_path, capsys, command, mode):
    # "k=" once failed inside int() and "k=-1" inside factorial()
    assert _run(tmp_path, command, "--seed-mode", mode) == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": f"unknown seed mode {mode!r}"}


def _run_config(tmp_path, command, text, *flags):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return _run(tmp_path / "out", "--config", str(path), command, *flags)


@pytest.mark.parametrize("command,text,cause", [
    ("flow", '{"flow": {"delta": [0.1]}}',
     "config flow.delta: invalid float value: [0.1]"),
    ("bowl", '{"bowl": 5}', "config bowl: expected a JSON object, got 5"),
    ("shrinker", '{"shrinker": {"check-bounds": "false"}}',
     'config shrinker.check-bounds: invalid bool value: "false"'),
    ("spectral", '{"spectral": {"windows": 2.7}}',
     "config spectral.windows: invalid int value: 2.7"),
    ("bowl", '{"bowl": {"rho_max": 50}}',
     "config bowl.rho_max: unknown option"),
    ("bowl", '{"speed": {"kind": "bh"}}', "config speed.kind: unknown option"),
    ("bowl", '{"bowll": {"rho-max": 30}}',
     "config bowll: unknown section (known: speed, bowl, shrinker, flow, "
     "rescaled, spectral)"),
    ("verify", '{"spectrl": {}}', "config spectrl: unknown section"),
    ("flow", '{"flow": {"scheme": "euler"}}',
     'config flow.scheme: invalid choice: "euler" (choose from '
     'semi_implicit, rk2)'),
    ("bowl", "[1]", "cfg.json: holds no JSON object"),
    ("bowl", "not json", "cfg.json: Expecting value"),
])
def test_bad_config_names_its_key(tmp_path, capsys, command, text, cause):
    assert _run_config(tmp_path, command, text) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert cause in err["message"]


def test_bad_config_value_is_reported_under_its_flag(tmp_path, capsys):
    assert _run_config(tmp_path, "spectral", '{"spectral": {"windows": 2.7}}',
                       "--windows", "8") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["message"].startswith("config spectral.windows: ")


def test_missing_config_names_the_file(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert _run(tmp_path, "--config", str(path), "bowl") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"config file {path}: ")


def test_config_null_is_unset_and_numbers_read_as_flags(tmp_path):
    # a null once reached int() and a bare number was iterated over
    assert _run_config(tmp_path / "bowl", "bowl", json.dumps(
        {"speed": {"n": None, "k": None}, "bowl": {"rho-max": 30}})) == 0
    _, meta = read_csv(tmp_path / "bowl" / "out" / "bowl.csv")
    assert int(meta["n"]) == 3
    assert _run_config(tmp_path / "caps", "shrinker",
                       '{"shrinker": {"a": 50, "check-bounds": false}}') == 0
    report = json.loads(
        (tmp_path / "caps" / "out" / "shrinker_report.json").read_text())
    assert [row["a"] for row in report["rows"]] == [50.0]
    assert "bounds" not in report


# one flag text and the config value that stands for it, per option type
_SAMPLES = {float: ("0.375", 0.375), int: ("7", 7), str: ("k3", "k3"),
            bool: (None, True), float_list: ("25,50", [25, 50])}


def test_flag_and_config_resolve_equal():
    parser = build_parser()
    for section, options in OPTIONS.items():
        command = "bowl" if section == "speed" else section
        unset = _options(parser.parse_args([command]), {}, section)
        for opt in options:
            text, value = _SAMPLES[opt.type]
            if opt.choices:
                text = value = opt.choices[-1]
            argv = [command, f"--{opt.name}"] + ([text] if text else [])
            from_flag = _options(parser.parse_args(argv), {}, section)
            from_config = _options(parser.parse_args([command]),
                                   {section: {opt.name: value}}, section)
            assert from_flag == from_config, (section, opt.name)
            assert from_flag != unset, (section, opt.name)


@pytest.mark.parametrize("argv,cause", [
    (["shrinker", "--a", "nan"], "a must be finite and positive"),
    (["bowl", "--rho-max", "nan"], "rho_max must be finite and positive"),
])
def test_nan_profile_input_rejected_without_hanging(tmp_path, argv, cause):
    # a NaN once spun the profile solver forever: run the CLI in a child
    # process so that a hang fails the test at its timeout
    src = os.path.dirname(os.path.dirname(gflowlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gflowlab.cli", "-o", str(tmp_path), *argv],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    err = json.loads(proc.stdout.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert cause in err["message"]


# a null unsets its key; the other values are of a JSON type that no option
# takes, except [1.0] for shrinker.a and "abc" for a seed mode
_WRONG_TYPES = st.sampled_from([None, True, [1.0], {"x": 1}, "abc"])


def _with_wrong_key(section, fragments):
    """``fragments``, or one of them with one key of ``section``, or an
    unknown key, set to a value from _WRONG_TYPES."""
    keys = st.sampled_from([o.name for o in OPTIONS[section]] + ["nokey"])
    return st.one_of(fragments, st.builds(lambda f, k, v: {**f, k: v},
                                          fragments, keys, _WRONG_TYPES))


_SPEED_FRAGMENTS = _with_wrong_key("speed", st.fixed_dictionaries({
    "speed": st.sampled_from(["sum", "bh", "sigma_ratio", "cone"]),
    "n": st.integers(1, 6),
    "k": st.one_of(st.none(), st.integers(0, 5))}))
_NAN, _INF = float("nan"), float("inf")
_SEED_MODES = st.sampled_from(["k1", "k=2", "cylinder", "monotone", "k=",
                               "kx"])
# rho-max stays finite here: a NaN or infinite one is tested above, and
# without the check a NaN solve never returns
_COMMAND_FRAGMENTS = st.one_of(
    st.tuples(st.just("bowl"), st.fixed_dictionaries({}, optional={
        "rho-max": st.sampled_from([0.0, -5.0, 1e-5, 5.0, 30.0]),
        "tol": st.sampled_from([0.0, -1e-8, _NAN, _INF, 1e-8, 1e-6])})),
    st.tuples(st.just("flow"), st.fixed_dictionaries({}, optional={
        "preset": st.sampled_from(["cylinder", "bowl-translation", "disk"]),
        "scheme": st.sampled_from(["rk2", "semi_implicit", "euler"]),
        "delta": st.sampled_from([0.0, -0.1, _NAN, 0.1, 0.2]),
        "t-end": st.sampled_from([0.0, -1.0, _NAN, _INF, 0.01, 0.05]),
        "r0": st.sampled_from([0.0, -2.0, _NAN, 0.1, 2.0])})),
    st.tuples(st.just("shrinker"), _with_wrong_key("shrinker",
        st.fixed_dictionaries({"a": st.sampled_from(["25", [25.0], "nan"])},
                              optional={
            "theta": st.sampled_from([0.0, 0.5, 0.9, 1.5, _NAN]),
            "tol": st.sampled_from([0.0, _NAN, 1e-8, 1e-6]),
            "check-bounds": st.booleans()}))),
    st.tuples(st.just("rescaled"), _with_wrong_key("rescaled",
        st.fixed_dictionaries({"delta": st.just(0.2), "window": st.just(6)},
                              optional={
            "seed-mode": _SEED_MODES,
            "tau-end": st.sampled_from([0.0, _NAN, 0.1, 0.5]),
            "amp": st.sampled_from([0.0, 1e-4, _NAN])}))),
    st.tuples(st.just("spectral"), _with_wrong_key("spectral",
        st.fixed_dictionaries({}, optional={
            "seed-mode": _SEED_MODES,
            "windows": st.sampled_from([-1, 0, 8]),
            "kmax": st.sampled_from([2, 4]),
            "quad-order": st.sampled_from([20, 30]),
            "l": st.sampled_from([0.0, _NAN, 6.0])}))))


def _error_class(name):
    return getattr(errors, name, None) or getattr(builtins, name, None)


def _unreadable_keys(cfg):
    """The ``section.key`` names in ``cfg`` that no option has, or whose
    value (an object) no option takes."""
    return [f"{section}.{key}" for section, given in cfg.items()
            for key, value in given.items()
            if key == "nokey" or isinstance(value, dict)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(speed=_SPEED_FRAGMENTS, command=_COMMAND_FRAGMENTS)
def test_cli_failures_are_typed_json_errors(speed, command):
    name, fragment = command
    unreadable = _unreadable_keys({name: fragment, "speed": speed})
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"speed": speed, name: fragment}, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["-o", os.path.join(tmp, "out"), "--config", cfg,
                         name])
    lines = out.getvalue().strip().splitlines()
    assert code in (0, 1)
    assert len(lines) == 1
    if unreadable:
        assert code == 1
        assert json.loads(lines[0])["message"].startswith("config ")
    if code == 1 and lines[0].startswith("{"):
        cls = _error_class(json.loads(lines[0])["error"])
        assert cls is not None
        assert issubclass(cls, (errors.GFlowError, ValueError))
    elif code == 1:
        # the command ran and its own acceptance check failed
        assert "FAIL" in lines[0]


def test_benchmark_tracer_contract(tmp_path):
    # perfbench/tracer.py counts work from the kernels' positional
    # arguments and results: integrate_profile's step count at index 1,
    # the stepping kernels' step count at index 2 times the size of v0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    # one operation each, under cli.main, as perfbench/worker.py runs them
    traced_main = tracer.wrap("cli.main", main)
    runs = [["bowl", "--rho-max", "20"],
            *(["flow", "--preset", "cylinder", "--t-end", "0.01",
               "--scheme", scheme] for scheme in ("rk2", "semi_implicit")),
            ["rescaled", "--tau-end", "0.25"], ["spectral", "--windows", "7"]]
    try:
        for op, argv in enumerate(runs):
            tracer.op = op
            assert traced_main(["-o", str(tmp_path / str(op)), *argv]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["accel.integrate_profile.nodes"] > 0
    assert tracer.counts["accel.flow_run.node_steps"] > 0
    assert tracer.counts["accel.radial_semi_implicit_run.node_steps"] > 0
    assert tracer_mod.nesting_errors(tracer.spans) == []

    def callers(name, op):
        """The chain of callers of each span ``name`` of operation ``op``."""
        chains = []
        for span in tracer.spans:
            if span[0] == name and span[4] == op:
                chain, parent = [], span[3]
                while parent >= 0:
                    chain.append(tracer.spans[parent][0])
                    parent = tracer.spans[parent][3]
                chains.append(chain)
        return chains

    # rescaled and spectral each step their seeded run once, and spectral
    # projects it once
    for op in (3, 4):
        assert callers("accel.radial_semi_implicit_run", op) == [
            ["flow.run_flow", "cli.main"]]
    assert callers("spectral.gamma_trace_from_run", 4) == [["cli.main"]]


def test_benchmark_worker_reads_the_package(monkeypatch):
    # perfbench/worker.py records gflowlab.__version__ and NUMBA_ENABLED as
    # provenance and checks the BowlProfile results it collects
    root = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(root))
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  root / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    prov = worker.provenance()
    assert prov["gflowlab"] == gflowlab.__version__
    assert prov["numba_enabled"] is False
    bowl = gflowlab.solve_bowl(gflowlab.SpeedFunction("sum", 3),
                               rho_max=20.0, tol=1e-10)
    accuracy = worker._accuracy_of_profiles([bowl])
    assert accuracy["solitons.tip_rel_err"] <= 1e-6
    assert accuracy["solitons.residual_max"] <= 10.0
