"""CLI surface: subcommands, exit codes, file formats, determinism."""

import json

from gflowlab.cli import main, parse_config, serialize_config
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
    assert report["bounds"]["lower_ok"] is True


def test_flow_cylinder_preset(tmp_path):
    code = _run(tmp_path, "flow", "--preset", "cylinder",
                "--t-end", "0.25", "--delta", "0.05")
    assert code == 0
    manifest = json.loads((tmp_path / "flow_manifest.json").read_text())
    assert manifest["final_error"] <= 1e-6
    data, meta = read_csv(tmp_path / "flow.csv")
    assert set(data) == {"t", "z", "v"}


def test_rescaled_k2_preset(tmp_path):
    code = _run(tmp_path, "rescaled", "--seed-mode", "k2",
                "--tau-end", "1.0", "--delta", "0.1", "--window", "10")
    assert code == 0
    manifest = json.loads((tmp_path / "rescaled_manifest.json").read_text())
    assert manifest["pass"] is True
    # one ROS2 step per recorded snapshot
    assert manifest["scheme"] == "semi_implicit"
    assert manifest["nsteps"] == 100
    assert manifest["dt"] == 1.0 / 100


def test_spectral_k2_neutral_verdict(tmp_path):
    code = _run(tmp_path, "spectral", "--seed-mode", "k=2",
                "--windows", "8")
    assert code == 0
    manifest = json.loads((tmp_path / "spectral_manifest.json").read_text())
    assert manifest["verdict"]["verdict"] == "neutral-dominated"
    # 8 ROS2 steps per time unit over windows + 1 = 9 units
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
    path.write_text(serialize_config(cfg))
    again = parse_config(str(path))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


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
