"""Backend selection: the env flag forces the numpy fallback, and where numba
imports both paths produce identical numbers."""

import json
import os
import subprocess
import sys

import pytest

import gflowlab


SNIPPET = """
import json
import gflowlab as gf
bowl = gf.solve_bowl(gf.SpeedFunction("bh", 3), 50.0, tol=1e-10)
print(json.dumps({"numba": gf.NUMBA_ENABLED,
                  "zeta10": float(bowl.zeta_at(10.0)),
                  "tip": bowl.tip_curvature}))
"""


def _numba_importable():
    try:
        from numba import njit  # noqa: F401
    except ImportError:
        return False
    return True


def _run(disable):
    env = dict(os.environ)
    env["GFLOWLAB_NO_NUMBA"] = "1" if disable else "0"
    # the child must import the same gflowlab as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(gflowlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SNIPPET], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_env_flag_selects_backend():
    assert _run(False)["numba"] is _numba_importable()
    assert _run(True)["numba"] is False


def test_backends_byte_identical():
    pytest.importorskip("numba")
    jit = _run(False)
    plain = _run(True)
    assert jit["numba"] is True
    assert plain["numba"] is False
    # same floating-point operations on both paths: identical results
    assert jit["zeta10"] == plain["zeta10"]
    assert jit["tip"] == plain["tip"]


def test_status_codes_distinct():
    from gflowlab import _accel
    codes = {_accel.STATUS_OK, _accel.STATUS_STOP, _accel.STATUS_CONE,
             _accel.STATUS_SOLVER, _accel.STATUS_PINCH, _accel.STATUS_CFL}
    assert len(codes) == 6
