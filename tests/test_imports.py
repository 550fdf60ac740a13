"""Import guards: each module of the package references every name it
imports (``__init__`` is exempt, since its imports are the package's
re-exports, and so are ``from __future__`` imports and lines marked
``# noqa: F401``), ``flow`` imports neither scipy nor ``solitons``, the
CLI does not load ``scipy.interpolate`` or the acceptance suite, and the
acceptance suite imports on its own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gflowlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    assert _unused_imports("import math\nimport os\nmath.pi\n") == [
        "os (line 2)"]
    assert _unused_imports("from a import b  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert _unused_imports(path.read_text()) == []


def _imported_modules(source):
    """The modules ``source`` imports; ``from . import x`` and ``from .x
    import y`` both read ``x``."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= ({node.module} if node.module else
                        {alias.name for alias in node.names})
    return modules


def test_flow_imports_no_scipy_or_solitons():
    # the flow commands' module: the oracles that need scipy.integrate and
    # scipy.special serve verify alone and live in acceptance, and a bowl
    # reference takes its profile without naming the solitons module
    assert sorted(m for m in _imported_modules((PACKAGE / "flow.py")
                                               .read_text())
                  if m.split(".")[0] == "scipy"
                  or m.split(".")[-1] == "solitons") == []


def _fresh(code):
    """What ``code`` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def cli_modules():
    """The modules a fresh ``import gflowlab.cli`` loads."""
    return set(_fresh("import sys, gflowlab.cli; print(*sys.modules)").split())


def test_cli_import_loads_no_scipy_interpolate(cli_modules):
    # PCHIP is the package's own (``_accel.pchip``): importing
    # scipy.interpolate would cost every command its ~30 modules
    assert sorted(m for m in cli_modules
                  if m.startswith("scipy.interpolate")) == []


def test_cli_import_loads_no_acceptance(cli_modules):
    # only `verify` needs the criteria; cli imports them inside cmd_verify
    assert "gflowlab.cli" in cli_modules
    assert "gflowlab.acceptance" not in cli_modules


def test_acceptance_imports_first():
    # acceptance imports cli at module level, cli imports acceptance only
    # when verify runs: no import cycle
    assert _fresh("import gflowlab.acceptance as a; "
                  "print(len(a.criteria_ids()))") == "12"
