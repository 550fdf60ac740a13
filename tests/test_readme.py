"""README drift guard: the names it lists as public resolve in the package,
and every public function or class a listed module defines is listed."""

import importlib
import inspect
import re
from pathlib import Path

import gflowlab as gf
from gflowlab.errors import GFlowError

README = Path(__file__).resolve().parents[1] / "README.md"


def _public_names():
    """{module: [names]} of the README list that follows "The public names
    of each module"; the parenthesized ``speeds`` names are listed under
    ``SpeedFunction``."""
    text = README.read_text()
    start = text.index("The public names of each module")
    block = text[start:text.index("\n\n", text.index("\n- ", start))]
    listed = {}
    for item in re.split(r"\n- ", block)[1:]:
        module, body = re.match(r"`(\w+)`:(.*)", item, re.S).groups()
        inner = re.findall(r"\(([^)]*)\)", body)
        listed[module] = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", body))
        for group in inner:
            listed.setdefault("SpeedFunction", []).extend(
                re.findall(r"`(\w+)`", group))
    return listed


def test_readme_public_names_resolve():
    listed = _public_names()
    assert {"speeds", "spectral", "fits", "SpeedFunction"} <= listed.keys()
    # F01, F11, a_lin and Q are set per instance
    owners = {"SpeedFunction": gf.SpeedFunction("bh", 3)}
    missing = []
    for module, names in listed.items():
        owner = owners.get(module) or importlib.import_module(
            f"gflowlab.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not hasattr(owner, name)]
    assert missing == []


def _exempt(module, name, obj):
    """The criteria, which README covers through run_criterion, and the
    GFlowError subclasses, which it covers as "GFlowError and its
    subclasses"."""
    if module == "acceptance":
        return re.fullmatch(r"criterion_\d+", name) is not None
    return (module == "errors" and inspect.isclass(obj)
            and issubclass(obj, GFlowError) and obj is not GFlowError)


def test_readme_lists_every_public_definition():
    unlisted = []
    for module, names in _public_names().items():
        if module == "SpeedFunction":
            continue
        mod = importlib.import_module(f"gflowlab.{module}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or name in names
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != mod.__name__
                    or _exempt(module, name, obj)):
                continue
            unlisted.append(f"{module}.{name}")
    assert unlisted == []
