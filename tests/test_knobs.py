"""Knob-creep guards: every defaulted parameter of a public function, method
or dataclass field in ``src/gflowlab`` is passed by at least one call in the
package, and none named like a CLI option repeats a default.  A default that
no call overrides is a constant in disguise; it belongs in the module as
one.  A CLI option's default lives in ``cli.OPTIONS`` alone, so a library
parameter of the same name defaults to None or to nothing.  Every field of
a dataclass or NamedTuple, and every attribute a public class's
``__init__`` or ``__post_init__`` stores on ``self``, is read somewhere: one
that is only written is work without a use."""

import ast
from pathlib import Path

from gflowlab.cli import OPTIONS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gflowlab"

# (function, parameter): why the default stays although no package call
# passes the parameter
ALLOWED = {
    ("main", "argv"): "the entry point: the console script calls main() "
                      "and tests pass their own argv",
    ("run_flow", "r_floor"): "the Pinch safety check, which tests reach "
                             "through this parameter",
}


def _defaulted(node):
    """(name, position or None, default) of each parameter of ``node`` with
    a default; ``self``/``cls`` do not count as positions."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip, args.defaults[i - first])
           for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _field_defaults(cls):
    """(name, position, default) of each annotated class field with a
    default: the constructor parameters of a dataclass or NamedTuple."""
    out, pos = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if (isinstance(stmt.value, ast.Call)
                and getattr(stmt.value.func, "id", None) == "field"):
            kw = {k.arg: k.value for k in stmt.value.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
            default = kw.get("default", kw.get("default_factory"))
        else:
            default = stmt.value
        if default is not None:
            out.append((stmt.target.id, pos, default))
        pos += 1
    return out


def _scan(sources):
    """({function: [(parameter, position, default)]} of the public
    definitions in ``sources``, {(called name, position or keyword)} of
    their calls)."""
    params, passed = {}, set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    params.setdefault(child.name, []).extend(
                        _field_defaults(child))
                visit(child, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if owner is not None and name == "__init__":
                    name = owner.name
                if (not name.startswith("_")
                        and not (owner and owner.name.startswith("_"))):
                    params.setdefault(name, []).extend(_defaulted(child))
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", "")
                if name == "cls" and owner is not None:
                    name = owner.name
                for i, arg in enumerate(child.args):
                    passed.add((name, "*" if isinstance(arg, ast.Starred)
                                else i))
                for kw in child.keywords:
                    passed.add((name, kw.arg or "**"))
            visit(child, owner)

    for source in sources:
        visit(ast.parse(source), None)
    return params, passed


def unpassed_defaults(sources):
    """Sorted (function, parameter) pairs of public definitions in
    ``sources`` whose default no call among them overrides.  Calls match
    by the called name (``cls`` inside a class is that class); a call with
    ``*args`` or ``**kwargs`` passes every parameter of its kind."""
    params, passed = _scan(sources)

    def is_passed(fn, arg, pos):
        keys = {(fn, arg), (fn, "**")}
        if pos is not None:
            keys |= {(fn, pos), (fn, "*")}
        return bool(keys & passed)

    return sorted((fn, arg) for fn, args in params.items()
                  for arg, pos, _ in args if not is_passed(fn, arg, pos))


def option_defaults(sources, options):
    """Sorted (function, parameter) pairs of public definitions in
    ``sources`` whose parameter is named like one of ``options`` and
    defaults to something other than None."""
    return sorted((fn, arg) for fn, args in _scan(sources)[0].items()
                  for arg, _, default in args
                  if arg in options and not (isinstance(default, ast.Constant)
                                             and default.value is None))


def test_guard_flags_a_default_no_call_passes():
    source = ("def f(x, a=1, b=2, *, c=3):\n    pass\n"
              "def g():\n    f(0, 5)\n    f(0, c=4)\n")
    assert unpassed_defaults([source]) == [("f", "b")]
    assert unpassed_defaults(["class C:\n    def m(self, x, a=1):\n"
                              "        pass\n"
                              "C().m(0, 2)\n"]) == []
    assert unpassed_defaults(["from dataclasses import dataclass, field\n"
                              "@dataclass\nclass D:\n    x: int\n"
                              "    y: int = 0\n"
                              "    z: list = field(default_factory=list)\n"
                              "    w: int = field(init=False)\n"
                              "D(1, z=[])\n"]) == [("D", "y")]


def test_every_public_default_is_passed_somewhere():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert [pair for pair in unpassed_defaults(sources)
            if pair not in ALLOWED] == []


def test_no_public_default_repeats_a_cli_option():
    # the guard itself, on a small source
    source = ("def f(x, tol=1e-8, k=None, other=1):\n    pass\n"
              "class C:\n    def m(self, *, theta=0.9):\n        pass\n"
              "from dataclasses import dataclass\n"
              "@dataclass\nclass D:\n    tol: float = 1e-10\n"
              "    delta: float | None = None\n")
    assert option_defaults([source], {"tol", "k", "theta", "delta"}) == [
        ("D", "tol"), ("f", "tol"), ("m", "theta")]
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    names = {opt.name.replace("-", "_") for section in OPTIONS.values()
             for opt in section}
    assert option_defaults(sources, names) == []


def _is_record(cls):
    """Whether ``cls`` is a dataclass or a NamedTuple class."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)
    return ("dataclass" in map(name, cls.decorator_list)
            or "NamedTuple" in map(name, cls.bases))


def _stored(cls):
    """The attributes that ``cls``'s ``__init__`` or ``__post_init__``
    stores on ``self``."""
    return [node.attr for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and fn.name in ("__init__", "__post_init__")
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"]


def unread_fields(defining, reading):
    """Sorted (class, field) pairs of the dataclass and NamedTuple fields
    defined in ``defining``, and of the attributes a public class's
    constructor there stores on ``self``, whose name no source in
    ``defining`` or ``reading`` reads, as an attribute load or through
    ``getattr`` with a constant name."""
    fields, read = set(), set()
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_record(node):
                fields |= {(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
            if not node.name.startswith("_"):
                fields |= {(node.name, attr) for attr in _stored(node)}
    for source in [*defining, *reading]:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return sorted(pair for pair in fields if pair[1] not in read)


def test_every_record_field_is_read():
    # the guard itself, on a small source: a store is not a read, and a
    # private class's attributes are its own business
    source = ("from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "@dataclass(frozen=True)\nclass D:\n    x: int\n    y: int\n"
              "    z: int\n"
              "class N(NamedTuple):\n    a: int\n    b: int\n"
              "class P:\n    q: int\n"
              "class C:\n    def __init__(self, s):\n"
              "        self.u, self.v = s\n        self.w = s.t = 2\n"
              "    def m(self):\n        return self.v\n"
              "class _H:\n    def __init__(self):\n        self.h = 0\n"
              "def f(d, n):\n    return d.x + getattr(n, 'a')\n")
    assert unread_fields([source], ["def g(d):\n    d.z = 1\n"
                                    "    return d.y\n"]) == [
        ("C", "u"), ("C", "w"), ("D", "z"), ("N", "b")]
    reading = [p.read_text() for pattern in ("perfbench/*.py", "tests/*.py")
               for p in sorted(ROOT.glob(pattern))]
    assert unread_fields([p.read_text() for p in sorted(PACKAGE.glob("*.py"))],
                         reading) == []
