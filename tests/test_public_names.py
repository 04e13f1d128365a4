"""Every public module-level function and class of the package is used by
the package or the benchmark, not only by tests, and every parameter
default is one that some call there overrides."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _references(node) -> set[str]:
    """Names, attribute names and imported names under `node`."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def _sources() -> tuple[list[str], list[str]]:
    """(package files, non-test benchmark files)."""
    package = sorted(glob.glob(os.path.join(ROOT, "src", "ragcap", "*.py")))
    bench = [p for p in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
             if not os.path.basename(p).startswith("test_")]
    return package, bench


def test_every_public_definition_is_used_outside_tests():
    package, bench = _sources()
    # per file, each top-level statement with the names it references
    statements = {}
    for path in package + bench:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        statements[path] = [(node, _references(node)) for node in tree.body]
    unused = []
    for path in package:
        for node, _ in statements[path]:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            # a use anywhere but inside the definition itself
            if not any(node.name in names
                       for stmts in statements.values()
                       for other, names in stmts if other is not node):
                unused.append(f"{os.path.basename(path)}:{node.name}")
    assert not unused, f"public names that only tests use: {unused}"


def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of `fn` with a default; a
    keyword-only one has position None."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                                fn.args.kw_defaults)
                  if d is not None]


def _defs(tree) -> list[tuple[str, ast.FunctionDef, int]]:
    """(name a call uses, def, parameters a call does not pass) of every
    function, nested ones too, and of every method but __call__: a
    constructor is called by its class name, and a method's self (or cls)
    is bound."""
    out, methods = [], set()
    for node in ast.walk(tree):  # breadth first: a class before its methods
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    methods.add(fn)
                    if fn.name != "__call__":
                        out.append((node.name if fn.name == "__init__"
                                    else fn.name, fn, 1))
        elif isinstance(node, ast.FunctionDef) and node not in methods:
            out.append((node.name, node, 0))
    return out


def _calls(tree) -> list[tuple[str, ast.Call]]:
    """(called name, import aliases resolved, and call) of every call."""
    alias = {a.asname: a.name for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom))
             for a in n.names if a.asname}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            out.append((alias.get(n.func.id, n.func.id), n))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            out.append((n.func.attr, n))
    return out


def _passes(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether `call` passes parameter `name`, at argument position `pos`
    if it has one, by keyword, position, *args or **kwargs."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return pos is not None and (len(call.args) > pos or any(
        isinstance(a, ast.Starred) for a in call.args))


def _never_overridden(package: list[str], others: list[str]) -> list[str]:
    """`module:name(param)` of each parameter default in the files of
    `package` that no call in `package` or `others` overrides. Calls match
    definitions by name, so a call of any same-named function counts."""
    trees = {}
    for path in package + others:
        with open(path, encoding="utf-8") as f:
            trees[path] = ast.parse(f.read(), path)
    calls = {}
    for tree in trees.values():
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return [f"{os.path.basename(path)}:{name}({param})"
            for path in package for name, fn, bound in _defs(trees[path])
            for param, pos in _defaulted(fn)
            if not any(_passes(c, param, None if pos is None else pos - bound)
                       for c in calls.get(name, []))]


def test_every_default_is_overridden_outside_tests():
    """A default that no caller changes is a constant in disguise."""
    assert _never_overridden(*_sources()) == []


def test_default_check_sees_each_way_of_passing(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "def f(a, b=1, *, c=2):\n"
        "    def inner(d=0): pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0): pass\n"
        "    def m(self, z=0): pass\n"
        "    def __call__(self, w=0): pass\n")
    calls = tmp_path / "calls.py"
    assert set(_never_overridden([str(mod)], [])) == {
        "m.py:f(b)", "m.py:f(c)", "m.py:inner(d)", "m.py:K(y)", "m.py:m(z)"}
    calls.write_text("from m import f as g\ng(0, 1)\nK(0, y=1)\nk.m(**o)\n")
    assert set(_never_overridden([str(mod)], [str(calls)])) == {
        "m.py:f(c)", "m.py:inner(d)"}
    calls.write_text("f(*a, c=3)\nK(0, 1)\nk.m(1)\ninner(1)\n")
    assert _never_overridden([str(mod)], [str(calls)]) == []
