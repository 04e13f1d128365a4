"""Every public module-level function and class of the package is used by
the package or the benchmark, not only by tests."""

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


def test_every_public_definition_is_used_outside_tests():
    package = sorted(glob.glob(os.path.join(ROOT, "src", "ragcap", "*.py")))
    bench = [p for p in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
             if not os.path.basename(p).startswith("test_")]
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
