"""A refused artifact names the command that rewrites it through one
wrapper, pipeline._rerun, and a stale config hash is refused by one
function, pipeline._check_hash: no other string in the package spells
either message, so neither rule can drift back into single messages."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _literals(node, scope: str):
    """(enclosing function, string literal) of each string literal under
    `node`, the constant parts of an f-string as one literal; a bare string
    statement, a docstring or one that does nothing, is skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _literals(child, child.name)
        elif isinstance(child, ast.JoinedStr):
            yield scope, [p.value for p in child.values
                          if isinstance(p, ast.Constant)]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield scope, [child.value]
        elif not (isinstance(child, ast.Expr)
                  and isinstance(child.value, ast.Constant)):
            yield from _literals(child, scope)


def _spelled_by(paths: list[str], text: str) -> list[str]:
    """`module:function` of each string literal in the files `paths` that
    holds `text`, docstrings aside."""
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        out += [f"{os.path.basename(path)}:{scope}"
                for scope, parts in _literals(tree, "<module>")
                if any(text in part for part in parts)]
    return sorted(out)


def _package() -> list[str]:
    return sorted(glob.glob(os.path.join(ROOT, "src", "ragcap", "*.py")))


def test_only_rerun_builds_the_rerun_suffix():
    assert _spelled_by(_package(), "; rerun ") == ["pipeline.py:_rerun"]


def test_only_check_hash_refuses_a_config_hash():
    assert _spelled_by(_package(), " config hash ") == [
        "pipeline.py:_check_hash"]


def test_spelled_by_sees_each_kind_of_literal(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        '"""module docstring; rerun x"""\n'
        "def f(e, c):\n"
        '    """docstring; rerun x"""\n'
        '    return f"{e}; rerun {c}"\n'
        "class K:\n"
        "    def m(self):\n"
        '        raise ValueError("bad; rerun y")\n'
        'LINE = "top; rerun z" + "; rerun w"\n')
    assert _spelled_by([str(mod)], "; rerun ") == [
        "m.py:<module>", "m.py:<module>", "m.py:f", "m.py:m"]
