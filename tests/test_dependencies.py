"""Every third-party module that the package, its tests or the benchmark
imports is declared in pyproject.toml."""

import ast
import glob
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _imported_top_level(path: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in the file."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def _declared() -> set[str]:
    """Import names of the project's dependencies and optional extras."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    reqs = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        reqs += extra
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in reqs}


def test_every_third_party_import_is_declared():
    paths = [p for d in ("src", "tests", "bench")
             for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                                recursive=True)]
    # the repo's own packages and modules (ragcap, conftest, spans, ...)
    local = {os.path.splitext(os.path.basename(p))[0] for p in paths}
    local |= {os.path.basename(os.path.dirname(p)) for p in paths}
    imported = set().union(*map(_imported_top_level, paths))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "numpy" in third_party  # the scan sees the imports
    assert third_party <= _declared(), sorted(third_party - _declared())
