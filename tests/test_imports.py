import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "aggnet"


def used_names(scope):
    """Names read in `scope`, in its string annotations and in `__all__`."""
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for a in filter(None, annotations):
            for c in ast.walk(a):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return used


def unused_imports(source):
    """(line, name) of each import, at module or function level, that its
    scope never uses."""
    tree = ast.parse(source)
    scopes = [tree, *(n for n in ast.walk(tree)
                      if isinstance(n, ast.FunctionDef | ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        used = used_names(scope)
        for stmt in scope.body:
            if (isinstance(stmt, ast.Import | ast.ImportFrom)
                    and getattr(stmt, "module", None) != "__future__"):
                for alias in stmt.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append((stmt.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = ("import os\nimport json as j\nfrom . import kept, listed\n"
              "__all__ = ['listed']\n"
              "def f(x: 'kept') -> None:\n    import sys\n    return j\n")
    assert unused_imports(source) == [(1, "os"), (6, "sys")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_benchmark_hooks_find_their_names(monkeypatch):
    # The benchmark's traced pass wraps package attributes by name; a rename
    # that removes one makes it raise.  Patching and restoring must also
    # leave every attribute as it was.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    workloads.trace_layers(tracer, {})
    patched = list(tracer._patched)
    assert patched
    tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
