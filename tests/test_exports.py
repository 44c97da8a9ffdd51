"""The public API keeps one form per operation: every export is one the library or the benchmark runs."""

import ast
import inspect
from pathlib import Path

import fald

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(source: str) -> set:
    """Names that the code reads (Name ids and attribute names), each outside the definition of that name.

    Docstrings and comments are not code, and an import alone is not a use.
    """
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return found


def test_reference_scan_skips_docstrings_imports_and_own_definition():
    source = (
        'from .model import client_grads\n'
        'def w2(a):\n    """w2 and account are named here only."""\n    return w2(a) + a.dim\n'
        'class Budget:\n    def copy(self):\n        return Budget()\n'
        'def run():\n    return plan.steps()\n'
    )
    assert referenced_names(source) == {"a", "dim", "plan", "steps"}


def test_every_export_is_used_by_the_library_or_the_benchmark():
    # a public form that only the tests call is a second implementation of an operation
    files = sorted((ROOT / "src" / "fald").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8")) for path in files))
    exported = [
        name for name in fald.__all__
        if inspect.isfunction(getattr(fald, name)) or inspect.isclass(getattr(fald, name))
    ]
    assert len(exported) > 20
    assert [name for name in exported if name not in used] == []
