"""The public API keeps one form per operation: every export is one the library or the benchmark runs."""

import ast
import inspect
import json
import subprocess
import sys
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


def public_definitions() -> list:
    """"module.name" of every public module-level function and class in src/fald."""
    return [
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "fald").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_export_is_used_by_the_library_or_the_benchmark():
    # a public form that only the tests call is a second implementation of an operation
    files = sorted((ROOT / "src" / "fald").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8")) for path in files))
    defined = public_definitions()
    # the scan sees every function and class that `fald` exports, and more
    assert {f"{module}.{name}" for module, names in EXPORTS.items() for name in names} < set(defined)
    assert [name for name in defined if name.split(".")[1] not in used] == []


# the functions and classes that `fald` exports, by the submodule that defines them
EXPORTS = {
    "engine": ["ChainDivergenceError", "DecayingStep", "FixedStep", "FullDevice", "RunConfig", "SchemeI", "SchemeII",
               "run_replicated"],
    "metrics": ["GaussianSummary", "classification_metrics", "empirical_summary", "w2_gaussian_parts"],
    "model": ["EnergyConstants", "FederatedDataset", "GaussianModelSpec", "LogisticModelSpec", "client_grads",
              "constants", "gen_gaussian_federation", "gen_logistic_federation", "target_posterior"],
    "privacy": ["DpBudget", "DpParams", "account_report", "budget_search"],
    "theory": ["BoundInputs", "bound_decaying", "bound_full_fixed", "bound_partial", "optimal_local_steps",
               "plan_steps"],
}


def test_exports_resolve_to_their_definitions():
    # `import fald` loads no submodule; each export resolves on first access, and star-import binds every one
    expected = sorted([*EXPORTS, "streams", *(name for names in EXPORTS.values() for name in names)])
    assert fald.__all__ == expected and len(expected) == 37
    for module, names in EXPORTS.items():
        for name in names:
            value = getattr(fald, name)
            assert (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == f"fald.{module}"
    assert all(inspect.ismodule(getattr(fald, module)) for module in [*EXPORTS, "streams"])
    probe = "import json\nfrom fald import *\nprint(json.dumps(sorted(k for k in globals() if not k.startswith('_'))))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(expected + ["json"])
