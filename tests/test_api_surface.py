"""The public names stay importable: everything in sparseq.__all__, every
function and method that the benchmark tracer in perfbench/spans.py wraps,
and every sparseq name that the benchmark's workloads import or call.

The benchmark files are read as text, not imported: spans.py imports the
benchmark's workload module, and workloads.py is not a package module."""
import ast
import importlib
from pathlib import Path

import sparseq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def spans_constant(name):
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {SPANS}")


def test_all_names_resolve():
    missing = [name for name in sparseq.__all__ if not hasattr(sparseq, name)]
    assert missing == []
    assert len(set(sparseq.__all__)) == len(sparseq.__all__)


def test_traced_functions_exist():
    functions = spans_constant("FUNCTIONS")
    assert functions
    for layer, names in functions.items():
        module = importlib.import_module(f"sparseq.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sparseq.{layer}.{name}"


def test_traced_methods_exist():
    methods = spans_constant("METHODS")
    assert methods
    for layer, cls_name, method in methods:
        cls = getattr(importlib.import_module(f"sparseq.{layer}"), cls_name)
        assert callable(getattr(cls, method, None)), f"sparseq.{layer}.{cls_name}.{method}"


def _resolve(module: str, name: str) -> bool:
    """name is an attribute of module, or a submodule of it."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_workload_names_resolve():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sparseq":
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                if not _resolve(node.module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    modules = {"circuit_ir", "cli", "engine"}
    assert modules <= imported.keys()
    used = [
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert used
    missing += [f"{imported[m]}.{attr}" for m, attr in used
                if not hasattr(importlib.import_module(imported[m]), attr)]
    assert missing == []
