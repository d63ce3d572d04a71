"""The public names stay importable: everything in sparseq.__all__, and every
function and method that the benchmark tracer in perfbench/spans.py wraps.

spans.py is read as text, not imported, since it imports the benchmark's
workload module."""
import ast
import importlib
from pathlib import Path

import sparseq

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
