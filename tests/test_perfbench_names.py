"""The functions that the benchmark's per-layer metrics name still exist,
so renaming one fails here rather than in a traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# the names the tracer patches by hand, and the methods they stand for
PATCHED = {
    "numerics.backward": "numerics.Tensor.backward",
    "retrieval.tfidf_build": "retrieval.TfidfIndex.__init__",
    "retrieval.tfidf_query": "retrieval.TfidfIndex.query",
}


def _function_metric_names():
    """The ``module.function`` names of FUNCTION_METRICS, read from the
    source without importing it."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FUNCTION_METRICS" for t in node.targets):
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no FUNCTION_METRICS in {LAYERS}")


def _resolve(path):
    module_name, *attrs = path.split(".")
    obj = importlib.import_module(f"c2q.{module_name}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


def test_function_metrics_name_public_functions():
    names = _function_metric_names()
    assert names and set(PATCHED) <= set(names)
    for name in names:
        function = _resolve(PATCHED.get(name, name))
        assert inspect.isfunction(function), name
        if name not in PATCHED:
            module_name, function_name = name.split(".")
            assert not function_name.startswith("_"), name
            assert function.__module__ == f"c2q.{module_name}", name
