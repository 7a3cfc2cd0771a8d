"""The traced benchmark pass patches package functions by module binding.

``perfbench/spans.py`` replaces ``owner.__dict__[attr]`` for every binding
it traces; a refactor that drops or renames one of those names must fail
here rather than crash the traced benchmark run.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = spans.Tracer().bindings()
    assert bindings
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in bindings
        if attr not in owner.__dict__
    ]
    assert missing == []
