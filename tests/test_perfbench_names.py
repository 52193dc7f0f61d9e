"""The benchmark's per-layer counters find the program's functions by name
(perfbench/spans.py).  A renamed or inlined function would turn its counter
into "missing" without failing anything, so every listed name must resolve."""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(spans):
    for module, attr, name, _ in spans.TRACED:
        assert spans._resolve(module, attr) is not None, name
    assert spans.Tracer().missing == []


def test_profile_counts_resolve(spans):
    for metric, (module, qualname) in spans.PROFILE_COUNTS.items():
        found = spans._resolve(module, qualname)
        assert found is not None and hasattr(found[2], "__code__"), metric
    assert spans.SpairCounter().available
