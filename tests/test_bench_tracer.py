"""The benchmark's tracer wraps package functions by name; every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _wrapped_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, qualname) for module, names in tracer.WRAPPED.items() for qualname in names]


@pytest.mark.parametrize(("module", "qualname"), _wrapped_names())
def test_wrapped_name_resolves(module, qualname):
    owner = importlib.import_module(f"ntxbound.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
