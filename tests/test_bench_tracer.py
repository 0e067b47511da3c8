"""The benchmark's tracer wraps package functions by name.

Every name must resolve, and a traced run must print what an untraced one does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ntxbound.cli import main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _wrapped_names():
    return [(module, qualname) for module, names in _load_tracer().WRAPPED.items() for qualname in names]


@pytest.mark.parametrize(("module", "qualname"), _wrapped_names())
def test_wrapped_name_resolves(module, qualname):
    owner = importlib.import_module(f"ntxbound.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_gradcheck_prints_the_same(capsys):
    """The tracer calls each finite-difference function with one argument; stacked probes must allow that."""
    assert main(["gradcheck", "--trials", "2"]) == 0
    plain = capsys.readouterr().out
    with _load_tracer().Tracer() as tracer:
        assert main(["gradcheck", "--trials", "2"]) == 0
    assert capsys.readouterr().out == plain
    assert tracer.loss_evals > 0
