"""Fixtures shared by the test modules."""

import pytest

import ntxbound.gradcheck as gradcheck
from ntxbound.trainer import Mlp, TrainTrace, _init_params, _param_count


@pytest.fixture
def gradcheck_chunks(monkeypatch):
    """The (trials, chunk) pairs of gradcheck groups as they reach central_difference; a group's chunk is its size.

    A set, so a long run adds nothing to a traced peak.
    """
    chunks = set()
    real = gradcheck.central_difference

    def spy(f, points, *, chunk):
        chunks.add((len(points), chunk))
        return real(f, points, chunk=chunk)

    monkeypatch.setattr(gradcheck, "central_difference", spy)
    return chunks


@pytest.fixture
def trace_from_records():
    """Builds the trace whose rows are a sequence of StepRecords: the inverse of ``TrainTrace.records``."""

    def build(records) -> TrainTrace:
        trace = TrainTrace._empty(len(records))
        for name in TrainTrace.__dataclass_fields__:
            getattr(trace, name)[:] = [getattr(rec, name) for rec in records]
        return trace

    return build


@pytest.fixture
def init_mlp():
    """Builds a network as a model's init draws one: ``random(P)`` from the generator, scaled per layer."""

    def build(layer_dims, rng) -> Mlp:
        return Mlp(layer_dims, _init_params(rng.random(_param_count(layer_dims)), layer_dims))

    return build
