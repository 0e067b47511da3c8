"""Fixtures shared by the test modules."""

import pytest

import ntxbound.gradcheck as gradcheck
from ntxbound.trainer import TrainTrace


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
