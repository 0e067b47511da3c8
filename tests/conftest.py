"""Fixtures shared by the test modules."""

import numpy as np
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
def concat_traces():
    """Joins a sequence of traces, such as the one-row traces of ``train_step``, column by column into one."""

    def join(traces) -> TrainTrace:
        parts = [TrainTrace._empty(0), *traces]  # an empty sequence joins to an empty trace
        names = TrainTrace.__dataclass_fields__
        return TrainTrace(*(np.concatenate([getattr(t, name) for t in parts]) for name in names))

    return join
