"""Fixtures shared by the test modules."""

import pytest

import ntxbound.gradcheck as gradcheck


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
