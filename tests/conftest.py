"""Fixtures shared by the test modules."""

import pytest

from spdelab import probes


@pytest.fixture
def map_paths_calls(monkeypatch):
    """A list that gains one entry per `probes.map_paths` call; the calls still run."""
    calls = []
    original = probes.map_paths

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(probes, "map_paths", counted)
    return calls
