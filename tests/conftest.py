"""Fixtures shared by the test modules."""

import pytest

from spdelab import probes


@pytest.fixture
def map_paths_calls(monkeypatch):
    """A list that gains each `probes.map_paths` call's result; the calls still run."""
    calls = []
    original = probes.map_paths

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(probes, "map_paths", counted)
    return calls
