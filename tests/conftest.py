"""Fixtures shared by several test modules."""

import pytest

from spinkinetics import liouville


@pytest.fixture
def expm_calls(monkeypatch):
    """Every matrix handed to the propagation's matrix exponential, in order."""
    calls = []
    exponential = liouville.expm

    def counted(a):
        calls.append(a)
        return exponential(a)

    monkeypatch.setattr(liouville, "expm", counted)
    return calls
