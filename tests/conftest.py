"""Fixtures shared by the test modules."""

import pytest

import xxfusion.spin_model as spin_model


@pytest.fixture
def needs(monkeypatch):
    """The byte counts that capacity checks are asked about during the
    test, in order; each check still raises as it would."""
    needs, check = [], spin_model._require_memory

    def recorded(need, *args, **kwargs):
        needs.append(need)
        check(need, *args, **kwargs)

    monkeypatch.setattr(spin_model, "_require_memory", recorded)
    return needs
