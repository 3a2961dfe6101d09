"""Test-suite conventions: keep the env-configurable dimension cap at its default,
and run property tests from a fixed seed with a bounded number of examples."""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, max_examples=60, deadline=None, database=None)
    settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _default_dimension_cap(monkeypatch):
    monkeypatch.delenv("BOOLDIFF_NMAX", raising=False)
