import pytest

from posetgeo import verify
from posetgeo.errors import MixedConfiguration


def _raise(exc):
    def simplex_table(*args, **kwargs):
        raise exc

    return simplex_table


def test_simplex_library_error_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(verify, "simplex_table", _raise(MixedConfiguration("mixed")))
    report = verify.suite_simplex()
    assert not report.passed
    assert all("MixedConfiguration" in r.value for r in report.results)


def test_simplex_programming_error_propagates(monkeypatch):
    monkeypatch.setattr(verify, "simplex_table", _raise(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        verify.suite_simplex()
