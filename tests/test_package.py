"""The package's public names: every exported name resolves, so a name
deleted from a module cannot linger in `kalvar.__all__`.  The report
every check returns keeps only what the check found.  The packed
monomial format stays inside `kalvar.polysym`."""

import re
from pathlib import Path

import pytest

import kalvar
from kalvar.report import CheckReport


def test_every_exported_name_resolves():
    missing = [name for name in kalvar.__all__ if not hasattr(kalvar, name)]
    assert not missing
    assert len(set(kalvar.__all__)) == len(kalvar.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from kalvar import *", namespace)
    assert set(kalvar.__all__) <= set(namespace)


def test_check_report_fields():
    assert CheckReport._fields == ("check", "params", "details", "data")


def test_verdict_is_read_off_the_findings():
    clean = CheckReport("c", {"d": 2})
    assert clean.passed is True
    assert clean.verdict == "pass"
    found = CheckReport("c", {"d": 2}, details=[{"kind": "mismatch"}])
    assert found.passed is False
    assert found.verdict == "fail"
    with pytest.raises(AttributeError):
        clean.passed = False


def test_only_polysym_converts_packed_monomials():
    # every other module goes through PolyRing.pack and PolyRing.unpack
    src = Path(kalvar.__file__).parent
    converting = [path.name for path in sorted(src.glob("*.py")) if re.search(r"\b(to|from)_bytes\b", path.read_text())]
    assert converting == ["polysym.py"]
