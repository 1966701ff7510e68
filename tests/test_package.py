"""The package's public names: every exported name resolves, so a name
deleted from a module cannot linger in `kalvar.__all__`."""

import kalvar


def test_every_exported_name_resolves():
    missing = [name for name in kalvar.__all__ if not hasattr(kalvar, name)]
    assert not missing
    assert len(set(kalvar.__all__)) == len(kalvar.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from kalvar import *", namespace)
    assert set(kalvar.__all__) <= set(namespace)
