"""Every name a module exports resolves: the ``__all__`` of ``qhist`` and of
each submodule that declares one lists attributes that exist, each once."""

import importlib
import pkgutil

import pytest

import qhist

SUBMODULES = [f"qhist.{m.name}" for m in pkgutil.iter_modules(qhist.__path__) if m.name != "__main__"]
MODULES = [name for name in ["qhist", *SUBMODULES] if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_star_import():
    namespace = {}
    exec("from qhist import *", namespace)
    assert set(qhist.__all__) <= set(namespace)
