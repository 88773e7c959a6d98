"""Every name a module exports resolves: each name in `bsdl.__all__` and
in the `__all__` of each `bsdl` submodule is an attribute of its module,
so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import bsdl

MODULES = ["bsdl"] + [
    f"bsdl.{m.name}" for m in pkgutil.iter_modules(bsdl.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [x for x in exported if not hasattr(module, x)] == []
