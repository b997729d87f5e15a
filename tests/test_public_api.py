"""The public surface: every name an export list promises exists, once.

A function deleted from a module can survive in an ``__all__``, where it
breaks only ``from ... import *``; these checks catch that.
"""

import importlib
import pkgutil

import pytest

import lecamjd

#: the package and its submodules; ``__main__`` runs the CLI when imported
MODULES = ["lecamjd"] + [
    name for _, name, _ in pkgutil.iter_modules(lecamjd.__path__, "lecamjd.")
    if name != "lecamjd.__main__"]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from lecamjd import *", namespace)
    assert set(lecamjd.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(exports) == len(set(exports))
