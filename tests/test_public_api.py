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


#: the library modules whose exports the package re-exports
LIBRARY = ["distances", "experiments", "kernels", "laws", "model", "oracle",
           "simulate"]


def test_package_exports_the_library_modules_lists():
    union = [n for name in LIBRARY
             for n in importlib.import_module(f"lecamjd.{name}").__all__]
    assert sorted(lecamjd.__all__) == sorted(union)


def test_import_leaves_the_command_line_out(run_python):
    # the CLI and argparse load only when the command line runs
    proc = run_python("-c", "import sys, lecamjd; print(sorted(m for m in "
                      "('lecamjd.cli', 'argparse') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
