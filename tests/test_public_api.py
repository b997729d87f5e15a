"""The public surface: every name an export list promises exists, once,
and has a caller outside the unit tests.

A function deleted from a module can survive in an ``__all__``, where it
breaks only ``from ... import *``; these checks catch that, and a public
function that nothing calls.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]

#: where a caller of a public name counts: the library itself, the demos,
#: the benchmark and the acceptance gate, but no unit test
CALLER_FILES = [
    *(p for p in (ROOT / "src" / "lecamjd").glob("*.py")
      if p.name != "__init__.py"),
    *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py"]

#: public names with no such caller, each kept for a ROADMAP item
KEPT_WITHOUT_A_CALLER = {
    "hellinger_quadrature": "item 16 makes it the bracket's batch of one",
    "weighted_integral_statistic": "item 14(b)'s white-noise statistic",
    "total_mass": ("the mass checks of test_laws, test_kernels, "
                   "test_oracle and test_tables; item 26's oracle-mass "
                   "property"),
}


def names_used(path):
    """Names a file reads, the attributes it takes and the names it
    imports; a mention in a string or docstring does not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller():
    # the package's names and the CLI's, which the package leaves out
    cli = importlib.import_module("lecamjd.cli")
    public = {*lecamjd.__all__, *cli.__all__}
    used = set().union(*map(names_used, CALLER_FILES))
    uncalled = public - used
    assert uncalled == KEPT_WITHOUT_A_CALLER.keys()
