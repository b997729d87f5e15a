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


#: a script that runs its first argument, then prints the package's
#: submodules and the other watched modules that are loaded
LOADED = ("import sys; exec(sys.argv[1]); print(' '.join(sorted("
          "m for m in sys.modules if m.startswith('lecamjd.') "
          "or m == 'argparse')))")


def loaded_after(run_python, statements):
    proc = run_python("-c", LOADED, statements)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_the_command_line_out(run_python):
    # the package loads no library module until a name is used, and the
    # CLI and argparse only when the command line runs
    assert loaded_after(run_python, "import lecamjd") == []
    # a dunder probe (as inspection tools make) loads nothing either
    assert loaded_after(run_python, "import lecamjd; "
                        "assert not hasattr(lecamjd, '__wrapped__')") == []
    # every library layer, loaded through the exports, still leaves
    # the CLI and argparse out
    assert loaded_after(run_python, "from lecamjd import *") == sorted(
        ["lecamjd._gauss", "lecamjd._quadrature"]
        + [f"lecamjd.{name}" for name in LIBRARY])


def test_a_name_loads_only_its_layer(run_python):
    assert loaded_after(run_python, "import lecamjd as lj; lj.ModelSpec") == [
        "lecamjd._gauss", "lecamjd._quadrature", "lecamjd.model"]
    assert loaded_after(run_python, "import lecamjd as lj; lj.sample_path") \
        == ["lecamjd._gauss", "lecamjd._quadrature", "lecamjd.model",
            "lecamjd.simulate"]


def test_lazy_names_submodules_and_dir_resolve(run_python):
    proc = run_python("-c", """if True:
        import sys
        import lecamjd as lj
        # each submodule named before anything imports it
        assert lj._quadrature is sys.modules["lecamjd._quadrature"]
        assert lj.oracle is sys.modules["lecamjd.oracle"]
        assert lj.tv_quadrature is lj.oracle.tv_quadrature
        assert lj.QuadratureError is lj._quadrature.QuadratureError
        names = dir(lj)
        assert set(lj.__all__) | {"oracle", "experiments", "__version__"} \
            <= set(names), names
        namespace = {}
        exec("from lecamjd import *", namespace)
        assert set(lj.__all__) <= namespace.keys()
        try:
            lj.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        """)
    assert proc.returncode == 0, proc.stderr


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
