"""Every script under ``demos/`` runs to completion and prints its report,
and the README's python example runs."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["bound_tightness", "convergence_sweep",
                                  "risk_transfer", "simulate_and_filter"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
