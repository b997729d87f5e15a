"""Every script under ``demos/`` runs to completion and prints its report."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["bound_tightness", "convergence_sweep",
                                  "risk_transfer", "simulate_and_filter"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
