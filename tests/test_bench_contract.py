"""The package names and call forms that the benchmark harness relies on.

``bench/tracing.py`` rebinds layer entry points of ``lecamjd.experiments``
and ``lecamjd.cli`` and wraps the ``pdf`` field of the densities they
return.  A rebound name is timed only where the drivers call it by that
name: the sweeps' oracle work is the two ``tv_quadrature`` calls per grid
that ``run_convergence`` makes through ``lecamjd.experiments``.  The
CLI imports a subcommand's layers when it first runs, so a rebinding made
on ``lecamjd.cli`` before then must stand.
``bench/run.py`` reads ``lecamjd.experiments.worker_count``; and
``bench/workloads.py`` calls the two experiment drivers with positional
arguments on the specs of ``bench/specs.py`` and reads fields of their
rows.  Changing any of these breaks only benchmark runs, or leaves a
layer's span empty, so they are checked here.  So is the benchmark's own output check: a unit of each
workload, run by ``bench/workloads.py`` against ``bench/reference.json``,
must fail no operation.
"""

import dataclasses
import importlib.util
import json
import math
import pathlib
import sys

import pytest

import lecamjd.cli
import lecamjd.experiments
from lecamjd.laws import Density
from lecamjd.simulate import RngStream

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

#: a small valid config for the CLI
CLI_CONFIG = {"drift": {"kind": "constant", "value": 0.1},
              "sigma": {"kind": "constant", "value": 1.0},
              "intensity": {"kind": "constant", "value": 1.0},
              "jump_law": {"kind": "dirac", "location": 1.0},
              "epsilon_n": 0.05, "horizon": 1.0, "n": 8}


def load_bench(name, monkeypatch=None, as_name=None):
    """``bench/<name>.py`` as a fresh module; with ``monkeypatch``, also
    in ``sys.modules`` (as ``as_name``, if given) for the test's span."""
    as_name = as_name or f"bench_{name}"
    spec = importlib.util.spec_from_file_location(as_name,
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, as_name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_bench("tracing")
    for module, spans in ((lecamjd.experiments, tracing._EXPERIMENT_SPANS),
                          (lecamjd.cli, tracing._CLI_SPANS)):
        missing = [name for names in spans.values() for name in names
                   if not callable(getattr(module, name, None))]
        assert missing == [], f"{module.__name__} lacks {missing}"


#: run in a fresh interpreter: rebind two of the names the CLI spans wrap
#: before any subcommand has run, either reading each first (as
#: ``monkeypatch.setattr`` and ``bench/tracing.py`` do) or setting it
#: blind, run ``simulate``, then restore the originals and run it again
REBIND_SCRIPT = """if True:
    import importlib, json, sys
    import lecamjd.cli as cli
    read_first = sys.argv[1] == "read"
    argv = ["simulate", "--config", sys.argv[2], "--out", sys.argv[3]]
    assert "lecamjd.simulate" not in sys.modules
    calls, saved = [], {}
    for name, home in (("sample_path", "simulate"),
                       ("build_increment_summaries", "model")):
        if read_first:
            original = getattr(cli, name)
        else:
            original = getattr(importlib.import_module(f"lecamjd.{home}"),
                               name)
        saved[name] = original

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        setattr(cli, name, counted)
    assert cli.main(argv) == 0
    wrapped = sorted(calls)
    for name, original in saved.items():
        setattr(cli, name, original)
    calls.clear()
    assert cli.main(argv) == 0
    print(json.dumps([wrapped, calls, cli.sample_path
                      is sys.modules["lecamjd.simulate"].sample_path]))
"""


@pytest.mark.parametrize("how", ["read", "blind"])
def test_a_cli_rebinding_made_before_the_first_call_stands(run_python,
                                                          tmp_path, how):
    # the CLI imports a subcommand's layers when it runs; that import
    # must not replace a wrapper already bound on lecamjd.cli
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
    proc = run_python("-c", REBIND_SCRIPT, how, str(cfg),
                      str(tmp_path / "path.csv"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["build_increment_summaries", "sample_path"], [], True]


def test_worker_count_exists():
    assert lecamjd.experiments.worker_count() == 1


def test_density_has_a_pdf_field():
    assert dataclasses.is_dataclass(Density)
    assert "pdf" in {f.name for f in dataclasses.fields(Density)}


def test_sweep_call_form_and_row_fields(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # specs prepends src
    specs = load_bench("specs")
    for case, spec in (("continuous", specs.continuous_spec()),
                       ("lattice", specs.lattice_spec())):
        # jump_case positional, as the sweep workloads pass it
        rows = lecamjd.experiments.run_convergence(spec, [4], case)
        assert len(rows) == 1 and rows[0].n == 4
        for name in ("oracle_product_bound", "aggregate_bound",
                     "rate_prediction", "delta_n"):
            assert math.isfinite(getattr(rows[0], name)), (case, name)


@pytest.mark.parametrize("case", ["continuous", "lattice"])
def test_sweeps_call_the_oracle_twice_per_grid(monkeypatch, case):
    # the oracle.tv span wraps this binding: one call for the one-jump
    # step and one for the filter step of each grid
    monkeypatch.setattr(sys, "path", list(sys.path))
    specs = load_bench("specs")
    spec = {"continuous": specs.continuous_spec,
            "lattice": specs.lattice_spec}[case]()
    calls = []
    tv = lecamjd.experiments.tv_quadrature

    def counted(p, q):
        calls.append(p.rows)
        return tv(p, q)

    monkeypatch.setattr(lecamjd.experiments, "tv_quadrature", counted)
    rows = lecamjd.experiments.run_convergence(spec, [4, 8, 16], case)
    assert len(rows) == 3 and len(calls) == 2 * 3
    # the filter step compares a row per interval
    assert calls[1::2] == [4, 8, 16]


def test_risk_call_form_and_row_fields(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    specs = load_bench("specs")
    rows = lecamjd.experiments.run_risk_transfer(
        specs.risk_spec(), lecamjd.experiments.default_drift_estimator, [4],
        2, RngStream(0, 0))
    assert len(rows) == 1 and rows[0].n == 4 and rows[0].replications == 2
    for name in ("mise_direct_gaussian", "mise_transferred",
                 "mise_naive_on_jumps"):
        assert math.isfinite(getattr(rows[0], name)), name


@pytest.mark.parametrize("name, size", [
    ("sweep-continuous", "full"), ("sweep-continuous", "tiny"),
    ("sweep-lattice", "full"), ("sweep-lattice", "tiny"),
    ("cli-pipeline", "tiny")])
def test_a_workload_unit_passes_the_benchmarks_checks(monkeypatch, tmp_path,
                                                      name, size):
    # the harness reports outputs_incorrect on any failed operation
    monkeypatch.setattr(sys, "path", list(sys.path))
    load_bench("specs", monkeypatch, as_name="specs")
    workloads = load_bench("workloads", monkeypatch)
    work = workloads.make(name, size, seed=7, workdir=str(tmp_path))
    work.unit(load_bench("clock").PlainClock())
    assert work.tally.attempted > 0
    assert (work.tally.failed, work.tally.notes) == (0, [])
