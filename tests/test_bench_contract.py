"""The package names and call forms that the benchmark harness relies on.

``bench/tracing.py`` rebinds layer entry points of ``lecamjd.experiments``
and ``lecamjd.cli`` and wraps the ``pdf`` field of the densities they
return.  A rebound name is timed only where the drivers call it by that
name: the sweeps' oracle work is the two ``tv_quadrature`` calls per grid
that ``run_convergence`` makes through ``lecamjd.experiments``.
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
import math
import pathlib
import sys

import pytest

import lecamjd.cli
import lecamjd.experiments
from lecamjd.laws import Density
from lecamjd.simulate import RngStream

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


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
