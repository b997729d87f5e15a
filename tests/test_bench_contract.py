"""The package names that the benchmark harness reaches into by name.

``bench/tracing.py`` rebinds layer entry points of ``lecamjd.experiments``
and ``lecamjd.cli`` and wraps the ``pdf`` field of the densities they
return; ``bench/run.py`` reads ``lecamjd.experiments.worker_count``.
Renaming or deleting any of these breaks only traced benchmark runs, so
they are checked here.
"""

import dataclasses
import importlib.util
import pathlib

import lecamjd.cli
import lecamjd.experiments
from lecamjd.laws import Density

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
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
