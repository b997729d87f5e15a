"""The benchmark's four workloads and the checks on their outputs.

Each workload exposes ``setup_command()`` (one fresh-interpreter set-up,
timed from outside), ``unit(tracer)`` (one timed unit of work; traced when
``tracer`` is given) and counts of the grid intervals and output rows one
unit handles.  ``unit`` records every checked operation in ``self.tally``;
an exception, a non-zero exit or a failed check counts as a failed
operation and never stops the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import specs
from specs import lj
import lecamjd.cli
import lecamjd.experiments as experiments

BENCH = os.path.dirname(os.path.abspath(__file__))
NAMES = ("sweep-continuous", "sweep-lattice", "risk-mc", "cli-pipeline")

#: per size profile: sweep n-lists, risk (n-list, reps), pipeline n
SIZES = {
    "full": {"sweep-continuous": [16, 32],
             "sweep-lattice": [16, 32, 64, 128, 256, 512],
             "risk-mc": ([256, 1024, 4096], 250),
             "cli-pipeline": 1 << 16},
    "tiny": {"sweep-continuous": [4, 8],
             "sweep-lattice": [4, 8, 16],
             "risk-mc": ([64, 256], 200),
             "cli-pipeline": 1 << 10},
}

#: tolerances of the sweep gate (oracle: absolute; closed forms: relative)
ORACLE_ABS_TOL = 1e-9
CLOSED_FORM_REL_TOL = 1e-12
#: criterion 7: transferred risk within 25 % of direct, naive above 4x
TRANSFER_REL_TOL = 0.25
NAIVE_MIN_RATIO = 4.0


def load_reference() -> dict:
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Tally:
    """Checked operations, failures, and the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = specs.SRC + (os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd) -> int:
    """Run one process to its end; return its exit code."""
    return subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, env=child_env(),
                          cwd=specs.ROOT).returncode


class _InProcess:
    """Shared parts of the workloads that run inside the harness process."""

    name: str
    digests: dict = {}

    def setup_command(self):
        return [sys.executable, os.path.join(BENCH, "setup_probe.py"),
                self.name]

    @staticmethod
    def step(clock, tracer, label, layer, span, fn):
        """Time ``fn`` as step ``label``; traced under ``span`` if asked."""
        if tracer is None:
            return clock.measure(label, fn)
        with tracer.installed(layer), tracer.span(span):
            return clock.measure(label, fn)

    @property
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SweepWorkload(_InProcess):
    """``run_convergence`` on one criterion-6 spec, checked per row."""

    def __init__(self, name: str, size: str, reference: dict):
        self.name = name
        self.case = name.split("-", 1)[1]
        self.n_list = SIZES[size][name]
        self.reference = reference["sweeps"][self.case]
        self.spec = (specs.continuous_spec() if self.case == "continuous"
                     else specs.lattice_spec())
        self.tally = Tally()
        self.intervals = sum(self.n_list)
        self.rows_out = len(self.n_list)
        self.max_abs_dev = 0.0

    def unit(self, clock, tracer=None) -> float:
        """One sweep; each n is its own ``run_convergence`` call and step."""
        total, rows = 0.0, []
        for n in self.n_list:
            try:
                got, wall = self.step(
                    clock, tracer, f"n={n}", "experiments",
                    "experiments.sweep", lambda: experiments.run_convergence(
                        self.spec, [n], self.case))
            except Exception as exc:  # any failure is a failed operation
                self.tally.check(False, f"n={n}: {type(exc).__name__}: {exc}")
                continue
            total += wall
            rows.extend(got)
            self.check_row(n, got)
        self.digests = {"rows": sha256(repr(rows).encode())}
        return total

    def check_row(self, n: int, rows) -> None:
        ref = self.reference[str(n)]
        if len(rows) != 1 or rows[0].n != n:
            self.tally.check(False, f"n={n}: got rows {rows}")
            return
        row = rows[0]
        dev = abs(row.oracle_product_bound - ref["oracle_product_bound"])
        self.max_abs_dev = max(self.max_abs_dev, dev)
        ok = (dev <= ORACLE_ABS_TOL
              and _rel_close(row.aggregate_bound, ref["aggregate_bound"])
              and _rel_close(row.rate_prediction, ref["rate_prediction"])
              and _rel_close(row.delta_n, ref["delta_n"]))
        self.tally.check(ok, f"n={n}: {row} differs from reference")


def _rel_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= CLOSED_FORM_REL_TOL * abs(ref)


class RiskWorkload(_InProcess):
    """``run_risk_transfer`` at criterion 7's spec and the default pool."""

    name = "risk-mc"

    def __init__(self, size: str, seed: int):
        self.n_list, self.reps = SIZES[size][self.name]
        self.seed = seed
        self.spec = specs.risk_spec()
        self.tally = Tally()
        self.intervals = self.reps * sum(self.n_list)
        self.rows_out = len(self.n_list)
        self.replications = self.reps * len(self.n_list)
        self.cpu_util: list[float] = []
        self.first_rows: dict = {}

    def unit(self, clock, tracer=None) -> float:
        """One ``run_risk_transfer`` call per n, each on its own stream."""
        estimator = experiments.default_drift_estimator
        if tracer is not None:
            estimator = tracer.wrap(estimator, "experiments.estimator")
        total, cpu = 0.0, 0.0
        for index, n in enumerate(self.n_list):
            def replications(index=index, n=n):
                nonlocal cpu
                c0 = time.process_time()
                rows = experiments.run_risk_transfer(
                    self.spec, estimator, [n], self.reps,
                    lj.RngStream(self.seed, index))
                cpu += time.process_time() - c0
                return rows
            try:
                rows, wall = self.step(clock, tracer, f"n={n}", "experiments",
                                       "experiments.risk", replications)
            except Exception as exc:  # any failure is a failed operation
                self.tally.check(False, f"n={n}: {type(exc).__name__}: {exc}")
                continue
            total += wall
            self.check_row(n, rows)
        if tracer is None and total > 0:
            self.cpu_util.append(cpu / total)
        return total

    def check_row(self, n: int, rows) -> None:
        first = self.first_rows.setdefault(n, rows)
        self.digests = {"rows": sha256(repr(
            [self.first_rows[k] for k in sorted(self.first_rows)]).encode())}
        if len(rows) != 1 or rows[0].n != n:
            self.tally.check(False, f"n={n}: got rows {rows}")
            return
        row = rows[0]
        direct = row.mise_direct_gaussian
        values = (direct, row.mise_transferred, row.mise_naive_on_jumps)
        ok = (all(math.isfinite(v) for v in values) and direct > 0
              and abs(row.mise_transferred - direct) / direct
              < TRANSFER_REL_TOL
              and row.mise_naive_on_jumps / direct > NAIVE_MIN_RATIO
              and row.replications == self.reps
              and rows == first)
        self.tally.check(ok, f"n={n}: {row} breaks criterion 7 or "
                             "differs from the run's first unit")


class CliWorkload(_InProcess):
    """The CLI's subcommands chained on the README config.

    Each step calls ``lecamjd.cli.main`` in the harness process, so the
    figures hold argument and config parsing, the work and CSV parsing and
    emission; the per-process import a shell user also pays is the
    workload's set-up, one ``python -m lecamjd validate`` process.
    """

    name = "cli-pipeline"
    #: (label, argv after ``lecamjd``, output file or None)
    STEPS = (
        ("validate", ["validate", "--config", "{cfg}"], None),
        ("simulate", ["simulate", "--config", "{cfg}", "--seed", "{seed}",
                      "--out", "{sim}"], "sim"),
        ("filter_round", ["filter", "{sim}", "--kernel", "round",
                          "--out", "{round}"], "round"),
        ("filter_truncate", ["filter", "{sim}", "--kernel", "truncate",
                             "--config", "{cfg}", "--seed", "{seed}",
                             "--out", "{trunc}"], "trunc"),
        ("bounds", ["bounds", "--config", "{cfg}", "--out", "{bounds}"],
         "bounds"),
    )

    def __init__(self, size: str, seed: int, workdir: str, reference: dict):
        self.n = SIZES[size][self.name]
        self.seed = seed
        self.workdir = workdir
        self.bounds_sha = reference["bounds_sha256"].get(str(self.n))
        self.files = {key: os.path.join(workdir, f"{key}.csv")
                      for key in ("sim", "round", "trunc", "bounds")}
        self.files["cfg"] = os.path.join(workdir, "config.json")
        with open(self.files["cfg"], "w", encoding="utf-8") as fh:
            json.dump(dict(specs.CLI_CONFIG, n=self.n), fh)
        self.tally = Tally()
        self.intervals = 4 * self.n
        self.rows_out = 4 * self.n + 1
        self.digests: dict[str, str] = {}
        self.first_digests: dict[str, str] = {}

    def _argv(self, template):
        return [part.format(seed=self.seed, **self.files)
                for part in template]

    def setup_command(self):
        return [sys.executable, "-m", "lecamjd"] + self._argv(
            self.STEPS[0][1])

    def unit(self, clock, tracer=None) -> float:
        total = 0.0
        for label, template, out_key in self.STEPS:
            if out_key and os.path.exists(self.files[out_key]):
                os.remove(self.files[out_key])
            argv = self._argv(template)
            try:
                # bound warnings go to stderr; the CSVs are what is checked
                with contextlib.redirect_stderr(io.StringIO()):
                    code, wall = self.step(
                        clock, tracer, label, "cli", f"cli.main.{label}",
                        lambda: lecamjd.cli.main(argv))
                total += wall
            except Exception as exc:  # any failure is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            self.tally.check(code == 0, f"{label} returned {code}")
        self.check_outputs()
        return total

    def _read(self, key):
        try:
            with open(self.files[key], "rb") as fh:
                return fh.read()
        except OSError:
            return b""

    def check_outputs(self) -> None:
        sim, rnd = self._read("sim"), self._read("round")
        trunc, bounds = self._read("trunc"), self._read("bounds")
        self.digests = {"simulate": sha256(sim), "filter_round": sha256(rnd),
                        "filter_truncate": sha256(trunc),
                        "bounds": sha256(bounds)}
        for key, digest in self.digests.items():
            self.first_digests.setdefault(key, digest)

        sim_rows = _csv_rows(sim, "t_i,increment,gaussian_part,"
                                  "n_jumps_in_interval")
        inc = _column(sim_rows, 1)
        self.tally.check(inc is not None and inc.size == self.n
                         and bool(np.all(np.isfinite(inc))),
                         "simulate: not n finite rows")
        expected = None
        if inc is not None:
            frac = inc - np.rint(inc)
            expected = "".join(
                [f"t_i,filtered_increment\n"]
                + [f"{row[0]},{float(v)!r}\n"
                   for row, v in zip(sim_rows, frac)]).encode()
        frac_out = _column(_csv_rows(rnd, "t_i,filtered_increment"), 1)
        self.tally.check(
            rnd == expected and frac_out is not None
            and frac_out.size == self.n
            and bool(np.all(np.abs(frac_out) <= 0.5)),
            "filter --kernel round: differs from x - rint(x) of the "
            "simulate CSV or leaves [-0.5, 0.5]")
        trunc_out = _column(_csv_rows(trunc, "t_i,filtered_increment"), 1)
        self.tally.check(trunc_out is not None and trunc_out.size == self.n
                         and bool(np.all(np.isfinite(trunc_out))),
                         "filter --kernel truncate: not n finite rows")
        self.tally.check(self.digests["bounds"] == self.bounds_sha,
                         "bounds: CSV digest differs from the reference")
        for key in ("simulate", "filter_truncate"):
            self.tally.check(self.digests[key] == self.first_digests[key],
                             f"{key}: same seed gave different bytes")


def _csv_rows(data: bytes, header: str):
    """Data rows split on commas, or None if the header is wrong."""
    lines = data.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def _column(rows, index: int):
    if rows is None:
        return None
    try:
        return np.array([float(row[index]) for row in rows])
    except (IndexError, ValueError):
        return None


def make(name: str, size: str, seed: int, workdir: str,
         reference: dict | None = None):
    reference = load_reference() if reference is None else reference
    if name == "risk-mc":
        return RiskWorkload(size, seed)
    if name == "cli-pipeline":
        return CliWorkload(size, seed, workdir, reference)
    return SweepWorkload(name, size, reference)
