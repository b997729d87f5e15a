"""Benchmark harness for lecamjd.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``bench/METRICS.md``) on the package under
``src/`` of the checkout it sits in, for about ``S`` seconds of repeated
units, and checks every output.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the seed, the
environment, sample counts, raw times and output digests.

End-to-end times are medians of steps each timed between two runs of a
fixed calibration loop and rescaled to the host's reference speed (see
``clock.py`` and METRICS.md), because the shared host this was built on
changes speed by up to 2x, in phases of a second to minutes.

A traced run alternates untraced and traced units, so the tracing overhead
is measured in the same process.  The harness starts no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 7


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def import_times(runs: int):
    """Median cumulative import time of lecamjd and of the scipy it loads.

    Parsed from ``python -X importtime``; a scipy module counts when no
    scipy module encloses it, so nested imports are not added twice.
    """
    from workloads import child_env
    line_re = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)")
    total, scipy_part = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lecamjd"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            check=True)
        pending: list[tuple[int, str, int]] = []
        lecamjd_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            match = line_re.match(line)
            if not match:
                continue
            cum, depth, name = (int(match.group(1)), len(match.group(2)),
                                match.group(3))
            while pending and pending[-1][0] > depth:
                _, child, child_cum = pending.pop()
                if child.split(".")[0] == "scipy" and \
                        name.split(".")[0] != "scipy":
                    scipy_us += child_cum
            pending.append((depth, name, cum))
            if name == "lecamjd":
                lecamjd_us = cum
        total.append(lecamjd_us / 1e6)
        scipy_part.append(scipy_us / 1e6)
    return median(total), median(scipy_part)


def layer_metrics(tracer, work, units: int, walls, traced_walls,
                  import_s, import_scipy_s) -> dict:
    """Per-layer figures per traced unit, from the tracer's spans."""
    from tracing import span_table, union_length
    table = span_table(tracer.spans)

    def per_unit(name, key="calls"):
        return table.get(name, {}).get(key, 0) / units

    tv_ms = [1e3 * d for d in table.get("oracle.tv", {}).get("durations", [])]
    tv_calls = len(tv_ms)
    uncovered = []
    for run, wall in enumerate(traced_walls):
        tops = [(s, e) for _, s, e, parent, r in tracer.spans
                if parent is None and r == run]
        uncovered.append(wall - union_length(tops))
    cli_mains = {name: row for name, row in table.items()
                 if name.startswith("cli.main.")}
    m = {
        "model.summaries_calls": (per_unit("model.summaries"), "count"),
        "model.summaries_intervals": (tracer.summary_intervals / units,
                                      "count"),
        "model.summaries_s": (per_unit("model.summaries", "s"), "s"),
        "laws.density_calls": (per_unit("laws.density"), "count"),
        "laws.density_s": (per_unit("laws.density", "s"), "s"),
        "laws.pdf_calls": (tracer.pdf_calls / units, "count"),
        "laws.pdf_points": (tracer.pdf_points / units, "count"),
        "laws.points_per_call": (tracer.pdf_points / tracer.pdf_calls
                                 if tracer.pdf_calls else 0.0, "ratio"),
        "laws.pdf_s": (tracer.pdf_s / units, "s"),
        "oracle.tv_calls": (tv_calls / units, "count"),
        "oracle.tv_s": (per_unit("oracle.tv", "s"), "s"),
        "oracle.tv_self_s": ((table.get("oracle.tv", {}).get("s", 0.0)
                              - tracer.tv_pdf_s) / units, "s"),
        "oracle.tv_p50_ms": (quantile(tv_ms, 0.5), "ms"),
        "oracle.tv_p90_ms": (quantile(tv_ms, 0.9), "ms"),
        # both compared densities are evaluated at every quadrature node
        "oracle.pdf_calls_per_tv": (tracer.tv_pdf_calls / (2 * tv_calls)
                                    if tv_calls else 0.0, "ratio"),
        "oracle.max_abs_dev": (getattr(work, "max_abs_dev", 0.0), "1"),
        "kernels.pushforward_calls": (per_unit("kernels.pushforward"),
                                      "count"),
        "kernels.pushforward_s": (per_unit("kernels.pushforward", "s"), "s"),
        "kernels.fold_calls": (per_unit("kernels.fold"), "count"),
        "kernels.fold_s": (per_unit("kernels.fold", "s"), "s"),
        "kernels.transfer_calls": (per_unit("kernels.transfer"), "count"),
        "kernels.transfer_s": (per_unit("kernels.transfer", "s"), "s"),
        "kernels.truncate_resample_calls": (
            per_unit("kernels.truncate_resample"), "count"),
        "kernels.truncate_resample_s": (
            per_unit("kernels.truncate_resample", "s"), "s"),
        "distances.bound_calls": (per_unit("distances.bound"), "count"),
        "distances.bound_s": (per_unit("distances.bound", "s"), "s"),
        "simulate.path_calls": (per_unit("simulate.path"), "count"),
        "simulate.path_s": (per_unit("simulate.path", "s"), "s"),
        "simulate.white_noise_s": (per_unit("simulate.white_noise", "s"),
                                   "s"),
        "simulate.generator_calls": (per_unit("simulate.generator"),
                                     "count"),
        "experiments.estimator_calls": (per_unit("experiments.estimator"),
                                        "count"),
        "experiments.estimator_s": (per_unit("experiments.estimator", "s"),
                                    "s"),
        "experiments.sweep_self_s": (per_unit("experiments.sweep", "self_s"),
                                     "s"),
        "experiments.risk_self_s": (per_unit("experiments.risk", "self_s"),
                                    "s"),
        "experiments.risk_cpu_util": (median(getattr(work, "cpu_util", [])),
                                      "ratio"),
        "experiments.reps_per_s": (
            getattr(work, "replications", 0) / median(walls), "1/s"),
        "cli.self_s": (sum(r["self_s"] for r in cli_mains.values()) / units,
                       "s"),
        "cli.rows_per_s": ((work.rows_out / median(walls))
                           if work.name == "cli-pipeline" else 0.0, "1/s"),
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (import_scipy_s, "s"),
        "trace_overhead_s": (median(traced_walls) - median(walls), "s"),
        "trace_unattributed_s": (median(uncovered), "s"),
        "fail_ratio": (work.tally.failed / max(work.tally.attempted, 1),
                       "ratio"),
    }
    for label in ("validate", "simulate", "filter_round", "filter_truncate",
                  "bounds"):
        m[f"cli.main_s.{label}"] = (
            cli_mains.get(f"cli.main.{label}", {}).get("s", 0.0) / units,
            "s")
    return m


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lecamjd",
                                       "__init__.py")):
        print(f"no lecamjd package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass


def run(args, workloads, workdir) -> int:
    import lecamjd
    import numpy
    import scipy
    from clock import (PROCESS_REF_S, CalibratedClock, PlainClock,
                       calibration_process)
    from tracing import Tracer

    work = workloads.make(args.workload, args.size, args.seed, workdir)
    setup_runs = 1 if args.size == "tiny" else 5
    setup_clock = CalibratedClock(calibration_process, PROCESS_REF_S)
    for _ in range(setup_runs):
        code, _ = setup_clock.measure(
            "setup", lambda: workloads.run_child(work.setup_command()))
        work.tally.check(code == 0, f"set-up exited {code}")

    walls, traced_walls = [], []
    clock = CalibratedClock()
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        walls.append(work.unit(clock))
        if tracer is not None:
            tracer.run = len(traced_walls)
            traced_walls.append(work.unit(PlainClock(), tracer))

    if tracer is None:
        wall = clock.seconds()  # 0 only when every step failed
        metrics = {
            "setup_s": (setup_clock.seconds(), "s"),
            "wall_s": (wall, "s"),
            "intervals_per_s": (work.intervals / wall if wall else 0.0,
                                "1/s"),
            "peak_rss_mb": (work.peak_rss_mb, "MB"),
        }
    else:
        import_s, import_scipy_s = import_times(setup_runs)
        metrics = layer_metrics(tracer, work, len(traced_walls), walls,
                                traced_walls, import_s, import_scipy_s)

    from lecamjd.experiments import worker_count
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "commit": git_commit(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "lecamjd": lecamjd.__version__,
        "LECAM_THREADS": os.environ.get("LECAM_THREADS"),
        "worker_count": worker_count(),
        "samples": {"setup": setup_runs, "units": len(walls),
                    "traced_units": len(traced_walls)},
        "setup_raw_s": setup_clock.walls,
        "step_raw_s": clock.walls,
        "step_calibrated_ratios": clock.ratios,
        "setup_calibration_s": setup_clock.calibrations,
        "calibration_s": clock.calibrations,
        "unit_walls_s": walls,
        "digests": work.digests,
        "failures": work.tally.notes,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": work.tally.failed == 0,
        "attempted": work.tally.attempted,
        "failed": work.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
