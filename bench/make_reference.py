"""Capture the reference values the benchmark's correctness gate checks.

Run from the repository root on a known-good commit:

    python3 bench/make_reference.py

It times the full criterion-6 sweeps (n = 16...2048, both specs), which
doubles as the baseline cross-check, adds the n = 4 and 8 rows used by the
tiny self-test size, and pins the SHA-256 of the ``bounds`` CSV for the
pipeline sizes.  The result is written to ``bench/reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

import specs
from specs import lj
from lecamjd.cli import main as cli_main

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
CRITERION6_N = [n for n in specs.REFERENCE_N if n >= 16]
SMALL_N = [n for n in specs.REFERENCE_N if n < 16]
CLI_N = [1 << 10, 1 << 16]


def bounds_digest(n: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "bounds.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(dict(specs.CLI_CONFIG, n=n), fh)
        if cli_main(["bounds", "--config", cfg, "--out", out]) != 0:
            raise SystemExit(f"bounds failed at n={n}")
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    sweeps, seconds = {}, {}
    for case, spec in (("continuous", specs.continuous_spec()),
                       ("lattice", specs.lattice_spec())):
        t0 = time.perf_counter()
        rows = lj.run_convergence(spec, CRITERION6_N, case)
        seconds[case] = time.perf_counter() - t0
        print(f"criterion-6 {case} sweep n=16..2048: {seconds[case]:.1f} s",
              flush=True)
        rows += lj.run_convergence(spec, SMALL_N, case)
        sweeps[case] = {str(r.n): dataclasses.asdict(r)
                        for r in sorted(rows, key=lambda r: r.n)}
    ref = {
        "captured_on": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "nproc": os.cpu_count()},
        "criterion6_sweep_s": seconds,
        "sweeps": sweeps,
        "bounds_sha256": {str(n): bounds_digest(n) for n in CLI_N},
    }
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
