"""Workload inputs: the criterion-6/7 model specs and the README CLI config.

Importing this module imports ``lecamjd`` from the checkout's ``src``
directory, so the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import lecamjd as lj  # noqa: E402

#: dyadic sizes held in the reference file, for both sweep specs
REFERENCE_N = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]

#: the README lattice config; the pipeline overrides ``n``
CLI_CONFIG = {
    "drift": {"kind": "sine", "offset": 0.2, "amplitude": 0.1,
              "angular_frequency": 6.283185307179586},
    "sigma": {"kind": "constant", "value": 1.0},
    "intensity": {"kind": "constant", "value": 1.0},
    "jump_law": {"kind": "dirac", "location": 1.0},
    "epsilon_n": 0.05,
    "horizon": 1.0,
    "n": 64,
}


def continuous_spec() -> lj.ModelSpec:
    """Criterion 6, continuous case: gaussian jumps, epsilon_n 0.2."""
    return lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0), sigma=lj.constant(1.0),
                        epsilon_n=0.2, intensity=lj.constant(0.5),
                        jump_law=lj.gaussian_jumps(7.5, 0.5), horizon=1.0)


def lattice_spec() -> lj.ModelSpec:
    """Criterion 6, lattice case: unit Dirac jumps, epsilon_n 1.0."""
    return lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0), sigma=lj.constant(1.0),
                        epsilon_n=1.0, intensity=lj.constant(0.5),
                        jump_law=lj.DiracJump(1.0), horizon=1.0)


def risk_spec() -> lj.ModelSpec:
    """Criterion 7: slow sine drift, epsilon_n 0.05, unit Dirac jumps."""
    return lj.ModelSpec(drift=lj.sine(0.2, 0.1, 2 * math.pi),
                        sigma=lj.constant(1.0), epsilon_n=0.05,
                        intensity=lj.constant(1.0),
                        jump_law=lj.DiracJump(1.0), horizon=1.0)
