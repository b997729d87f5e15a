"""Shared scalar Gaussian helpers.

Tail probabilities go through the complementary error function so that
values like Phi(-15) keep full relative accuracy instead of rounding to
zero; several bound formulas live entirely in that tail regime.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def norm_pdf(x, mean=0.0, sd=1.0):
    z = (np.asarray(x, dtype=float) - mean) / sd
    return np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / sd)


def norm_cdf(x, mean=0.0, sd=1.0):
    z = (np.asarray(x, dtype=float) - mean) / sd
    return 0.5 * special.erfc(-z / _SQRT2)


def std_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) * _INV_SQRT_2PI


def std_cdf(z):
    return 0.5 * special.erfc(-np.asarray(z, dtype=float) / _SQRT2)
