"""Jump-filtering kernels, estimator transfer, and the weighted-integral
statistic.

Two filters map jump-contaminated increments toward Gaussian ones:

* the fractional-part map ``x -> x - [x]`` (nearest integer, ties to even),
  which erases integer-lattice jumps exactly;
* truncate-and-resample, the identity on the closed ball ``[-beta, beta]``
  with an independent centered Gaussian redraw outside.

Which one applies follows from the jump law (:func:`jump_case_of`).
Both come with pushforward constructors on :class:`~lecamjd.laws.Density`
so the quadrature oracle can measure exactly what each filter does to a
law; a table with a row per interval is pushed forward row by row into
another table.  Also here: the estimator-transfer wrapper and the
weighted-integral statistic, which passes from discretely to continuously
observed Gaussian experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import integrate
from .laws import Density, MixtureTable
from .model import (ContinuousJumps, DiracJump, Grid, JumpLaw, LatticeJumps,
                    as_time_function)
from .simulate import RngStream

__all__ = [
    "jump_case_of",
    "round_to_lattice",
    "fold_density_to_lattice_cell",
    "TruncateResampleParams",
    "truncate_resample",
    "truncate_resample_pushforward",
    "transfer_estimator",
    "weighted_integral_statistic",
]

#: default drift cap and exponent for the truncate-and-resample kernel
DEFAULT_L = 1.0 / 3.0
DEFAULT_EPSILON = 0.5


def jump_case_of(law: JumpLaw) -> str:
    """``"lattice"`` for integer jumps, which the fractional-part map
    erases; ``"continuous"`` for a continuous jump law, which
    truncate-and-resample erases.  Any other law (a Dirac jump off the
    integers) raises ``ValueError``."""
    if isinstance(law, LatticeJumps) or (
            isinstance(law, DiracJump) and float(law.location).is_integer()):
        return "lattice"
    if isinstance(law, ContinuousJumps):
        return "continuous"
    raise ValueError(f"no kernel erases the jumps of {law!r}: they need "
                     "integer-lattice sizes or a continuous jump law")


def round_to_lattice(x):
    """Fractional part relative to the nearest integer, ties to even.

    Output lies in [-0.5, 0.5] and is invariant under integer shifts of
    the input.
    """
    x_arr = np.asarray(x, dtype=float)
    out = x_arr - np.rint(x_arr)
    return float(out) if np.ndim(x) == 0 else out


def _fold_table(t: MixtureTable) -> MixtureTable:
    """Fold bare mixture rows onto the lattice cell, row by row: the
    result's rows are restricted to the cell, radius 1/2.

    Per row, in entry order, a component (an entry of positive weight)
    joins the first earlier slot with the same sd whose center (mean minus
    its nearest integer) lies within a few ulps of its own on the circle,
    so that centers +1/2 and -1/2 meet, adding its weight; each slot then
    contributes its center shifted by every integer up to 12 sds plus one.
    A row with fewer shifted components than the widest is padded with
    ``(0, 1, 0)``, of weight 0.
    """
    rows, width = t.means.shape
    centers = t.means - np.rint(t.means)
    tol = (32.0 * np.finfo(float).eps) * np.maximum(1.0, np.abs(t.means))
    c, sd, w = np.zeros((rows, width)), np.ones((rows, width)), \
        np.zeros((rows, width))
    used = np.zeros(rows, dtype=np.intp)
    everyone = np.arange(rows)
    for j in range(width):
        d = c - centers[:, j, None]
        match = ((np.arange(width) < used[:, None])
                 & (sd == t.sds[:, j, None])
                 & (np.abs(d - np.rint(d)) <= tol[:, j, None]))
        real = t.weights[:, j] > 0.0
        hit = real & match.any(axis=1)
        r = everyone[hit]
        w[r, match[hit].argmax(axis=1)] += t.weights[hit, j]
        r = everyone[real & ~hit]
        c[r, used[r]], sd[r, used[r]], w[r, used[r]] = (
            centers[r, j], t.sds[r, j], t.weights[r, j])
        used[r] += 1
    slot = np.arange(width) < used[:, None]
    reach = np.where(slot, np.ceil(12.0 * sd).astype(np.intp) + 1, 0)
    counts = np.where(slot, 2 * reach + 1, 0)
    # one entry per output component: its row, its slot and its shift
    r, s = np.nonzero(slot)
    n = counts[r, s]
    rr, ss = np.repeat(r, n), np.repeat(s, n)
    step = np.arange(rr.size) - np.repeat(np.cumsum(n) - n, n)
    col = np.repeat((np.cumsum(counts, axis=1) - counts)[r, s], n) + step
    shape = (rows, int(counts.sum(axis=1).max()))
    means, sds, weights = np.zeros(shape), np.ones(shape), np.zeros(shape)
    means[rr, col] = c[rr, ss] + (step - reach[rr, ss])
    sds[rr, col], weights[rr, col] = sd[rr, ss], w[rr, ss]
    return MixtureTable(means, sds, weights, beta=0.5)


def fold_density_to_lattice_cell(d: Density) -> Density:
    """Pushforward of a density under the fractional-part map.

    The result lives on ``[-0.5, 0.5]`` and equals the sum of the input
    over all integer shifts: a table restricted to that cell, whose rows
    the oracle splits as any restricted row.  Bare Gaussian mixture rows
    are folded structurally, row by row: components whose centers coincide
    modulo 1 (within a few ulps, to absorb the rounding of integer-shifted
    means) are merged, so laws that the filter maps to the same wrapped
    Gaussian produce literally identical component lists instead of
    agreeing only up to floating-point noise.  Rows with an Irwin-Hall
    term, a restriction or a top-up raise ``ValueError``.
    """
    t = d.table
    if not (t.plain & ~t.boxed).all():
        raise ValueError("only bare Gaussian mixture rows fold onto the "
                         "lattice cell")
    return Density(_fold_table(t))


@dataclass(frozen=True)
class TruncateResampleParams:
    """Ball radius data for the truncate-and-resample filter.

    ``L`` caps the interval drifts ``|m_i|``, ``epsilon`` in (0, 1) sets
    the radius exponent, ``sigma_i`` is the interval's noise SD (a scalar,
    or an array giving one radius per interval); the kept region is the
    closed ball of radius ``beta = L + sigma_i**(1 - epsilon)``.
    """

    L: float
    epsilon: float
    sigma_i: float | np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L >= 0):
            raise ValueError(
                f"L must be finite and nonnegative (got {self.L!r})")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not np.all(np.asarray(self.sigma_i) > 0):
            raise ValueError("sigma_i must be positive")

    @property
    def beta(self):
        # float_power, not **: numpy's SIMD power loop may differ from the
        # scalar pow behind Python's ** in the last bit, and array radii
        # must equal the scalar ones exactly
        beta = self.L + np.float_power(self.sigma_i, 1.0 - self.epsilon)
        return float(beta) if np.ndim(beta) == 0 else beta

    def escaped(self, x) -> np.ndarray:
        """Where ``x`` lies outside the closed ball (elementwise)."""
        return np.abs(x) > self.beta


def truncate_resample(x, params: TruncateResampleParams, rng: RngStream):
    """Identity inside the closed ball, Gaussian redraw outside.

    Accepts a scalar or an array.  The deterministic branch consumes no
    randomness; redraws are Normal(0, sigma_i^2), one per escaped entry in
    order, each with its own entry's sigma_i when that is an array.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = x_arr.copy()
    escaped = params.escaped(x_arr)
    k = int(np.count_nonzero(escaped))
    if k:
        sigma = np.broadcast_to(params.sigma_i, x_arr.shape)[escaped]
        out[escaped] = sigma * rng.generator().standard_normal(k)
    return float(out[0]) if np.ndim(x) == 0 else out


def truncate_resample_pushforward(d: Density,
                                  params: TruncateResampleParams) -> Density:
    """Law of the truncate-and-resample output for input law ``d``.

    Restriction of ``d`` to the ball plus the escaped mass times the
    resampling Gaussian; the escaped mass is the closed form
    :meth:`~lecamjd.laws.MixtureTable.escaped_mass` of ``d``'s table, a
    sum of Gaussian tails and Irwin-Hall tail integrals.  A table is pushed
    forward row by row, with ``params.sigma_i`` holding one noise sd per
    row; rows that are already restricted (folded ones too) or topped up
    raise ``ValueError``.
    """
    t = d.table
    return Density(replace(t, beta=params.beta,
                           mass=t.escaped_mass(params.beta),
                           resample_sd=params.sigma_i))


def transfer_estimator(delta, observations):
    """Run an estimator built for filtered increments on a raw sample.

    ``observations`` are the observed path values (length n+1); their
    consecutive differences are passed through the fractional-part filter
    and handed to ``delta``.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 1 or obs.size < 2:
        raise ValueError("observations must be a 1-d sample of length >= 2")
    return delta(round_to_lattice(obs[1:] - obs[:-1]))


def weighted_integral_statistic(increments, sigma_n2, grid: Grid) -> np.ndarray:
    """Rescale increments by the interval mean value of the noise variance.

    Each increment is divided by ``sigma_n^2(xi_i)`` where ``xi_i`` is the
    mean-value point of ``int dt / sigma_n^2`` over the interval, i.e. the
    divisor is ``(t_i - t_{i-1}) / int_{t_{i-1}}^{t_i} dt / sigma_n^2(t)``.
    For piecewise-constant noise this reproduces the weighted-integral
    statistic of the continuously observed experiment exactly.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.size != grid.n:
        raise ValueError("need one increment per grid interval")
    s2 = as_time_function(sigma_n2)
    probe = np.linspace(0.0, grid.horizon, 2 * grid.n + 1)
    vals = np.asarray(s2(probe), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise ValueError("sigma_n2 must be positive on the grid span")
    inv = integrate(lambda t: 1.0 / np.asarray(s2(t), dtype=float),
                    grid.times[:-1], grid.times[1:],
                    what="1/sigma_n^2 integral")
    return inc * inv / grid.deltas
