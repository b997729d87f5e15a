"""Jump-filtering kernels, estimator transfer, and sufficient statistics.

Two filters map jump-contaminated increments toward Gaussian ones:

* the fractional-part map ``x -> x - [x]`` (nearest integer, ties to even),
  which erases integer-lattice jumps exactly;
* truncate-and-resample, the identity on the closed ball ``[-beta, beta]``
  with an independent centered Gaussian redraw outside.

Both come with pushforward constructors on :class:`~lecamjd.laws.Density`
so the quadrature oracle can measure exactly what each filter does to a
law, plus the estimator-transfer wrapper and the two statistics used to
pass between continuously and discretely observed Gaussian experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import integrate
from .laws import Density, mixture_pdf
from .model import Grid, as_time_function
from .simulate import PathSample, RngStream, bin_jump_sums

__all__ = [
    "round_to_lattice",
    "apply_round_kernel",
    "fold_density_to_lattice_cell",
    "TruncateResampleParams",
    "truncate_resample",
    "truncate_resample_pushforward",
    "transfer_estimator",
    "continuous_part",
    "weighted_integral_statistic",
]


def round_to_lattice(x):
    """Fractional part relative to the nearest integer, ties to even.

    Output lies in [-0.5, 0.5] and is invariant under integer shifts of
    the input.
    """
    x_arr = np.asarray(x, dtype=float)
    out = x_arr - np.rint(x_arr)
    return float(out) if np.ndim(x) == 0 else out


def apply_round_kernel(samples) -> np.ndarray:
    """Coordinatewise fractional-part filter."""
    return np.asarray(round_to_lattice(np.asarray(samples, dtype=float)))


def _folded_center(mean: float) -> float:
    return mean - float(np.rint(mean))


def fold_density_to_lattice_cell(d: Density) -> Density:
    """Pushforward of a density under the fractional-part map.

    The result lives on ``[-0.5, 0.5]`` and equals the sum of the input
    over all integer shifts.  Pure Gaussian mixtures are folded
    structurally: components whose centers coincide modulo 1 (within a few
    ulps, to absorb the rounding of integer-shifted means) are merged, so
    laws that the filter maps to the same wrapped Gaussian produce
    literally identical component lists instead of agreeing only up to
    floating-point noise.
    """
    lo, hi = d.support
    if d.gauss_components is not None:
        merged: list[list[float]] = []  # [center, sd, weight]
        for mean, sd, weight in d.gauss_components:
            c = _folded_center(mean)
            tol = 32.0 * np.finfo(float).eps * max(1.0, abs(mean))
            for slot in merged:
                if slot[1] == sd and abs(slot[0] - c) <= tol:
                    slot[2] += weight
                    break
            else:
                merged.append([c, sd, weight])
        comps: list[tuple[float, float, float]] = []
        for c, sd, weight in merged:
            k = int(math.ceil(12.0 * sd)) + 1
            comps.extend((c + shift, sd, weight)
                         for shift in range(-k, k + 1))
        inner = mixture_pdf([m for m, _, _ in comps],
                            [s for _, s, _ in comps],
                            [w for _, _, w in comps])
        folded_breaks = sorted({c for c, _, _ in merged
                                if -0.5 < c < 0.5})
    else:
        l_lo = int(math.floor(lo + 0.5))
        l_hi = int(math.ceil(hi - 0.5))
        shifts = np.arange(l_lo, l_hi + 1, dtype=float)
        base_pdf = d.pdf

        def inner(x):
            x_arr = np.asarray(x, dtype=float)
            acc = np.zeros(np.shape(x_arr))
            for s in shifts:
                acc = acc + np.asarray(base_pdf(x_arr + s), dtype=float)
            return acc

        folded_breaks = sorted({_folded_center(b) for b in d.breakpoints
                                if -0.5 < _folded_center(b) < 0.5})

    def pdf(x):
        x_arr = np.asarray(x, dtype=float)
        in_cell = (x_arr >= -0.5) & (x_arr <= 0.5)
        vals = np.where(in_cell, np.asarray(inner(x_arr), dtype=float), 0.0)
        return float(vals) if np.ndim(x) == 0 else vals

    atom_map: dict[float, float] = {}
    for loc, mass in d.atoms:
        c = _folded_center(loc)
        atom_map[c] = atom_map.get(c, 0.0) + mass
    return Density(pdf=pdf, support=(-0.5, 0.5),
                   atoms=tuple(sorted(atom_map.items())),
                   breakpoints=tuple(folded_breaks))


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
    order.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = x_arr.copy()
    escaped = params.escaped(x_arr)
    k = int(np.count_nonzero(escaped))
    if k:
        gen = rng.generator()
        out[escaped] = params.sigma_i * gen.standard_normal(k)
    return float(out[0]) if np.ndim(x) == 0 else out


def _escaped_mass(d: Density, beta: float) -> float:
    """Mass of ``d`` outside the closed ball ``[-beta, beta]``."""
    lo, hi = d.support
    edges = (-beta, beta, *d.breakpoints)
    points = np.array(sorted({lo, hi, *(p for p in edges if lo < p < hi)}))
    cont = integrate(d.pdf, points[:-1], points[1:], what="escaped mass")
    outside = np.abs(0.5 * (points[:-1] + points[1:])) > beta
    atom = sum(mass for loc, mass in d.atoms if abs(loc) > beta)
    return float(np.sum(cont[outside])) + atom


def truncate_resample_pushforward(d: Density,
                                  params: TruncateResampleParams) -> Density:
    """Law of the truncate-and-resample output for input law ``d``.

    Restriction of ``d`` to the ball plus the escaped mass times the
    resampling Gaussian; the escaped mass is measured by quadrature of
    ``d`` itself.
    """
    beta = params.beta
    sd = params.sigma_i
    out_mass = _escaped_mass(d, beta)
    base_pdf = d.pdf
    gauss = mixture_pdf([0.0], [sd], [1.0])

    def pdf(x):
        x_arr = np.asarray(x, dtype=float)
        inside = np.abs(x_arr) <= beta
        kept = np.where(inside, np.asarray(base_pdf(x_arr), dtype=float), 0.0)
        vals = kept + out_mass * np.asarray(gauss(x_arr), dtype=float)
        return float(vals) if np.ndim(x) == 0 else vals

    lo, hi = d.support
    support = (min(-12.0 * sd, max(lo, -beta)),
               max(12.0 * sd, min(hi, beta)))
    breaks = {-beta, beta}
    breaks.update(b for b in d.breakpoints if abs(b) < beta)
    atoms = tuple((loc, mass) for loc, mass in d.atoms if abs(loc) <= beta)
    return Density(pdf=pdf, support=support, atoms=atoms,
                   breakpoints=tuple(sorted(b for b in breaks
                                            if support[0] < b < support[1])))


def transfer_estimator(delta, observations):
    """Run an estimator built for filtered increments on a raw sample.

    ``observations`` are the observed path values (length n+1); their
    consecutive differences are passed through the fractional-part filter
    and handed to ``delta``.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 1 or obs.size < 2:
        raise ValueError("observations must be a 1-d sample of length >= 2")
    return delta(apply_round_kernel(np.diff(obs)))


def continuous_part(path: PathSample) -> np.ndarray:
    """Increments with the simulator's known jumps removed exactly."""
    return path.increments - bin_jump_sums(path.times, path.jump_times,
                                           path.jump_sizes)


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
