"""Desk-scale reproductions of the asymptotic statements.

Three harnesses:

* ``run_convergence`` sweeps grid sizes and records, per grid, the
  closed-form aggregate bound for the jump-approximation chain, an
  oracle-quadrature product bound built from per-increment total
  variations, and the predicted rate shape.
* ``fit_rate_slope`` turns a sweep into a log-log slope for comparison
  against the predicted exponents.
* ``run_risk_transfer`` demonstrates estimator transfer: a drift estimator
  designed for the Gaussian experiment is applied to jump data through the
  fractional-part filter, and its integrated squared error is compared
  against the same estimator on clean Gaussian data and on raw jump data.

The sweeps bound one of the two deficiencies of the Delta-distance: the
Gaussian experiment reproduced from jump data.  The other is 0 on the
grid: its kernel adds an independent compound-Poisson sum to each
Gaussian increment, as ``sample_path`` does (criterion 8 checks the law),
using the known intensity and jump law, neither of which depends on the drift.

Monte Carlo replications run one after another in replication order;
each replication draws from streams derived from the caller's stream id
and its index, so outputs are bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .distances import (bernoulli_aggregate_bound,
                        continuous_kernel_aggregate_bound,
                        discrete_kernel_aggregate_bound,
                        hellinger_product_tv_bound, theorem_rate)
from .kernels import (TruncateResampleParams, fold_density_to_lattice_cell,
                      jump_case_of, transfer_estimator,
                      truncate_resample_pushforward)
from .laws import (bernoulli_density, gaussian_density,
                   increment_density_exact)
from .model import (Grid, HolderClassParams, IncrementSummaries, ModelSpec,
                    build_increment_summaries)
from .oracle import tv_quadrature
from .simulate import RngStream, sample_path, sample_white_noise_increments

__all__ = [
    "ConvergenceRow",
    "RiskRow",
    "run_convergence",
    "fit_rate_slope",
    "run_risk_transfer",
    "default_drift_estimator",
]

#: default drift cap and exponent for the truncate-and-resample kernel
DEFAULT_L = 1.0 / 3.0
DEFAULT_EPSILON = 0.5


@dataclass(frozen=True)
class ConvergenceRow:
    """One grid size of a convergence sweep.

    ``aggregate_bound`` is the closed-form chain bound (one-jump step plus
    filtering step) clamped to the trivial total variation ceiling 1;
    ``oracle_product_bound`` combines per-increment quadrature TVs through
    the product-measure inequality.
    """

    n: int
    delta_n: float
    aggregate_bound: float
    oracle_product_bound: float
    rate_prediction: float


@dataclass(frozen=True)
class RiskRow:
    """Risk-transfer comparison at one grid size."""

    n: int
    mise_direct_gaussian: float
    mise_transferred: float
    mise_naive_on_jumps: float
    replications: int


def worker_count() -> int:
    """Always 1, as replications run in one loop; only bench/run.py reads it."""
    return 1


def _grid_sizes(n_values) -> list[int]:
    """``n_values`` as ints (a float is a ``TypeError``), checked to be
    non-empty and strictly increasing, so that no size gets two rows."""
    sizes = [operator.index(n) for n in n_values]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("grid sizes must be non-empty and strictly "
                         f"increasing (got {sizes})")
    return sizes


def run_convergence(spec: ModelSpec, n_values, jump_case: str,
                    holder: HolderClassParams | None = None,
                    L: float = DEFAULT_L,
                    epsilon: float = DEFAULT_EPSILON) -> list[ConvergenceRow]:
    """Closed-form and oracle bounds over a sweep of grid sizes.

    Per grid: the one-jump and filtering aggregate bounds are summed and
    clamped at 1; the oracle product bound combines per-increment
    quadrature TVs (one-jump step, plus the filtered jump law against the
    Gaussian law) capped at 1 each.  The one-jump step TV is translation
    invariant in the interval drift, so one ``tv_quadrature`` call takes a
    row per distinct ``(lambda_i, sigma_i^2)`` pair with the drift zeroed.
    The filtering step compares two tables built from the grid's summary
    arrays, a row per interval, in a second call.  Folding
    makes lattice rows equal, and the oracle reads equal rows as 0.0
    without quadrature.
    """
    n_values = _grid_sizes(n_values)
    if jump_case not in ("lattice", "continuous"):
        raise ValueError("jump_case must be 'lattice' or 'continuous'")
    if jump_case_of(spec.jump_law) != jump_case:
        raise ValueError(f"{jump_case} case needs " + (
            "integer-lattice jumps" if jump_case == "lattice"
            else "a continuous jump law"))
    if holder is None:
        holder = HolderClassParams(alpha=1.0)
    rows: list[ConvergenceRow] = []
    for n in n_values:
        grid = Grid.uniform(spec.horizon, n)
        summaries = build_increment_summaries(spec, grid)
        bern_report = bernoulli_aggregate_bound(summaries)
        if jump_case == "lattice":
            kernel_report = discrete_kernel_aggregate_bound(summaries)
        else:
            kernel_report = continuous_kernel_aggregate_bound(
                summaries, L, epsilon, spec.jump_law)
        aggregate = min(1.0, bern_report.aggregate + kernel_report.aggregate)

        # one complex key per pair: far cheaper than np.unique(..., axis=1)
        keys, index = np.unique(summaries.lam + 1j * summaries.sigma2,
                                return_inverse=True)
        centered = IncrementSummaries(m=np.zeros(keys.size),
                                      sigma2=keys.imag, lam=keys.real)
        bern_tv = tv_quadrature(
            increment_density_exact(centered, spec.jump_law),
            bernoulli_density(centered, spec.jump_law))[index]
        approx = bernoulli_density(summaries, spec.jump_law)
        target = gaussian_density(summaries.m, summaries.sigma2)
        if jump_case == "lattice":
            pair = (fold_density_to_lattice_cell(approx),
                    fold_density_to_lattice_cell(target))
        else:
            params = TruncateResampleParams(L=L, epsilon=epsilon,
                                            sigma_i=summaries.sigma)
            pair = (truncate_resample_pushforward(approx, params), target)
        per_tv = np.minimum(1.0, bern_tv + tv_quadrature(*pair))
        oracle_product = hellinger_product_tv_bound(per_tv)
        rows.append(ConvergenceRow(
            n=n, delta_n=grid.mesh, aggregate_bound=aggregate,
            oracle_product_bound=oracle_product,
            rate_prediction=theorem_rate(grid.mesh, spec.horizon,
                                         spec.epsilon_n, holder, jump_case)))
    return rows


def fit_rate_slope(rows, column: str) -> float:
    """Least-squares slope of log(column) against log(delta_n)."""
    if len(rows) < 4:
        raise ValueError("need at least 4 rows for a slope fit")
    deltas = np.array([row.delta_n for row in rows], dtype=float)
    values = np.array([float(getattr(row, column)) for row in rows])
    if not np.all((values > 0) & (values < math.inf)):
        raise ValueError(f"column {column!r} must be positive to fit a slope")
    slope, _ = np.polyfit(np.log(deltas), np.log(values), 1)
    return float(slope)


def default_drift_estimator(increments, grid: Grid) -> np.ndarray:
    """Piecewise-constant drift estimate with moving-average smoothing.

    Raw per-interval rates ``increment / interval length`` are smoothed by
    a centered window of ``ceil(n**(1/3))`` intervals, renormalized at the
    edges.
    """
    inc = np.asarray(increments, dtype=float)
    n = grid.n
    if inc.size != n:
        raise ValueError("need one increment per grid interval")
    window = max(1, math.ceil(n ** (1.0 / 3.0)))  # never above n
    kernel, lead_den, trail_den = _window_constants(window)
    est = np.convolve(inc / grid.deltas, kernel, mode="same")
    # divide by the count of window positions inside [0, n): window itself,
    # except on the `lead` entries the window overhangs on the left and the
    # `trail` entries on the right (window <= n, so no entry has both)
    lead, trail = lead_den.size, trail_den.size
    est[lead:n - trail] /= window
    est[:lead] /= lead_den
    est[n - trail:] /= trail_den
    return est


@functools.lru_cache(maxsize=64)
def _window_constants(window: int):
    """The estimator's all-ones kernel and its edge counts, read-only.

    The counts are the exact integers, hence the bits, that
    ``np.convolve(np.ones(n), np.ones(window), "same")`` gives at the
    ``lead`` first and ``trail`` last entries; they depend on the window
    alone.  Each entry holds about 16 bytes per window position, and 64
    windows cover every ``n`` up to about 250,000.
    """
    trail = (window - 1) // 2
    lead = window - 1 - trail
    arrays = (np.ones(window), window - np.arange(lead, 0, -1.0),
              window - np.arange(1.0, trail + 1))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _squared_error_scorer(f_at_times: np.ndarray, grid: Grid):
    """Scorer of per-interval estimates: the trapezoid integral of
    (estimate - f)^2 on the observation grid.  The two endpoint slices of
    f and ``grid.deltas * 0.5`` are made once per grid."""
    f_left, f_right = f_at_times[:-1], f_at_times[1:]
    half_deltas = grid.deltas * 0.5

    def score(estimate: np.ndarray) -> float:
        left = estimate - f_left
        left *= left
        right = estimate - f_right
        right *= right
        left += right
        left *= half_deltas
        return float(left.sum())

    return score


def run_risk_transfer(spec: ModelSpec, delta, n_values, replications: int,
                      rng: RngStream) -> list[RiskRow]:
    """Paired Monte Carlo risks of direct, transferred, and naive use.

    ``delta(increments, grid)`` must return per-interval drift estimates.
    Per replication, one jump path and one independent Gaussian sample
    share the same drift; the estimator runs on the Gaussian increments
    (direct), on the jump sample through the fractional-part transfer, and
    on the raw jump increments (naive).  Risks are averaged integrated
    squared errors.
    """
    if replications < 1:
        raise ValueError(f"need at least 1 replication (got {replications})")
    n_values = _grid_sizes(n_values)
    if jump_case_of(spec.jump_law) != "lattice":
        raise ValueError(
            "the fractional-part transfer needs integer-lattice jumps")
    rows: list[RiskRow] = []
    for ni, n in enumerate(n_values):
        grid = Grid.uniform(spec.horizon, n)
        summaries = build_increment_summaries(spec, grid)
        f_at_times = np.asarray(spec.drift(grid.times), dtype=float)
        score = _squared_error_scorer(f_at_times, grid)

        results = []
        for rep in range(replications):
            base = (ni * replications + rep) * 4
            increments = sample_path(spec, grid, summaries,
                                     rng.child(base)).increments
            wn = sample_white_noise_increments(summaries, rng.child(base + 1))
            obs = np.empty(n + 1)
            obs[0] = 0.0
            increments.cumsum(out=obs[1:])
            obs += spec.initial
            # direct, transferred, naive: each estimate is scored as soon
            # as it is made, so at most one is held at a time
            results.append([
                score(delta(wn, grid)),
                score(transfer_estimator(lambda v: delta(v, grid), obs)),
                score(delta(obs[1:] - obs[:-1], grid))])
        arr = np.asarray(results)  # ordered by replication index
        rows.append(RiskRow(
            n=n,
            mise_direct_gaussian=float(arr[:, 0].mean()),
            mise_transferred=float(arr[:, 1].mean()),
            mise_naive_on_jumps=float(arr[:, 2].mean()),
            replications=replications))
    return rows
