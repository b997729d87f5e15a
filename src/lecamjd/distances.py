"""Closed-form distance bounds between increment laws.

Three families of per-increment total variation bounds are aggregated here:

* one-jump (Bernoulli count) approximation error, ``2 * lam_i**2``;
* fractional-part filtering of lattice-jump increments, a Gaussian
  wrap-around term depending only on ``sigma_i``;
* truncate-and-resample filtering of continuous-jump increments, a tail
  term plus a drift term plus a near-zero jump mass term.

Per-increment bounds combine into a product-experiment bound through the
Hellinger route: the total variation between product laws is at most
``sqrt(2 * sum of per-increment bounds)``.  Reports keep the raw aggregate,
which may exceed 1: total variation never does, but rate fits act on the
raw series, and callers clamp where they need a distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _gauss
from ._quadrature import integrate
from .kernels import TruncateResampleParams
from .model import (ContinuousJumps, Grid, HolderClassParams,
                    IncrementSummaries, JumpLaw, ModelSpec,
                    as_time_function, piecewise_drift)

__all__ = [
    "BoundReport",
    "tv_gaussians_bound",
    "kl_gaussians",
    "l1_gaussians_same_var",
    "l1_gaussian_processes",
    "hellinger_product_tv_bound",
    "bernoulli_aggregate_bound",
    "discrete_kernel_aggregate_bound",
    "continuous_kernel_aggregate_bound",
    "drift_discretization_error",
    "theorem_rate",
]

_SQRT2 = math.sqrt(2.0)
_VACUOUS = ("a per-increment term >= 1", "the bound is vacuous there")


@dataclass(frozen=True)
class BoundReport:
    """Aggregated bound with its per-increment pieces.

    The report derives what it reports from ``per_increment``; builders
    pass only the terms, the formula name and their own warning lines,
    ``notes``.  ``aggregate`` is the raw value
    ``sqrt(2 * per_increment.sum())``, computed once, and can exceed the
    trivial total variation ceiling 1.
    ``warnings`` is derived too: the notes, then one line counting the
    vacuous rows (a per-increment term >= 1) if there are any, so a
    ``dataclasses.replace`` copy reports each line once.
    """

    per_increment: np.ndarray
    formula_name: str
    notes: tuple[str, ...] = ()
    aggregate: float = field(init=False)
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.per_increment, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "per_increment", arr)
        with np.errstate(over="ignore"):  # a sum of huge finite terms
            object.__setattr__(self, "aggregate", _aggregate(arr))
        object.__setattr__(self, "warnings", tuple(self.notes)
                           + _flagged(arr >= 1.0, *_VACUOUS))


def _aggregate(per_increment: np.ndarray) -> float:
    return math.sqrt(2.0 * float(np.sum(per_increment)))


def _flagged(bad: np.ndarray, what: str, so: str) -> tuple[str, ...]:
    """One warning counting the increments where ``bad`` holds, or none."""
    idx = np.flatnonzero(bad)
    return (f"{idx.size} increment(s) have {what} (first at index "
            f"{idx[0]}); {so}",) if idx.size else ()


# ---------------------------------------------------------------------------
# two-Gaussian and Gaussian-process distances
# ---------------------------------------------------------------------------

def _require_finite(*params: float) -> None:
    if not all(map(math.isfinite, params)):
        raise ValueError("means and standard deviations must be finite "
                         f"(got {params!r})")


def tv_gaussians_bound(mu1: float, sd1: float, mu2: float, sd2: float) -> float:
    """Upper bound on TV(N(mu1, sd1^2), N(mu2, sd2^2)), clamped to [0, 1].

    Uses the smaller/larger ordering of the standard deviations so the
    variance-mismatch term stays in [0, 1).
    """
    _require_finite(mu1, sd1, mu2, sd2)
    if sd1 <= 0 or sd2 <= 0:
        raise ValueError("standard deviations must be positive")
    s_small, s_large = (sd1, sd2) if sd1 <= sd2 else (sd2, sd1)
    val = math.sqrt((1.0 - s_small / s_large) ** 2
                    + (mu1 - mu2) ** 2 / (2.0 * s_large ** 2))
    return min(val, 1.0)


def kl_gaussians(mu1: float, sd1: float, mu2: float, sd2: float) -> float:
    """Kullback-Leibler divergence formula between two Gaussians.

    Implements ``log(sd2/sd1) + (sd1^2/sd2^2 - 1)/2 + (mu1 - mu2)^2 /
    (2 sd1^2)`` as stated by the source material, including its scaling of
    the mean term by ``sd1`` rather than ``sd2``; it agrees with the
    standard divergence whenever ``sd1 == sd2``.
    """
    _require_finite(mu1, sd1, mu2, sd2)
    if sd1 <= 0 or sd2 <= 0:
        raise ValueError("standard deviations must be positive")
    r2 = (sd1 / sd2) ** 2
    return (math.log(sd2 / sd1) + 0.5 * (r2 - 1.0)
            + (mu1 - mu2) ** 2 / (2.0 * sd1 ** 2))


def l1_gaussians_same_var(mu1: float, mu2: float, sd: float) -> float:
    """Exact L1 distance between N(mu1, sd^2) and N(mu2, sd^2)."""
    _require_finite(mu1, mu2, sd)
    if sd <= 0:
        raise ValueError("sd must be positive")
    d = abs(mu1 - mu2) / sd
    return 2.0 * (1.0 - 2.0 * _gauss.std_cdf(-0.5 * d))


def l1_gaussian_processes(drift_a, drift_b, sigma_n, horizon: float,
                          breakpoints: tuple[float, ...] = ()) -> float:
    """Exact L1 distance between two Gaussian shift experiments.

    Both experiments share the noise scale ``sigma_n(t)`` and differ only
    in their drifts; the distance is ``2 (1 - 2 Phi(-D / 2))`` with
    ``D^2 = int (drift_a - drift_b)^2 / sigma_n^2 dt`` on ``[0, horizon]``.
    ``breakpoints`` split the quadrature where the drifts are non-smooth.
    """
    pts = np.array(sorted({0.0, float(horizon),
                           *(b for b in breakpoints if 0.0 < b < horizon)}))
    d2 = _drift_distance2(as_time_function(drift_a),
                          as_time_function(drift_b),
                          as_time_function(sigma_n), pts)
    return l1_gaussians_same_var(0.0, math.sqrt(max(d2, 0.0)), 1.0)


def _drift_distance2(fa, fb, sn, pts) -> float:
    """``int ((fa - fb) / sn)^2 dt`` split at the sorted points ``pts``."""
    return float(np.sum(integrate(
        lambda t: ((fa(t) - fb(t)) / sn(t)) ** 2, pts[:-1], pts[1:],
        epsabs=1e-13, what="drift distance integral")))


def hellinger_product_tv_bound(tv_entries) -> float:
    """Bound TV between product laws from per-factor TV values.

    Each entry must be a valid total variation in ``[0, 1]``; the bound is
    ``sqrt(2 * sum(entries))`` via the Hellinger inequality chain (squared
    Hellinger is at most twice TV, and tensorizes subadditively).
    """
    arr = np.asarray(tv_entries, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a non-empty 1-d array of TV values")
    if not np.all((arr >= 0) & (arr <= 1.0 + 1e-12)):
        raise ValueError("TV entries must lie in [0, 1]")
    return _aggregate(np.clip(arr, 0.0, 1.0))


# ---------------------------------------------------------------------------
# aggregated approximation bounds
# ---------------------------------------------------------------------------

def bernoulli_aggregate_bound(summaries: IncrementSummaries) -> BoundReport:
    """Bound for replacing each Poisson jump count by a Bernoulli count.

    Per increment the replacement costs at most ``2 lam_i^2`` in total
    variation; the increments aggregate through the Hellinger route to
    ``2 sqrt(sum lam_i^2)``.  Terms >= 1 are vacuous and flagged in warnings.
    """
    with np.errstate(over="ignore"):
        per = 2.0 * summaries.lam ** 2
    return BoundReport(per_increment=per, formula_name="bernoulli_count")


def discrete_kernel_aggregate_bound(
        summaries: IncrementSummaries) -> BoundReport:
    """Bound for fractional-part filtering of integer-jump increments.

    Per increment the filter output differs from the target Gaussian by
    at most ``(6 / sigma_i) phi(1 / (6 sigma_i)) + 4 Phi(-1 / (6 sigma_i))``
    provided ``|m_i| <= 1/3``.  The formula values are always reported;
    increments violating the drift condition, and increments where the
    formula itself exceeds the trivial ceiling 1, are flagged in warnings.
    """
    sig = summaries.sigma
    per = ((6.0 / sig) * _gauss.std_pdf(1.0 / (6.0 * sig))
           + 4.0 * _gauss.std_cdf(-1.0 / (6.0 * sig)))
    return BoundReport(per_increment=per,
                       formula_name="fractional_part_filter",
                       notes=_flagged(
                           np.abs(summaries.m) > 1.0 / 3.0, "|m_i| > 1/3",
                           "the wrap-around bound is not guaranteed there"))


def continuous_kernel_aggregate_bound(
        summaries: IncrementSummaries, L: float, epsilon: float,
        jump_law: JumpLaw) -> BoundReport:
    """Bound for truncate-and-resample filtering of continuous-jump laws.

    The filter keeps values in ``[-beta_i, beta_i]`` with
    ``beta_i = L + sigma_i^(1 - epsilon)`` and redraws from a centered
    Gaussian otherwise.  Per increment the output differs from that
    Gaussian by at most

        8 Phi(-sigma_i^(-epsilon))
        + alpha_i |m_i| / (sqrt(2) sigma_i)
        + 2 alpha_i * (jump mass on [-2 beta_i, 2 beta_i]).

    Requires ``|m_i| <= L`` for every increment and a continuous jump
    law, whose mass on that window is its closed form.
    """
    if not isinstance(jump_law, ContinuousJumps):
        raise TypeError("truncate-and-resample bound needs a continuous "
                        "jump law")
    sig = summaries.sigma
    beta = TruncateResampleParams(L, epsilon, sig).beta
    if not L > 0:
        raise ValueError(f"L must be positive (got {L!r})")
    over = np.abs(summaries.m) > L + 1e-12
    if np.any(over):
        i = int(np.flatnonzero(over)[0])
        raise ValueError(
            f"|m_{i}| = {abs(summaries.m[i]):g} exceeds the drift cap L={L:g}")
    per = (8.0 * _gauss.std_cdf(-sig ** (-epsilon))
           + summaries.alpha * np.abs(summaries.m) / (_SQRT2 * sig)
           + 2.0 * summaries.alpha * jump_law.mass(-2.0 * beta, 2.0 * beta))
    return BoundReport(per_increment=per,
                       formula_name="truncate_resample_filter")


# ---------------------------------------------------------------------------
# drift discretization and theoretical rates
# ---------------------------------------------------------------------------

def drift_discretization_error(f, spec: ModelSpec, grid: Grid) -> float:
    """Integrated squared error of the piecewise-constant drift.

    Returns ``int (f - fbar)^2 / sigma_n^2 dt`` over the grid span, where
    ``fbar`` is the right-endpoint piecewise approximation of ``f`` on the
    grid and ``sigma_n`` the model's effective noise volatility.
    This is the ``D^2`` of :func:`l1_gaussian_processes` for ``f`` and
    ``fbar``, split at every grid time, where ``fbar`` jumps.
    """
    tf = as_time_function(f)
    return _drift_distance2(tf, piecewise_drift(tf, grid), spec.sigma_n,
                            grid.times)


def theorem_rate(delta_n: float, horizon: float, epsilon_n: float,
                 holder: HolderClassParams, jump_case: str) -> float:
    """Predicted order of the experiment distance (constants suppressed).

    ``sqrt(delta_n)`` leads for integer-lattice jumps and ``delta_n**(1/4)``
    for continuous jumps; both share the drift discretization term
    ``horizon * delta_n**(2 alpha) / epsilon_n**2`` and the jump intensity
    term ``horizon * delta_n``.
    """
    if delta_n <= 0 or horizon <= 0 or epsilon_n <= 0:
        raise ValueError("delta_n, horizon, and epsilon_n must be positive")
    common = (horizon * delta_n ** (2.0 * holder.alpha) / epsilon_n ** 2
              + horizon * delta_n)
    if jump_case == "lattice":
        return math.sqrt(delta_n) + common
    if jump_case == "continuous":
        return delta_n ** 0.25 + common
    raise ValueError("jump_case must be 'lattice' or 'continuous'")
