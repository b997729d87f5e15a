"""Exact and approximate laws of a single observation increment.

Conditionally on the jump count ``k``, an increment is Gaussian with mean
``m_i`` plus the sum of ``k`` jump sizes.  The exact density is therefore
a Poisson-weighted series of Gaussian convolutions; truncating the series
at a negligible tail gives a numerical density with fully known structure
(component means and variances, extra closed-form pieces, atoms, and
breakpoints) that the quadrature oracle can integrate reliably.

The one-jump (Bernoulli count) approximation keeps only the ``k = 0`` and
``k = 1`` terms with weights ``1 - alpha_i`` and ``alpha_i``.

Densities that are pure Gaussian mixtures expose their component list in
``gauss_components``; lattice-cell folding uses that structure to merge
components whose centers coincide modulo 1, which is what keeps the folded
comparison of a jump law against a pure Gaussian numerically exact instead
of drowning in floating-point cancellation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _gauss
from .model import (ContinuousJumps, DiracJump, IntervalSummary, JumpLaw,
                    LatticeJumps)

__all__ = [
    "Density",
    "gaussian_density",
    "increment_density_exact",
    "bernoulli_density",
    "increment_cf",
]

#: Poisson series terms beyond this count abort instead of looping forever
_MAX_SERIES_TERMS = 200

#: mixtures larger than this are treated as smooth (no per-peak panel splits)
_MAX_PEAK_BREAKPOINTS = 64


@dataclass(frozen=True)
class Density:
    """Numerical density with the structure the oracle needs.

    ``pdf`` evaluates the absolutely continuous part on arrays.  ``support``
    bounds the region of non-negligible mass.  ``atoms`` lists point masses
    as ``(location, mass)`` pairs.  ``breakpoints`` are interior points
    where the pdf is non-smooth or sharply peaked, so quadrature panels can
    be split there.  When the continuous part is exactly a finite Gaussian
    mixture, ``gauss_components`` holds it as ``(mean, sd, weight)`` tuples
    and ``pdf`` is its pointwise evaluation; it is ``None`` whenever the
    pdf contains any non-mixture piece.
    """

    pdf: Callable
    support: tuple[float, float]
    atoms: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()
    gauss_components: tuple[tuple[float, float, float], ...] | None = None

    def __call__(self, x):
        return self.pdf(x)


def mixture_pdf(means, sds, weights,
                extra: Sequence[tuple[float, Callable]] = ()) -> Callable:
    """Weighted Gaussian mixture plus optional weighted closures."""
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    weights = np.asarray(weights, dtype=float)
    scaled = weights / sds

    def pdf(x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = np.zeros(flat.size)
        if means.size:
            # chunk so each n_points * n_components temporary (3.2 MB)
            # stays in cache; row sums do not depend on the chunking
            chunk = max(1, int(400_000 // means.size))
            for s in range(0, flat.size, chunk):
                xs = flat[s:s + chunk, None]
                z = (xs - means[None, :]) / sds[None, :]
                out[s:s + chunk] = (scaled * _gauss.std_pdf(z)).sum(axis=1)
        for w, fn in extra:
            out += w * np.asarray(fn(flat), dtype=float)
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    return pdf


def mixture_density(components, extra=(), extra_support=(),
                    extra_breaks=()) -> Density:
    """Build a Density from Gaussian components plus optional closures.

    ``components`` is a sequence of ``(mean, sd, weight)``.  ``extra`` holds
    ``(weight, pdf)`` closures whose mass lives inside ``extra_support``
    intervals.  Component means and their 6-sd shoulders are exposed as
    breakpoints unless the mixture is too dense to be spiky; the shoulders
    give every narrow peak panels of its own scale, so quadrature cannot
    skip over a bump that is much thinner than the union support.
    """
    comps = tuple((float(m), float(s), float(w)) for m, s, w in components)
    los = [m - 12.0 * s for m, s, _ in comps]
    his = [m + 12.0 * s for m, s, _ in comps]
    for lo, hi in extra_support:
        los.append(float(lo))
        his.append(float(hi))
    if not los:
        raise ValueError("density needs at least one component")
    lo, hi = min(los), max(his)
    breaks: set[float] = set(float(b) for b in extra_breaks)
    if len(comps) <= _MAX_PEAK_BREAKPOINTS:
        for m, s, _ in comps:
            breaks.update((m - 6.0 * s, m, m + 6.0 * s))
    pdf = mixture_pdf([m for m, _, _ in comps], [s for _, s, _ in comps],
                      [w for _, _, w in comps], extra)
    return Density(
        pdf=pdf, support=(lo, hi),
        breakpoints=tuple(sorted(b for b in breaks if lo < b < hi)),
        gauss_components=comps if not extra else None,
    )


def gaussian_density(m: float, s2: float) -> Density:
    """Gaussian law as a Density; support is the mean plus/minus 12 SDs."""
    if s2 <= 0:
        raise ValueError("variance must be positive")
    return mixture_density([(float(m), math.sqrt(s2), 1.0)])


def _poisson_weights(lam: float, tail_tol: float) -> np.ndarray:
    """Weights ``e^{-lam} lam^k / k!`` for k = 0..K with tail below tol."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    weights = [math.exp(-lam)]
    cum = weights[0]
    k = 0
    while 1.0 - cum > tail_tol:
        k += 1
        if k > _MAX_SERIES_TERMS:
            raise ValueError(
                f"Poisson series for lam={lam:g} needs more than "
                f"{_MAX_SERIES_TERMS} terms to reach tail {tail_tol:g}")
        weights.append(weights[-1] * lam / k)
        cum += weights[-1]
    return np.asarray(weights)


def _kfold_components(jump_law: JumpLaw, k: int, m: float, s2: float):
    """Structure of N(m, s2) convolved with a k-fold jump sum.

    Returns ``(components, extra, extra_support, extra_breaks)`` where
    ``components`` are ``(mean, sd, weight)`` with weights summing to 1 and
    ``extra`` are ``(weight, pdf)`` closures carrying weight 1 total.
    """
    sd = math.sqrt(s2)
    if k == 0:
        return [(m, sd, 1.0)], [], [], []
    if isinstance(jump_law, DiracJump):
        return [(m + k * jump_law.location, sd, 1.0)], [], [], []
    if isinstance(jump_law, LatticeJumps):
        support, pmf = jump_law.kfold_pmf(k)
        keep = pmf > 1e-300
        return ([(m + v, sd, p) for v, p in zip(support[keep], pmf[keep])],
                [], [], [])
    if isinstance(jump_law, ContinuousJumps):
        hook = jump_law.exact_gauss_conv
        res = hook(k, m, s2) if hook is not None else None
        if res is not None and res[0] == "gaussian":
            _, mu, var = res
            return [(mu, math.sqrt(var), 1.0)], [], [], []
        if res is not None and res[0] == "pdf":
            _, fn, supp, breaks = res
            return [], [(1.0, fn)], [tuple(supp)], list(breaks)
        return _grid_convolution(jump_law, k, m, s2)
    raise TypeError(f"unsupported jump law {type(jump_law).__name__}")


def _grid_convolution(law: ContinuousJumps, k: int, m: float, s2: float):
    """Fallback k-fold self convolution on a trapezoid grid.

    The convolved jump-sum density is approximated by point masses at grid
    nodes, each then smoothed by the interval's Gaussian; the result is a
    dense (hence smooth) Gaussian mixture normalized to trapezoid accuracy.
    """
    lo, hi = law.support
    sd = math.sqrt(s2)
    step = min((hi - lo) / 1024.0, sd / 8.0)
    npts = int(math.ceil((hi - lo) / step)) + 1
    ys = np.linspace(lo, hi, npts)
    dens = np.asarray(law.density(ys), dtype=float)
    w = np.full(npts, ys[1] - ys[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    masses = dens * w
    acc = masses
    offs = ys.copy()
    for _ in range(k - 1):
        acc = np.convolve(acc, masses)
        offs = np.linspace(offs[0] + ys[0], offs[-1] + ys[-1], acc.size)
    total = acc.sum()
    if total <= 0:
        raise ValueError("grid convolution lost all mass")
    acc = acc / total
    keep = acc > 1e-15
    return ([(m + o, sd, p) for o, p in zip(offs[keep], acc[keep])],
            [], [], [])


def _series_density(weights: np.ndarray, jump_law: JumpLaw, m: float,
                    s2: float) -> Density:
    components: list[tuple[float, float, float]] = []
    extra: list[tuple[float, Callable]] = []
    extra_support: list[tuple[float, float]] = []
    extra_breaks: list[float] = []
    for k, wk in enumerate(weights):
        if wk <= 1e-300:
            continue
        comps, ex, ex_sup, ex_br = _kfold_components(jump_law, k, m, s2)
        components.extend((mu, s, wk * w) for mu, s, w in comps)
        extra.extend((wk * w, fn) for w, fn in ex)
        extra_support.extend(ex_sup)
        extra_breaks.extend(ex_br)
    return mixture_density(components, extra, extra_support, extra_breaks)


def increment_density_exact(summary: IntervalSummary, jump_law: JumpLaw,
                            tail_tol: float = 1e-12) -> Density:
    """Exact increment density via the Poisson-count series.

    The series is truncated once the remaining Poisson tail mass drops
    below ``tail_tol``; the kept weights are not renormalized (total mass
    falls short of one by at most ``tail_tol``) so the quadrature oracle
    sees the truncation honestly instead of a renormalized fake.
    """
    weights = _poisson_weights(summary.lam, tail_tol)
    return _series_density(weights, jump_law, summary.m, summary.sigma2)


def bernoulli_density(summary: IntervalSummary, jump_law: JumpLaw) -> Density:
    """One-jump approximation: no jump w.p. 1 - alpha, one jump w.p. alpha."""
    weights = np.array([1.0 - summary.alpha, summary.alpha])
    return _series_density(weights, jump_law, summary.m, summary.sigma2)


def increment_cf(summary: IntervalSummary, jump_law: JumpLaw, u):
    """Characteristic function of the exact increment law at ``u``.

    Uses the uncompensated form: the drift integral ``m_i`` is the actual
    increment mean rate of the continuous part, and the jump factor is
    ``exp(lam_i * (ghat(u) - 1))`` with ``ghat`` the jump-size CF.
    """
    u_arr = np.asarray(u, dtype=float)
    ghat = np.asarray(jump_law.cf(u_arr))
    val = np.exp(1j * u_arr * summary.m
                 - 0.5 * u_arr ** 2 * summary.sigma2
                 + summary.lam * (ghat - 1.0))
    return complex(val) if np.ndim(u) == 0 else val
