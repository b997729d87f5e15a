"""Exact and approximate laws of a single observation increment.

Conditionally on the jump count ``k``, an increment is Gaussian with mean
``m_i`` plus the sum of ``k`` jump sizes.  The exact density is therefore
a Poisson-weighted series of Gaussian convolutions; truncating the series
at a negligible tail gives a numerical density with fully known structure
(component means and variances, extra closed-form pieces, atoms, and
breakpoints) that the quadrature oracle can integrate reliably.

The one-jump (Bernoulli count) approximation keeps only the ``k = 0`` and
``k = 1`` terms with weights ``1 - alpha_i`` and ``alpha_i``.

Every density the sweeps compare is a finite Gaussian mixture, possibly
restricted to a ball and topped up by a resampling Gaussian.  Such
densities are data: a :class:`MixtureTable` holds one law per row, its
one evaluator gives every mixture pdf, and a density built from a whole
grid's summaries is one table with a row per interval.  Lattice-cell
folding merges components whose centers coincide modulo 1, which is what
keeps the folded comparison of a jump law against a pure Gaussian
numerically exact instead of drowning in floating-point cancellation
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import _gauss
from .model import (ContinuousJumps, DiracJump, IncrementSummaries,
                    IntervalSummary, JumpLaw, LatticeJumps)

__all__ = [
    "Density",
    "MixtureTable",
    "gaussian_density",
    "increment_density_exact",
    "bernoulli_density",
    "increment_cf",
]

#: Poisson series terms beyond this count abort instead of looping forever
_MAX_SERIES_TERMS = 200

#: mixtures larger than this are treated as smooth (no per-peak panel
#: splits) and are evaluated only against the components near each point
_MAX_PEAK_BREAKPOINTS = 64

#: numpy sums at most this many terms of a row one after another, so
#: rows this narrow may share a zero-padded block without a rounding change
_PAD_WIDTH = 7

#: point x component elements per evaluation block: a multi-row block
#: gathers its rows' means, sds and weights, so it holds about six such
#: temporaries (256 kB each) at once
_BLOCK = 32_768

#: a component farther than this many sds from a point adds exactly 0
#: (exp underflows past about 38.6 sds)
_REACH = 40.0

#: point x component elements of one block of windowed evaluation: small
#: blocks of nearby points waste little of their shared window
_WINDOW_WORK = 8192


@dataclass(frozen=True, eq=False)
class MixtureTable:
    """Finite Gaussian mixtures as padded arrays, one law per row.

    Row ``r`` is the density

        where(|x| <= beta[r], sum_k (w/s) phi((x - m)/s), 0)
            + mass[r] * phi(x / sd[r]) / sd[r]

    over the row's first ``size[r]`` entries ``(m, s, w)`` of ``means``,
    ``sds`` and ``weights``; the rest of the row is padding ``(0, 1, 0)``.
    ``beta`` is the restriction radius (inf: none); ``mass`` and
    ``resample_sd`` are the escaped mass and resampling sd of the
    truncate-and-resample output (0: none); ``fold`` marks rows folded onto
    the lattice cell, which are restricted to radius 1/2.  Per-row fields
    may be given as scalars.
    """

    means: np.ndarray
    sds: np.ndarray
    weights: np.ndarray
    size: np.ndarray | None = None
    beta: np.ndarray = math.inf
    mass: np.ndarray = 0.0
    resample_sd: np.ndarray = 0.0
    fold: np.ndarray = False
    _by_mean: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        rows, width = means.shape
        if self.size is None:
            object.__setattr__(self, "size", np.full(rows, width))
        for name, kind in (("means", float), ("sds", float),
                           ("weights", float), ("size", np.intp),
                           ("beta", float), ("mass", float),
                           ("resample_sd", float), ("fold", bool)):
            shape = (rows, width) if name in ("means", "sds", "weights") \
                else (rows,)
            value = np.broadcast_to(np.asarray(getattr(self, name),
                                               dtype=kind), shape)
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> int:
        return self.means.shape[0]

    @property
    def plain(self) -> np.ndarray:
        """Rows that are bare mixtures: no restriction, top-up or fold."""
        return (np.isinf(self.beta) & (self.resample_sd == 0.0)
                & ~self.fold)

    @cached_property
    def _scaled(self) -> np.ndarray:
        return self.weights / self.sds

    @cached_property
    def _width(self) -> np.ndarray:
        # each row is summed over its own components; narrow rows share
        # one padded width, which adds exact zeros
        return np.where(self.size > _PAD_WIDTH, self.size,
                        min(self.means.shape[1], _PAD_WIDTH))

    @cached_property
    def _widths(self) -> list[int]:
        return sorted(set(self._width.tolist()))

    @cached_property
    def _cut(self) -> bool:
        return bool(np.isfinite(self.beta).any())

    @cached_property
    def _topped(self) -> bool:
        return bool((self.resample_sd > 0.0).any())

    def pdf(self, x, rows=0):
        """Row ``rows`` (broadcast against ``x``) of the table at ``x``."""
        x = np.asarray(x, dtype=float)
        out = self.values(np.atleast_1d(x).ravel(),
                          np.broadcast_to(rows, x.shape).ravel())
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def values(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Density of row ``rows[j]`` at ``x[j]``, for flat arrays."""
        out = np.empty(x.size)
        for w in self._widths:
            at = (slice(None) if len(self._widths) == 1
                  else np.flatnonzero(self._width[rows] == w))
            out[at] = (self._windowed(x[at], rows[at])
                       if w > _MAX_PEAK_BREAKPOINTS
                       else self._dense(x[at], rows[at], w))
        if self._cut:
            out = np.where(np.abs(x) <= self.beta[rows], out, 0.0)
        if self._topped:
            sd = self.resample_sd[rows]
            top = np.flatnonzero(sd > 0.0)
            s = sd[top]
            out[top] += self.mass[rows[top]] * (
                (1.0 / s) * _gauss.std_pdf(x[top] / s))
        return out

    def _dense(self, x, rows, w):
        means, sds = self.means[:, :w], self.sds[:, :w]
        scaled = self._scaled[:, :w]
        out = np.empty(x.size)
        step = max(1, _BLOCK // w)
        for s in range(0, x.size, step):
            part = slice(s, s + step)
            r = 0 if self.rows == 1 else rows[part]
            z = (x[part, None] - means[r]) / sds[r]
            out[part] = (scaled[r] * _gauss.std_pdf(z)).sum(axis=1)
        return out

    def _windowed(self, x, rows):
        """Sums over the components within ``_REACH`` max sds of each point.

        Means are sorted once per row; points are visited in sorted order,
        in blocks that share one window of components.
        """
        out = np.empty(x.size)
        for r in np.flatnonzero(np.bincount(rows)).tolist():
            if r not in self._by_mean:
                k = self.size[r]
                order = np.argsort(self.means[r, :k], kind="stable")
                self._by_mean[r] = (self.means[r, order], self.sds[r, order],
                                    self._scaled[r, order])
            means, sds, scaled = self._by_mean[r]
            at = np.flatnonzero(rows == r)
            at = at[np.argsort(x[at], kind="stable")]
            xs = x[at]
            reach = _REACH * float(sds.max())
            first = np.searchsorted(means, xs - reach, side="left")
            last = np.searchsorted(means, xs + reach, side="right")
            a = 0
            while a < xs.size:
                # double the block while its points x window stay in budget
                b = a + 1
                while b < xs.size:
                    c = min(xs.size, 2 * b - a)
                    if (c - a) * (last[c - 1] - first[a]) > _WINDOW_WORK:
                        break
                    b = c
                win = slice(first[a], last[b - 1])
                z = (xs[a:b, None] - means[win]) / sds[win]
                out[at[a:b]] = (scaled[win] * _gauss.std_pdf(z)).sum(axis=1)
                a = b
        return out

    def structure(self):
        """Per row: support ends and breakpoints (a NaN-padded array).

        A bare mixture spans its components' means plus/minus 12 sds and
        breaks at each mean and its 6-sd shoulders, unless it has more than
        ``_MAX_PEAK_BREAKPOINTS`` components; a restricted row keeps the
        breakpoints inside its ball and adds the ball's edges; a folded row
        is the cell ``[-1/2, 1/2]``, broken at its components' centers.
        """
        m, s = self.means, self.sds
        real = np.arange(m.shape[1]) < self.size[:, None]
        lo = np.where(real, m - 12.0 * s, np.inf).min(axis=1)
        hi = np.where(real, m + 12.0 * s, -np.inf).max(axis=1)
        pts = np.concatenate((m - 6.0 * s, m, m + 6.0 * s), axis=1)
        peaks = np.tile(real & (self.size <= _MAX_PEAK_BREAKPOINTS)[:, None],
                        3)
        ok = peaks & (pts > lo[:, None]) & (pts < hi[:, None])
        beta, sd, fold = self.beta, self.resample_sd, self.fold
        cut = np.isfinite(beta) & ~fold
        lo = np.where(cut, np.minimum(-12.0 * sd, np.maximum(lo, -beta)), lo)
        hi = np.where(cut, np.maximum(12.0 * sd, np.minimum(hi, beta)), hi)
        ok &= ~cut[:, None] | (np.abs(pts) < beta[:, None])
        centers = np.zeros_like(ok)
        centers[:, m.shape[1]:2 * m.shape[1]] = real
        ok = np.where(fold[:, None], centers, ok)
        lo, hi = np.where(fold, -0.5, lo), np.where(fold, 0.5, hi)
        edges = np.where(cut[:, None], np.stack((-beta, beta), axis=1),
                         np.nan)
        pts = np.concatenate((np.where(ok, pts, np.nan), edges), axis=1)
        inside = (pts > lo[:, None]) & (pts < hi[:, None])
        return lo, hi, np.where(inside, pts, np.nan)

    @staticmethod
    def concat(tables) -> "MixtureTable":
        """One table holding the rows of ``tables`` in order."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]
        return MixtureTable(
            *(_stack_rows([getattr(t, name) for t in tables], fill)
              for name, fill in (("means", 0.0), ("sds", 1.0),
                                 ("weights", 0.0))),
            *(np.concatenate([getattr(t, name) for t in tables])
              for name in ("size", "beta", "mass", "resample_sd", "fold")))


def _stack_rows(arrays, fill) -> np.ndarray:
    """2-d arrays stacked row-wise, each padded on the right with ``fill``
    to the widest."""
    width = max(a.shape[1] for a in arrays)
    return np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1])),
                                  constant_values=fill) for a in arrays])


@dataclass(frozen=True)
class Density:
    """Numerical density with the structure the oracle needs.

    ``pdf`` evaluates the absolutely continuous part on arrays.  ``support``
    bounds the region of non-negligible mass.  ``atoms`` lists point masses
    as ``(location, mass)`` pairs.  ``breakpoints`` are interior points
    where the pdf is non-smooth or sharply peaked, so quadrature panels can
    be split there.

    When the continuous part is a :class:`MixtureTable`, ``table`` holds
    it, ``pdf`` is its evaluator and the structure is the table's.  A
    table may hold many laws, one per row (say, one per interval of a
    grid); then ``support`` is a pair of per-row arrays, ``breakpoints`` a
    NaN-padded array with a row per law, and ``pdf(x, rows)`` evaluates
    row ``rows``.  Densities without a table (closed-form pieces, custom
    pdfs) are one law.
    """

    pdf: Callable
    support: tuple[float, float]
    atoms: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()
    table: MixtureTable | None = None

    def __call__(self, x):
        return self.pdf(x)

    @classmethod
    def from_table(cls, table: MixtureTable) -> "Density":
        lo, hi, pts = table.structure()
        if table.rows > 1:
            return cls(pdf=table.pdf, support=(lo, hi), breakpoints=pts,
                       table=table)
        return cls(pdf=table.pdf, support=(float(lo[0]), float(hi[0])),
                   breakpoints=tuple(sorted(set(
                       pts[0][~np.isnan(pts[0])].tolist()))),
                   table=table)

    @property
    def rows(self) -> int:
        return 1 if self.table is None else self.table.rows

    @property
    def gauss_components(self) -> tuple[tuple[float, float, float], ...] | None:
        """The ``(mean, sd, weight)`` list when this one law is a bare
        Gaussian mixture; ``None`` otherwise."""
        t = self.table
        if t is None or t.rows != 1 or not t.plain[0]:
            return None
        k = t.size[0]
        return tuple(zip(t.means[0, :k].tolist(), t.sds[0, :k].tolist(),
                         t.weights[0, :k].tolist()))

    def structure(self):
        """Per row: support ends and breakpoints (a NaN-padded array)."""
        lo, hi = (np.atleast_1d(np.asarray(e, dtype=float))
                  for e in self.support)
        return lo, hi, np.asarray(self.breakpoints,
                                  dtype=float).reshape(lo.size, -1)

    def values(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row ``rows[j]`` at ``x[j]``, for flat arrays."""
        if self.table is not None:
            return self.table.values(x, rows)
        return np.asarray(self.pdf(x), dtype=float)


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
    comps = np.asarray(components, dtype=float).reshape(-1, 3)
    table = MixtureTable(*comps.T) if len(comps) else None
    if table is None and not extra:
        raise ValueError("density needs at least one component")
    if not extra:
        return Density.from_table(table)
    lo, hi = zip(*extra_support)
    breaks = set(float(b) for b in extra_breaks)
    if table is not None:
        t_lo, t_hi, pts = table.structure()
        lo, hi = lo + (t_lo[0],), hi + (t_hi[0],)
        breaks.update(pts[0][~np.isnan(pts[0])].tolist())
    lo, hi = float(min(lo)), float(max(hi))

    def pdf(x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = (table.values(flat, np.zeros(flat.size, dtype=np.intp))
               if table is not None else np.zeros(flat.size))
        for w, fn in extra:
            out += w * np.asarray(fn(flat), dtype=float)
        return out.reshape(x.shape) if x.ndim else float(out[0])

    return Density(pdf=pdf, support=(lo, hi),
                   breakpoints=tuple(sorted(b for b in breaks
                                            if lo < b < hi)))


def gaussian_density(m, s2) -> Density:
    """Gaussian law as a Density; support is the mean plus/minus 12 SDs.

    Arrays ``m`` and ``s2`` give one law per entry, as rows of one table.
    """
    s2 = np.asarray(s2, dtype=float)
    if np.any(s2 <= 0):
        raise ValueError("variance must be positive")
    return Density.from_table(MixtureTable(
        np.reshape(m, (-1, 1)), np.sqrt(s2).reshape(-1, 1), 1.0))


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


def _gauss_conv_rows(law: ContinuousJumps, k: int, m, s2):
    """The law's ``exact_gauss_conv`` hook per row, or ``None`` unless
    every row's result is a Gaussian; then ``(means, sds)`` columns."""
    hook = law.exact_gauss_conv
    if hook is None:
        return None
    res = [hook(k, mi, vi) for mi, vi in zip(np.ravel(m).tolist(),
                                             np.ravel(s2).tolist())]
    if not all(r is not None and r[0] == "gaussian" for r in res):
        return None
    mu, var = np.array([r[1:] for r in res]).T
    return mu[:, None], np.sqrt(var)[:, None]


def _kfold_components(jump_law: JumpLaw, k: int, m, s2, chain=None):
    """Structure of N(m, s2) convolved with a k-fold jump sum.

    ``m`` and ``s2`` are floats, or arrays with one entry per row when the
    result is a Gaussian mixture.  Returns ``(means, sds, weights, extra,
    extra_support, extra_breaks)``: component ``means`` and ``sds`` with a
    row per entry and a column per component, ``weights`` per column
    summing to 1, and ``(weight, pdf)`` closures ``extra`` carrying weight
    1 total (floats only).  ``chain`` is passed on to
    :func:`_grid_convolution`.
    """
    m = np.reshape(m, (-1, 1))
    sd = np.sqrt(np.reshape(s2, (-1, 1)))
    one = np.ones(1)
    if k == 0:
        return m, sd, one, [], [], []
    if isinstance(jump_law, DiracJump):
        return m + k * jump_law.location, sd, one, [], [], []
    if isinstance(jump_law, LatticeJumps):
        support, pmf = jump_law.kfold_pmf(k)
        keep = pmf > 1e-300
        means = m + support[keep]
        return means, np.broadcast_to(sd, means.shape), pmf[keep], [], [], []
    if isinstance(jump_law, ContinuousJumps):
        gauss = _gauss_conv_rows(jump_law, k, m, s2)
        if gauss is not None:
            return (*gauss, one, [], [], [])
        m, s2 = float(m[0, 0]), float(s2)
        hook = jump_law.exact_gauss_conv
        res = hook(k, m, s2) if hook is not None else None
        if res is not None and res[0] == "pdf":
            _, fn, supp, breaks = res
            empty = np.empty((1, 0))
            return empty, empty, empty[0], [(1.0, fn)], [tuple(supp)], \
                list(breaks)
        return _grid_convolution(jump_law, k, m, s2, [] if chain is None
                                 else chain)
    raise TypeError(f"unsupported jump law {type(jump_law).__name__}")


def _grid_convolution(law: ContinuousJumps, k: int, m: float, s2: float,
                      chain: list):
    """Fallback k-fold self convolution on a trapezoid grid.

    The convolved jump-sum density is approximated by point masses at grid
    nodes, each then smoothed by the interval's Gaussian; the result is a
    dense (hence smooth) Gaussian mixture normalized to trapezoid accuracy.
    ``chain`` keeps the unnormalized j-fold masses and their grid for one
    ``s2``, so the terms of a series cost one convolution each.
    """
    sd = math.sqrt(s2)
    if not chain:
        lo, hi = law.support
        step = min((hi - lo) / 1024.0, sd / 8.0)
        npts = int(math.ceil((hi - lo) / step)) + 1
        ys = np.linspace(lo, hi, npts)
        dens = np.asarray(law.density(ys), dtype=float)
        w = np.full(npts, ys[1] - ys[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        chain.append((dens * w, ys))
    masses, ys = chain[0]
    while len(chain) < k:
        acc, offs = chain[-1]
        acc = np.convolve(acc, masses)
        chain.append((acc, np.linspace(offs[0] + ys[0], offs[-1] + ys[-1],
                                       acc.size)))
    acc, offs = chain[k - 1]
    total = acc.sum()
    if total <= 0:
        raise ValueError("grid convolution lost all mass")
    acc = acc / total
    keep = acc > 1e-15
    means = m + offs[keep][None, :]
    return means, np.full(means.shape, sd), acc[keep], [], [], []


def _series_density(weights: np.ndarray, jump_law: JumpLaw, m: float,
                    s2: float) -> Density:
    components: list[np.ndarray] = [np.empty((0, 3))]
    extra: list[tuple[float, Callable]] = []
    extra_support: list[tuple[float, float]] = []
    extra_breaks: list[float] = []
    chain: list = []
    for k, wk in enumerate(weights):
        if wk <= 1e-300:
            continue
        means, sds, ws, ex, ex_sup, ex_br = _kfold_components(
            jump_law, k, m, s2, chain)
        components.append(np.stack(np.broadcast_arrays(
            means[0], sds[0], wk * ws), axis=1))
        extra.extend((wk * w, fn) for w, fn in ex)
        extra_support.extend(ex_sup)
        extra_breaks.extend(ex_br)
    return mixture_density(np.concatenate(components), extra, extra_support,
                           extra_breaks)


def has_mixture_rows(jump_law: JumpLaw) -> bool:
    """Whether one-jump laws of ``jump_law`` come as mixture-table rows.

    True for Dirac and lattice jumps, and for continuous laws whose
    ``exact_gauss_conv`` hook gives a Gaussian (probed at N(0, 1)).
    """
    if not isinstance(jump_law, ContinuousJumps):
        return True
    return _gauss_conv_rows(jump_law, 1, 0.0, 1.0) is not None


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


def bernoulli_density(summary: IntervalSummary | IncrementSummaries,
                      jump_law: JumpLaw) -> Density:
    """One-jump approximation: no jump w.p. 1 - alpha, one jump w.p. alpha.

    For a whole grid's :class:`IncrementSummaries` the result is one table
    with a row per interval; that needs a jump law for which
    :func:`has_mixture_rows` holds.
    """
    if isinstance(summary, IntervalSummary):
        weights = np.array([1.0 - summary.alpha, summary.alpha])
        return _series_density(weights, jump_law, summary.m, summary.sigma2)
    if not has_mixture_rows(jump_law):
        raise ValueError("the one-jump law is not a Gaussian mixture")
    m, s2, alpha = summary.m, summary.sigma2, summary.alpha
    m0, sd0 = _kfold_components(jump_law, 0, m, s2)[:2]
    m1, sd1, w1 = _kfold_components(jump_law, 1, m, s2)[:3]
    jumps = (alpha > 1e-300)[:, None]
    return Density.from_table(MixtureTable(
        np.concatenate((m0, np.where(jumps, m1, 0.0)), axis=1),
        np.concatenate((sd0, np.where(jumps, sd1, 1.0)), axis=1),
        np.concatenate(((1.0 - alpha)[:, None],
                        np.where(jumps, alpha[:, None] * w1, 0.0)), axis=1),
        size=np.where(jumps[:, 0], 1 + w1.size, 1)))


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
