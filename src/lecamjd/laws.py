"""Exact and approximate laws of a single observation increment.

Conditionally on the jump count ``k``, an increment is Gaussian with mean
``m_i`` plus the sum of ``k`` jump sizes.  The exact density is therefore
a Poisson-weighted series of Gaussian convolutions; truncating the series
at a negligible tail gives a numerical density with fully known structure
(component means and variances, a smoothed box for a uniform jump sum,
and breakpoints) that the quadrature oracle can integrate reliably.

The one-jump (Bernoulli count) approximation keeps only the ``k = 0`` and
``k = 1`` terms with weights ``1 - alpha_i`` and ``alpha_i``.

Every density is data: a :class:`MixtureTable` holds one law per row (a
finite Gaussian mixture plus at most one Gaussian-smoothed uniform box,
possibly restricted to a ball and topped up by a resampling Gaussian),
its one evaluator gives every pdf, and a density built from a whole
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
                    JumpLaw, LatticeJumps)

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

#: component x point elements per evaluation block: a block gathers its
#: points' means, sds and weights, so it holds about six such
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

        where(|x| <= beta[r], sum_k (w/s) phi((x - m)/s) + box(x), 0)
            + mass[r] * phi(x / sd[r]) / sd[r]

    over the row's first ``size[r]`` entries ``(m, s, w)`` of ``means``,
    ``sds`` and ``weights``; the rest of the row is padding ``(0, 1, 0)``.
    ``box`` is the smoothed box

        box_weight[r] * (Phi((x - box_lo[r]) / box_sd[r])
                         - Phi((x - box_hi[r]) / box_sd[r])),

    a uniform law on ``[box_lo, box_hi]`` convolved with N(0, box_sd^2)
    (``box_weight`` 0: none).  ``beta`` is the restriction radius (inf:
    none); ``mass`` and ``resample_sd`` are the escaped mass and resampling
    sd of the truncate-and-resample output (0: none); ``fold`` marks rows
    folded onto the lattice cell, which are restricted to radius 1/2.
    Per-row fields may be given as scalars.
    """

    means: np.ndarray
    sds: np.ndarray
    weights: np.ndarray
    size: np.ndarray | None = None
    beta: np.ndarray = math.inf
    mass: np.ndarray = 0.0
    resample_sd: np.ndarray = 0.0
    fold: np.ndarray = False
    box_weight: np.ndarray = 0.0
    box_lo: np.ndarray = 0.0
    box_hi: np.ndarray = 0.0
    box_sd: np.ndarray = 1.0
    _by_mean: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        rows, width = means.shape
        if self.size is None:
            object.__setattr__(self, "size", np.full(rows, width))
        for name, kind in (("means", float), ("sds", float),
                           ("weights", float), ("size", np.intp),
                           ("beta", float), ("mass", float),
                           ("resample_sd", float), ("fold", bool),
                           ("box_weight", float), ("box_lo", float),
                           ("box_hi", float), ("box_sd", float)):
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
        """Rows with no restriction, top-up or fold (a box is allowed)."""
        return (np.isinf(self.beta) & (self.resample_sd == 0.0)
                & ~self.fold)

    @property
    def boxed(self) -> np.ndarray:
        """Rows with a smoothed box term."""
        return self.box_weight > 0.0

    @cached_property
    def _scaled(self) -> np.ndarray:
        return self.weights / self.sds

    @cached_property
    def _wide(self) -> np.ndarray:
        """Rows evaluated by :meth:`_windowed`."""
        return self.size > _MAX_PEAK_BREAKPOINTS

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """Means, sds and weight/sd of the rows that are not wide, as
        (component, row) arrays as wide as the largest of those rows."""
        w = int(self.size[~self._wide].max(initial=0))
        return tuple(np.ascontiguousarray(a[:, :w].T)
                     for a in (self.means, self.sds, self._scaled))

    @cached_property
    def _has_box(self) -> bool:
        return bool(self.boxed.any())

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
        if not self._wide.any():
            out = self._dense(x, rows)
        else:
            out = np.empty(x.size)
            wide = self._wide[rows]
            for at, part in ((wide, self._windowed), (~wide, self._dense)):
                at = np.flatnonzero(at)
                out[at] = part(x[at], rows[at])
        if self._has_box:
            at = np.flatnonzero(self.boxed[rows])
            r, xa = rows[at], x[at]
            s = self.box_sd[r]
            cdf = _gauss.std_cdf(np.stack(((xa - self.box_lo[r]) / s,
                                           (xa - self.box_hi[r]) / s)))
            out[at] += self.box_weight[r] * (cdf[0] - cdf[1])
        if self._cut:
            out = np.where(np.abs(x) <= self.beta[rows], out, 0.0)
        if self._topped:
            sd = self.resample_sd[rows]
            top = np.flatnonzero(sd > 0.0)
            s = sd[top]
            out[top] += self.mass[rows[top]] * (
                (1.0 / s) * _gauss.std_pdf(x[top] / s))
        return out

    def _dense(self, x, rows):
        """Sums over every component, in component order for each point,
        so a row's padding adds exact zeros after its own terms."""
        means, sds, scaled = self._columns
        out = np.zeros(x.size)
        step = max(1, _BLOCK // max(1, means.shape[0]))
        for s in range(0, x.size, step):
            part = slice(s, s + step)
            r = slice(None) if self.rows == 1 else rows[part]
            terms = scaled[:, r] * _gauss.std_pdf(
                (x[part] - means[:, r]) / sds[:, r])
            acc = out[part]
            for term in terms:
                acc += term
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
        """Per row: support ends and breakpoints (a NaN-padded array with
        no all-NaN column).

        A bare mixture spans its components' means plus/minus 12 sds and
        breaks at each mean and its 6-sd shoulders, unless it has more than
        ``_MAX_PEAK_BREAKPOINTS`` components; a box reaches 12 of its sds
        past each end and breaks at both ends; a restricted row keeps the
        breakpoints inside its ball and adds the ball's edges; a folded row
        is the cell ``[-1/2, 1/2]``, broken at its components' centers.
        """
        m, s = self.means, self.sds
        real = np.arange(m.shape[1]) < self.size[:, None]
        box = self.boxed
        lo = np.where(real, m - 12.0 * s, np.inf).min(axis=1)
        hi = np.where(real, m + 12.0 * s, -np.inf).max(axis=1)
        lo = np.where(box, np.minimum(lo, self.box_lo - 12.0 * self.box_sd),
                      lo)
        hi = np.where(box, np.maximum(hi, self.box_hi + 12.0 * self.box_sd),
                      hi)
        pts = np.concatenate((m - 6.0 * s, m, m + 6.0 * s,
                              np.stack((self.box_lo, self.box_hi), axis=1)),
                             axis=1)
        peaks = np.concatenate((
            np.tile(real & (self.size <= _MAX_PEAK_BREAKPOINTS)[:, None], 3),
            np.stack((box, box), axis=1)), axis=1)
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
        return lo, hi, np.where(inside, pts, np.nan)[:, inside.any(axis=0)]

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
              for name in ("size", "beta", "mass", "resample_sd", "fold",
                           "box_weight", "box_lo", "box_hi", "box_sd")))


def _stack_rows(arrays, fill) -> np.ndarray:
    """2-d arrays stacked row-wise, each padded on the right with ``fill``
    to the widest."""
    width = max(a.shape[1] for a in arrays)
    return np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1])),
                                  constant_values=fill) for a in arrays])


@dataclass(frozen=True)
class Density:
    """A :class:`MixtureTable` as a numerical density for the oracle.

    ``pdf`` evaluates the table (row ``rows`` of ``pdf(x, rows)``); a
    wrapper may replace it, but the oracle and the kernels read ``table``
    itself.  ``support`` bounds the region of non-negligible mass and
    ``breakpoints`` are interior points where the pdf is non-smooth or
    sharply peaked, so quadrature panels can be split there.  A table may
    hold many laws, one per row (say, one per interval of a grid); then
    ``support`` is a pair of per-row arrays and ``breakpoints`` a
    NaN-padded array with a row per law.
    """

    table: MixtureTable
    pdf: Callable | None = None

    def __post_init__(self):
        if self.pdf is None:
            object.__setattr__(self, "pdf", self.table.pdf)

    def __call__(self, x):
        return self.pdf(x)

    @property
    def rows(self) -> int:
        return self.table.rows

    def structure(self):
        """Per row: support ends and breakpoints (a NaN-padded array)."""
        return self.table.structure()

    @property
    def support(self):
        lo, hi, _ = self.structure()
        return (float(lo[0]), float(hi[0])) if self.rows == 1 else (lo, hi)

    @property
    def breakpoints(self):
        pts = self.structure()[2]
        if self.rows > 1:
            return pts
        return tuple(sorted(set(pts[0][~np.isnan(pts[0])].tolist())))


def mixture_density(components) -> Density:
    """Gaussian mixture of ``(mean, sd, weight)`` components as a Density.

    Component means and their 6-sd shoulders are exposed as breakpoints
    unless the mixture is too dense to be spiky; the shoulders give every
    narrow peak panels of its own scale, so quadrature cannot skip over a
    bump that is much thinner than the union support.
    """
    comps = np.asarray(components, dtype=float).reshape(-1, 3)
    if not len(comps):
        raise ValueError("density needs at least one component")
    return Density(MixtureTable(*comps.T))


def gaussian_density(m, s2) -> Density:
    """Gaussian law as a Density; support is the mean plus/minus 12 SDs.

    Arrays ``m`` and ``s2`` give one law per entry, as rows of one table.
    """
    s2 = np.asarray(s2, dtype=float)
    if np.any(s2 <= 0):
        raise ValueError("variance must be positive")
    return Density(MixtureTable(
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


def _kfold_components(jump_law: JumpLaw, k: int, m, s2, chain=None):
    """Structure of N(m, s2) convolved with a k-fold jump sum.

    ``m`` and ``s2`` hold one entry per row; a law without a closed form
    for the sum goes through :func:`_grid_convolution`, which takes one
    row and the ``chain`` it keeps.  Returns ``(means, sds, weights,
    box)``: component ``means`` and ``sds`` with a row per entry and a
    column per component, ``weights`` per column summing to 1, and
    ``box``, ``None`` or a uniform sum as ``(height, lo, hi)`` with its
    ends shifted by each row's ``m`` (it then carries weight 1 alone).
    """
    m = np.reshape(m, (-1, 1))
    s2 = np.reshape(s2, (-1, 1))
    sd = np.sqrt(s2)
    one = np.ones(1)
    if k == 0:
        return m, sd, one, None
    if isinstance(jump_law, DiracJump):
        return m + k * jump_law.location, sd, one, None
    if isinstance(jump_law, LatticeJumps):
        support, pmf = jump_law.kfold_pmf(k)
        keep = pmf > 1e-300
        means = m + support[keep]
        return means, np.broadcast_to(sd, means.shape), pmf[keep], None
    if isinstance(jump_law, ContinuousJumps):
        law = _jump_sum(jump_law, k)
        if law is None:
            return _grid_convolution(jump_law, k, float(m[0, 0]),
                                     float(s2[0, 0]),
                                     [] if chain is None else chain)
        kind, a, b = law
        if kind == "gaussian":
            return m + a, np.sqrt(s2 + b), one, None
        if kind == "uniform":
            none = np.empty((m.shape[0], 0))
            return none, none, none[0], (1.0 / (b - a), m[:, 0] + a,
                                         m[:, 0] + b)
        raise ValueError(f"unknown k-fold jump law {kind!r}")
    raise TypeError(f"unsupported jump law {type(jump_law).__name__}")


def _jump_sum(law: ContinuousJumps, k: int):
    """The law's closed form of its k-fold jump sum, or ``None``."""
    return None if law.kfold_law is None else law.kfold_law(k)


def _box_fields(box, weight, sd) -> dict:
    """:class:`MixtureTable` box fields of a ``box`` from
    :func:`_kfold_components` carrying ``weight``, smoothed by ``sd``."""
    if box is None:
        return {}
    height, lo, hi = box
    return dict(box_weight=weight * height, box_lo=lo, box_hi=hi, box_sd=sd)


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
    return means, np.full(means.shape, sd), acc[keep], None


def _series_table(weights: np.ndarray, jump_law: JumpLaw, m: float,
                  s2: float) -> MixtureTable:
    components: list[np.ndarray] = [np.empty((0, 3))]
    box: dict = {}
    chain: list = []
    for k, wk in enumerate(weights):
        if wk <= 1e-300:
            continue
        means, sds, ws, edges = _kfold_components(jump_law, k, m, s2, chain)
        components.append(np.stack(np.broadcast_arrays(
            means[0], sds[0], wk * ws), axis=1))
        if edges is not None:
            if box:
                raise ValueError("a law may have one uniform k-fold sum")
            box = _box_fields(edges, wk, math.sqrt(s2))
    return MixtureTable(*np.concatenate(components).T, **box)


def _series_rows(summaries: IncrementSummaries, jump_law: JumpLaw,
                 weights) -> Density:
    """One table whose row ``i`` mixes the k-fold laws of interval ``i``
    with weights ``weights[i][k]``, k = 0, 1, ..."""
    return Density(MixtureTable.concat(
        _series_table(w, jump_law, m, s2) for w, m, s2 in
        zip(weights, summaries.m.tolist(), summaries.sigma2.tolist())))


def increment_density_exact(summaries: IncrementSummaries, jump_law: JumpLaw,
                            tail_tol: float = 1e-12) -> Density:
    """Exact increment laws via the Poisson-count series, a row per interval.

    Each series is truncated once the remaining Poisson tail mass drops
    below ``tail_tol``; the kept weights are not renormalized (total mass
    falls short of one by at most ``tail_tol``) so the quadrature oracle
    sees the truncation honestly instead of a renormalized fake.
    """
    return _series_rows(summaries, jump_law,
                        [_poisson_weights(lam, tail_tol)
                         for lam in summaries.lam.tolist()])


def bernoulli_density(summaries: IncrementSummaries,
                      jump_law: JumpLaw) -> Density:
    """One-jump approximation: no jump w.p. 1 - alpha, one jump w.p. alpha.

    The result is one table with a row per interval, built in array form;
    a continuous law with no closed form for one jump is convolved on a
    grid interval by interval into that table.
    """
    if (isinstance(jump_law, ContinuousJumps)
            and _jump_sum(jump_law, 1) is None):
        return _series_rows(summaries, jump_law, [
            (1.0 - a, a) for a in summaries.alpha.tolist()])
    m, s2, alpha = summaries.m, summaries.sigma2, summaries.alpha
    m0, sd0 = _kfold_components(jump_law, 0, m, s2)[:2]
    m1, sd1, w1, box = _kfold_components(jump_law, 1, m, s2)
    jumps = (alpha > 1e-300)[:, None]
    return Density(MixtureTable(
        np.concatenate((m0, np.where(jumps, m1, 0.0)), axis=1),
        np.concatenate((sd0, np.where(jumps, sd1, 1.0)), axis=1),
        np.concatenate(((1.0 - alpha)[:, None],
                        np.where(jumps, alpha[:, None] * w1, 0.0)), axis=1),
        size=np.where(jumps[:, 0], 1 + w1.size, 1),
        **_box_fields(box, np.where(jumps[:, 0], alpha, 0.0), sd0[:, 0])))


def increment_cf(summary: IncrementSummaries, jump_law: JumpLaw, u):
    """CF at ``u`` of a one-interval grid's exact increment law.

    Uses the uncompensated form: the drift integral ``m_i`` is the actual
    increment mean rate of the continuous part, and the jump factor is
    ``exp(lam_i * (ghat(u) - 1))`` with ``ghat`` the jump-size CF.
    Summaries of more intervals raise ``ValueError``.
    """
    m, s2, lam, _ = summary.scalars()
    u_arr = np.asarray(u, dtype=float)
    ghat = np.asarray(jump_law.cf(u_arr))
    val = np.exp(1j * u_arr * m - 0.5 * u_arr ** 2 * s2 + lam * (ghat - 1.0))
    return complex(val) if np.ndim(u) == 0 else val
