"""Exact and approximate laws of a single observation increment.

Conditionally on the jump count ``k``, an increment is Gaussian with mean
``m_i`` plus the sum of ``k`` jump sizes.  The exact density is therefore
a Poisson-weighted series of Gaussian convolutions; truncating the series
at a negligible tail gives a numerical density with fully known structure
(component means and variances, a smoothed box for a uniform jump sum,
and breakpoints) that the quadrature oracle can integrate reliably.

The one-jump (Bernoulli count) approximation keeps only the ``k = 0`` and
``k = 1`` terms with weights ``1 - alpha_i`` and ``alpha_i``.  Both laws
are k-fold mixtures that differ only in their weights, and one builder
makes either for a whole grid.

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

#: a Poisson series stops once its remaining tail mass is at most this
_TAIL_TOL = 1e-12

#: mixtures larger than this are treated as smooth (no per-peak panel
#: splits) and are evaluated only against the components near each point
_MAX_PEAK_BREAKPOINTS = 64

#: component x point elements per evaluation block: a block takes its
#: points' means, sds and weight/sd as (component, point) arrays (one
#: ``take`` each, none for a one-row table) and forms its z, pdf and
#: terms from them, so it holds about six such temporaries (256 kB each)
#: at once
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
    ``sds`` and ``weights``; the rest of the row must be padding
    ``(0, 1, 0)``.
    ``box`` is the smoothed box

        box_weight[r] * (Phi((x - box_lo[r]) / box_sd[r])
                         - Phi((x - box_hi[r]) / box_sd[r])),

    a uniform law on ``[box_lo, box_hi]`` convolved with N(0, box_sd^2)
    (``box_weight`` 0: none).  ``beta`` is the restriction radius (inf:
    none); ``mass`` and ``resample_sd`` are the escaped mass and resampling
    sd of the truncate-and-resample output (0: none); ``fold`` marks rows
    folded onto the lattice cell, which are restricted to radius 1/2.
    A row's components need finite means and finite positive sds, and its
    padding must be ``(0, 1, 0)``, or the table raises ``ValueError``.
    Per-row fields may be given as scalars.  Every field is kept
    read-only: a full-shape array of the right dtype as a view of the
    caller's array (not copied, and still writable there), a scalar as one
    value with zero strides, any other shape as a broadcast view.
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
            object.__setattr__(self, name, _read_only(
                np.asarray(getattr(self, name), dtype=kind), shape))
        pad = np.arange(width) >= self.size[:, None]
        if not (np.isfinite(self.means) | pad).all():
            raise ValueError("component means must be finite")
        if not (((self.sds > 0.0) & (self.sds < math.inf)) | pad).all():
            raise ValueError("component sds must be finite and positive")
        if not (~pad | ((self.means == 0.0) & (self.sds == 1.0)
                        & (self.weights == 0.0))).all():
            raise ValueError("entries past a row's size must be padding "
                             "(0, 1, 0)")

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

    @cached_property
    def _all_topped(self) -> bool:
        return bool((self.resample_sd > 0.0).all())

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
            # every row of a pushforward's table is topped: no subset
            top = slice(None) if self._all_topped else np.flatnonzero(
                sd > 0.0)
            s = sd[top]
            out[top] += self.mass[rows[top]] * (
                (1.0 / s) * _gauss.std_pdf(x[top] / s))
        return out

    def escaped_mass(self, beta) -> np.ndarray:
        """Per row, the mass outside the closed ball ``[-beta, beta]``
        (``beta`` a scalar or one radius per row), in closed form.

        Each component adds ``w (Phi((-beta - m)/s) + Phi((m - beta)/s))``,
        in component order as in :meth:`_dense`, so padding adds exact
        zeros and a row's bits do not depend on the other rows.  A box
        adds ``box_weight * box_sd`` times a difference of ``G``, the
        integral of Phi, at its two ends on each side of the ball.
        Restricted, topped-up and folded rows raise ``ValueError``.
        """
        if not self.plain.all():
            raise ValueError("only unrestricted rows have an escaped mass")
        beta = np.broadcast_to(np.asarray(beta, dtype=float), (self.rows,))
        m, s = self.means, self.sds
        tails = _gauss.std_cdf(np.stack(((-beta[:, None] - m) / s,
                                         (m - beta[:, None]) / s)))
        out = np.zeros(self.rows)
        for term in (self.weights * (tails[0] + tails[1])).T:
            out += term
        if self._has_box:
            r = np.flatnonzero(self.boxed)
            b, lo, hi, sd = (beta[r], self.box_lo[r], self.box_hi[r],
                             self.box_sd[r])
            g = _gauss.std_cdf_integral(np.stack((
                (-b - lo) / sd, (-b - hi) / sd, (hi - b) / sd, (lo - b) / sd)))
            out[r] += self.box_weight[r] * sd * (g[0] - g[1] + g[2] - g[3])
        return out

    def _dense(self, x, rows):
        """Sums over every component, in component order for each point,
        so a row's padding adds exact zeros after its own terms."""
        columns = self._columns
        out = np.zeros(x.size)
        step = max(1, _BLOCK // max(1, columns[0].shape[0]))
        for s in range(0, x.size, step):
            part = slice(s, s + step)
            # take gathers the points' columns far faster than fancy
            # indexing does
            means, sds, scaled = columns if self.rows == 1 else (
                a.take(rows[part], axis=1) for a in columns)
            terms = scaled * _gauss.std_pdf((x[part] - means) / sds)
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
                # a running sum: the window's terms outside a point's own
                # reach are exact zeros, so they change none of its bits
                terms = scaled[win] * _gauss.std_pdf(z)
                out[at[a:b]] = (np.cumsum(terms, axis=1)[:, -1]
                                if terms.size else 0.0)
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


def _read_only(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``a`` as a read-only array of ``shape``: a view of a full-shape
    array, a zero-stride array of a scalar, or else a broadcast view."""
    if a.shape == shape:
        view = a.view()
    elif a.ndim == 0:
        view = np.ndarray(shape, a.dtype, a, strides=(0,) * len(shape))
    else:
        return np.broadcast_to(a, shape)
    view.flags.writeable = False
    return view


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
    itself.  A table may hold many laws, one per row (say, one per
    interval of a grid); ``structure`` gives each row's support ends, the
    region of non-negligible mass, and its breakpoints, where the pdf is
    non-smooth or sharply peaked, so quadrature panels can be split there.
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


def gaussian_density(m, s2) -> Density:
    """Gaussian law as a Density; support is the mean plus/minus 12 SDs.

    Arrays ``m`` and ``s2`` give one law per entry, as rows of one table.
    """
    s2 = np.asarray(s2, dtype=float)
    if np.any(s2 <= 0):
        raise ValueError("variance must be positive")
    return Density(MixtureTable(
        np.reshape(m, (-1, 1)), np.sqrt(s2).reshape(-1, 1), 1.0))


def _poisson_weights(lam: np.ndarray) -> np.ndarray:
    """Weights ``e^{-lam} lam^k / k!``, a row per entry of ``lam``, for
    k = 0..K: a row is 0 past the term where its tail drops to
    ``_TAIL_TOL``."""
    # math.exp, as in IncrementSummaries.alpha: the k = 1 terms equal it
    weights = [np.array([math.exp(-x) for x in lam.tolist()])]
    cum = weights[0]
    k = 0
    while (short := 1.0 - cum > _TAIL_TOL).any():
        k += 1
        if k > _MAX_SERIES_TERMS:
            raise ValueError(
                f"Poisson series for lam={lam[short][0]:g} needs more than "
                f"{_MAX_SERIES_TERMS} terms to reach tail {_TAIL_TOL:g}")
        weights.append(np.where(short, weights[-1] * lam / k, 0.0))
        cum = cum + weights[-1]
    return np.stack(weights, axis=1)


def _kfold_components(jump_law: JumpLaw, k: int, m: np.ndarray,
                      s2: np.ndarray, live: np.ndarray, chains: dict):
    """Structure of N(m, s2) convolved with a k-fold jump sum, a row per
    entry of the arrays ``m`` and ``s2``.

    Returns ``(means, sds, weights, box)``: (row, component) arrays whose
    weights are positive and sum to 1 along each row, a row with fewer
    components than the widest padded with weight 0; and ``box``, ``None``
    or a uniform sum as ``(height, lo, hi)`` with its ends shifted by each
    row's ``m`` (it then carries weight 1 alone).  A sum with no closed
    form extends a :func:`_self_convolution` chain kept in ``chains`` from
    one ``k`` to the next: a lattice law's pmf, or the masses of
    :func:`_grid_convolution`, which are right for the ``live`` rows only.
    """
    sd = np.sqrt(s2)[:, None]
    m = m[:, None]
    one = np.ones_like(m)
    if k == 0:
        return m, sd, one, None
    if isinstance(jump_law, DiracJump):
        return m + k * jump_law.location, sd, one, None
    if isinstance(jump_law, LatticeJumps):
        low = min(jump_law.values)  # the pmf on the integers from low up
        seed = (np.bincount(np.subtract(jump_law.values, low), jump_law.probs),
                np.arange(low, max(jump_law.values) + 1.0))
        pmf, support = _self_convolution(chains.setdefault(None, [seed]), k)
        keep = pmf > 1e-300
        means = m + support[keep]
        return (means, np.broadcast_to(sd, means.shape),
                np.broadcast_to(pmf[keep], means.shape), None)
    if isinstance(jump_law, ContinuousJumps):
        law = None if jump_law.kfold_law is None else jump_law.kfold_law(k)
        if law is None:
            return _grid_convolution(jump_law, k, m, s2, live, chains)
        kind, a, b = law
        if kind == "gaussian":
            return m + a, np.sqrt(s2[:, None] + b), one, None
        if kind == "uniform":
            none = np.empty((m.shape[0], 0))
            return none, none, none, (1.0 / (b - a), m[:, 0] + a,
                                      m[:, 0] + b)
        raise ValueError(f"unknown k-fold jump law {kind!r}")
    raise TypeError(f"unsupported jump law {type(jump_law).__name__}")


def _self_convolution(chain: list, k: int):
    """``chain[k - 1]``, the k-fold sum of the ``(masses, nodes)`` of
    ``chain[0]`` on evenly spaced nodes: ``chain[j]`` holds the (j + 1)-fold
    sum, and the missing entries are appended, one convolution each."""
    base, ys = chain[0]
    while len(chain) < k:
        acc, offs = chain[-1]
        acc = np.convolve(acc, base)
        chain.append((acc, np.linspace(offs[0] + ys[0], offs[-1] + ys[-1],
                                       acc.size)))
    return chain[k - 1]


def _grid_convolution(law: ContinuousJumps, k: int, m: np.ndarray,
                      s2: np.ndarray, live: np.ndarray, chains: dict):
    """Fallback k-fold self convolution on a trapezoid grid.

    The convolved jump-sum density is approximated by point masses at grid
    nodes, each then smoothed by the interval's Gaussian; the result is a
    dense (hence smooth) Gaussian mixture normalized to trapezoid accuracy.
    The grid depends on the variance alone, so ``chains[v]`` keeps the
    unnormalized j-fold masses and their grid for variance ``v``: a series
    costs one convolution per term and distinct variance of a ``live``
    row.  The other rows get some live variance's components.  A
    convolution that loses all its mass raises ``FloatingPointError``.
    """
    variances = np.unique(s2[live])
    group = np.searchsorted(variances, s2).clip(max=variances.size - 1)
    offsets, masses = [], []
    for v in variances.tolist():
        if v not in chains:
            lo, hi = law.support
            step = min((hi - lo) / 1024.0, math.sqrt(v) / 8.0)
            npts = int(math.ceil((hi - lo) / step)) + 1
            ys = np.linspace(lo, hi, npts)
            dens = np.asarray(law.density(ys), dtype=float)
            w = np.full(npts, ys[1] - ys[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            chains[v] = [(dens * w, ys)]
        acc, offs = _self_convolution(chains[v], k)
        total = acc.sum()
        if total <= 0:
            raise FloatingPointError("grid convolution lost all mass")
        acc = acc / total
        keep = acc > 1e-15
        offsets.append(offs[None, keep])
        masses.append(acc[None, keep])
    means = m + _stack_rows(offsets, 0.0)[group]
    return (means, np.broadcast_to(np.sqrt(s2)[:, None], means.shape),
            _stack_rows(masses, 0.0)[group], None)


def _kfold_table(summaries: IncrementSummaries, jump_law: JumpLaw,
                 weights: np.ndarray) -> Density:
    """One table whose row ``i`` mixes the k-fold laws of interval ``i``
    with weights ``weights[i, k]``, k = 0, 1, ...

    Terms of weight at most 1e-300 are dropped.  A row keeps its
    components in k order, and within a term in the k-fold law's order,
    so its sums do not depend on the other rows; padding ``(0, 1, 0)``
    follows them.
    """
    m, s2 = summaries.m, summaries.sigma2
    parts, box, chains = [], {}, {}
    for k, wk in enumerate(weights.T):
        live = wk > 1e-300
        if not live.any():
            continue
        means, sds, ws, edges = _kfold_components(jump_law, k, m, s2, live,
                                                  chains)
        parts.append((means, sds, wk[:, None] * ws,
                      live[:, None] & (ws > 0.0)))
        if edges is not None:
            if box:
                raise ValueError("a law may have one uniform k-fold sum")
            height, lo, hi = edges
            box = dict(box_weight=np.where(live, wk * height, 0.0),
                       box_lo=lo, box_hi=hi, box_sd=np.sqrt(s2))
    means, sds, ws, real = (np.concatenate(a, axis=1) for a in zip(*parts))
    size = real.sum(axis=1)
    # a stable sort keeps each row's components in order, padding last
    order = np.argsort(~real, axis=1, kind="stable")[:, :size.max()]
    pad = np.arange(order.shape[1]) >= size[:, None]
    means, sds, ws = (
        np.where(pad, fill, np.take_along_axis(a, order, axis=1))
        for a, fill in ((means, 0.0), (sds, 1.0), (ws, 0.0)))
    return Density(MixtureTable(means, sds, ws, size=size, **box))


def increment_density_exact(summaries: IncrementSummaries,
                            jump_law: JumpLaw) -> Density:
    """Exact increment laws via the Poisson-count series, a row per interval.

    Each series is truncated once the remaining Poisson tail mass is at
    most the constant ``1e-12``; the kept weights are not renormalized
    (total mass falls short of one by at most that tail) so the quadrature
    oracle sees the truncation honestly instead of a renormalized fake.
    """
    return _kfold_table(summaries, jump_law, _poisson_weights(summaries.lam))


def bernoulli_density(summaries: IncrementSummaries,
                      jump_law: JumpLaw) -> Density:
    """One-jump approximation: no jump w.p. 1 - alpha, one jump w.p. alpha.

    The result is one table with a row per interval: the exact law's
    builder with the weights ``(1 - alpha, alpha)`` in place of the
    Poisson series.
    """
    alpha = summaries.alpha
    return _kfold_table(summaries, jump_law,
                        np.stack((1.0 - alpha, alpha), axis=1))


def increment_cf(summary: IncrementSummaries, jump_law: JumpLaw, u):
    """CF at ``u`` of a one-interval grid's exact increment law.

    Uses the uncompensated form: the drift integral ``m_i`` is the actual
    increment mean rate of the continuous part, and the jump factor is
    ``exp(lam_i * (ghat(u) - 1))`` with ``ghat`` the jump-size CF.
    Summaries of more intervals raise ``ValueError``.
    """
    m, s2, lam = summary.scalars()
    u_arr = np.asarray(u, dtype=float)
    ghat = np.asarray(jump_law.cf(u_arr))
    val = np.exp(1j * u_arr * m - 0.5 * u_arr ** 2 * s2 + lam * (ghat - 1.0))
    return complex(val) if np.ndim(u) == 0 else val
