"""Exact and approximate laws of a single observation increment.

Conditionally on the jump count ``k``, an increment is Gaussian with mean
``m_i`` plus the sum of ``k`` jump sizes.  The exact density is therefore
a Poisson-weighted series of Gaussian convolutions; truncating the series
at a negligible tail gives a numerical density with fully known structure
(component means and variances, smoothed Irwin-Hall terms for uniform
jump sums, and breakpoints) that the quadrature oracle can integrate
reliably.  Every k-fold jump sum has a closed form: a lattice pmf, a
Gaussian, or the Irwin-Hall law of a uniform sum (Irwin 1927; Hall 1927),
a B-spline whose Gaussian smoothing is integrated piece by piece.

The one-jump (Bernoulli count) approximation keeps only the ``k = 0`` and
``k = 1`` terms with weights ``1 - alpha_i`` and ``alpha_i``.  Both laws
are k-fold mixtures that differ only in their weights, and one builder
makes either for a whole grid.

Every density is data: a :class:`MixtureTable` holds one law per row (a
finite Gaussian mixture plus Gaussian-smoothed Irwin-Hall terms, one per
jump count, possibly restricted to a ball and topped up by a resampling
Gaussian), its one evaluator gives every pdf, and a density built from a
whole grid's summaries is one table with a row per interval.  Lattice-cell
folding merges components whose centers coincide modulo 1, which is what
keeps the folded comparison of a jump law against a pure Gaussian
numerically exact instead of drowning in floating-point cancellation
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

#: component x point elements per evaluation block: a block takes its
#: points' means, sds and weight/sd as (component, point) arrays (one
#: ``take`` each, none for a one-row table) and forms its z, pdf and
#: terms from them, so it holds about six such temporaries (256 kB each)
#: at once
_BLOCK = 32_768

#: a lattice k-fold sum spans at most this many integers: its pmf is that
#: long, and a convolution of the chain costs its length times one jump's
_MAX_LATTICE_WIDTH = 1 << 16

#: a lattice k-fold sum's component means reach at most this far from the
#: drift: every integer up to 2^53 is a float, but not every one past it
_MAX_LATTICE_OFFSET = 1 << 53

#: a spline piece farther than this many sds from a point adds exactly 0:
#: Phi is 0 or 1 and phi underflows there, so it is skipped
_PIECE_REACH = 40.0

#: terms of the Taylor series of phi across a spline piece at least one sd
#: wide: 32 reach rounding at one sd, and fewer are needed past it
_SERIES_TERMS = 32


@dataclass(frozen=True, eq=False)
class MixtureTable:
    """Finite Gaussian mixtures as padded arrays, one law per row.

    Row ``r`` is the density

        where(|x| <= beta[r], sum_k (w/s) phi((x - m)/s) + box(x), 0)
            + mass[r] * phi(x / sd[r]) / sd[r]

    over the row's first ``size[r]`` entries ``(m, s, w)`` of ``means``,
    ``sds`` and ``weights``; the rest of the row must be padding
    ``(0, 1, 0)``.
    ``box`` sums smoothed Irwin-Hall terms, one per column ``c``: with
    ``k = c + 1``, ``lo, hi = box_lo[r, c], box_hi[r, c]`` and
    ``h = (hi - lo) / k``, term ``c`` is ``box_weight[r, c]`` times the
    density at ``(x - lo) / h`` of ``T + box_sd[r] / h * Z``, ``T`` the sum
    of ``k`` uniforms on [0, 1] and ``Z`` standard normal.  That is the sum
    of ``k`` uniform jumps on ``[lo / k, hi / k]`` plus N(0, box_sd^2), of
    mass ``box_weight * h`` (``box_weight`` 0: none).  For ``k = 1`` it is

        box_weight[r, 0] * (Phi((x - box_lo[r, 0]) / box_sd[r])
                            - Phi((x - box_hi[r, 0]) / box_sd[r])).

    ``beta`` is the restriction radius (inf: none; a row folded onto
    the lattice cell is restricted to 1/2); ``mass`` and ``resample_sd``
    are the escaped mass and resampling sd of the truncate-and-resample
    output (0: none).
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
    box_weight: np.ndarray = 0.0
    box_lo: np.ndarray = 0.0
    box_hi: np.ndarray = 0.0
    box_sd: np.ndarray = 1.0

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        rows, width = means.shape
        if self.size is None:
            object.__setattr__(self, "size", np.full(rows, width))
        terms = np.shape(self.box_weight)[1:2] or (1,)
        for name, kind in (("means", float), ("sds", float),
                           ("weights", float), ("size", np.intp),
                           ("beta", float), ("mass", float),
                           ("resample_sd", float), ("box_weight", float),
                           ("box_lo", float), ("box_hi", float),
                           ("box_sd", float)):
            shape = ((rows, width) if name in ("means", "sds", "weights")
                     else (rows, *terms) if name in ("box_weight", "box_lo",
                                                     "box_hi")
                     else (rows,))
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
        """Rows with no restriction or top-up (spline terms allowed)."""
        return np.isinf(self.beta) & (self.resample_sd == 0.0)

    @property
    def boxed(self) -> np.ndarray:
        """Rows with a smoothed Irwin-Hall term."""
        return (self.box_weight > 0.0).any(axis=1)

    @cached_property
    def _scaled(self) -> np.ndarray:
        return self.weights / self.sds

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """Means, sds and weight/sd as (component, row) arrays as wide as
        the largest row."""
        w = int(self.size.max(initial=0))
        return tuple(np.ascontiguousarray(a[:, :w].T)
                     for a in (self.means, self.sds, self._scaled))

    @cached_property
    def _terms(self) -> list[int]:
        """The ``box_*`` columns where some row has an Irwin-Hall term."""
        return np.flatnonzero((self.box_weight > 0.0).any(axis=0)).tolist()

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

    # a point some 1e154 sds from a component overflows the square in
    # phi's exponent, where phi is exactly 0: that overflow is no fault
    @np.errstate(over="ignore")
    def values(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Density of row ``rows[j]`` at ``x[j]``, for flat arrays."""
        out = self._dense(x, rows)
        for c in self._terms:
            at = np.flatnonzero(self.box_weight[rows, c] > 0.0)
            r, xa = rows[at], x[at]
            lo, hi = self.box_lo[r, c], self.box_hi[r, c]
            h = (hi - lo) / (c + 1)
            out[at] += self.box_weight[r, c] * _pieces(
                _irwin_hall(c + 1)[0], (xa - lo) / h, self.box_sd[r] / h)
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
        zeros and a row's bits do not depend on the other rows.  An
        Irwin-Hall term adds its mass times its two tail probabilities,
        each Phi of the ball's distance from the term's end plus the
        pieces of its smoothed survival function.
        Restricted rows (folded ones too) and topped-up rows raise
        ``ValueError``.
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
        for c in self._terms:
            # the term's mass above beta, and by its symmetry below -beta
            r = np.flatnonzero(self.box_weight[:, c] > 0.0)
            lo, hi = self.box_lo[r, c], self.box_hi[r, c]
            h = (hi - lo) / (c + 1)
            v = np.concatenate(((beta[r] - lo) / h, (hi + beta[r]) / h))
            sd = np.tile(self.box_sd[r] / h, 2)
            above = _gauss.std_cdf(-v / sd) + _pieces(_irwin_hall(c + 1)[1],
                                                      v, sd)
            out[r] += self.box_weight[r, c] * h * (above[:r.size]
                                                   + above[r.size:])
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
            # a reduce down the components adds whole rows of terms in
            # order, from 0; it would sum one point's terms pairwise, so a
            # lone point accumulates them instead
            if terms.shape[1] > 1:
                np.add.reduce(terms, axis=0, out=out[part], initial=0.0)
            else:
                out[part] = np.add.accumulate(np.append(0.0, terms))[-1]
        return out

    def structure(self):
        """Per row: support ends and breakpoints (a NaN-padded array with
        no all-NaN column).

        A bare mixture spans its components' means plus/minus 12 sds and
        breaks at each mean and its 6-sd shoulders; an Irwin-Hall term
        reaches 12 of its sds past each end and breaks at its knots, the
        ends of its pieces; a restricted row keeps the breakpoints inside
        its ball and adds the ball's edges.  A row folded onto the lattice
        cell is such a row, restricted to ``[-1/2, 1/2]``.
        """
        m, s = self.means, self.sds
        real = np.arange(m.shape[1]) < self.size[:, None]
        lo = np.where(real, m - 12.0 * s, np.inf).min(axis=1)
        hi = np.where(real, m + 12.0 * s, -np.inf).max(axis=1)
        knots, peaks = [m - 6.0 * s, m, m + 6.0 * s], [real] * 3
        # each step below changes nothing on rows without its feature, so
        # a table none of whose rows has it skips the step
        if self._terms:
            terms, reach = self.box_weight > 0.0, 12.0 * self.box_sd[:, None]
            lo = np.minimum(lo, np.where(terms, self.box_lo - reach,
                                         np.inf).min(axis=1))
            hi = np.maximum(hi, np.where(terms, self.box_hi + reach,
                                         -np.inf).max(axis=1))
        for c in self._terms:
            a, b = self.box_lo[:, c, None], self.box_hi[:, c, None]
            knots.append(np.concatenate(
                (a + np.arange(c + 1) * ((b - a) / (c + 1)), b), axis=1))
            peaks.append(np.repeat(terms[:, c, None], c + 2, axis=1))
        pts, peaks = np.concatenate(knots, axis=1), np.concatenate(peaks, 1)
        ok = peaks & (pts > lo[:, None]) & (pts < hi[:, None])
        beta, sd = self.beta, self.resample_sd
        if self._cut:
            cut = np.isfinite(beta)
            lo = np.where(cut, np.minimum(-12.0 * sd, np.maximum(lo, -beta)),
                          lo)
            hi = np.where(cut, np.maximum(12.0 * sd, np.minimum(hi, beta)),
                          hi)
            ok &= ~cut[:, None] | (np.abs(pts) < beta[:, None])
        pts = np.where(ok, pts, np.nan)
        if self._cut:
            pts = np.concatenate((pts, np.where(
                cut[:, None], np.stack((-beta, beta), axis=1), np.nan)),
                axis=1)
        inside = (pts > lo[:, None]) & (pts < hi[:, None])
        return lo, hi, np.where(inside, pts, np.nan)[:, inside.any(axis=0)]


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


def _pieces(coef: np.ndarray, u: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Per point, ``sum_j int_0^1 p_j(t) phi_sd(u - j - t) dt``, where
    ``coef[j, n]`` is the coefficient of ``t^n`` in piece ``j``.

    By the moments ``K_n = int_0^1 t^n phi_sd(d - t) dt``, ``d = u - j``:
    ``K_0`` is a difference of Phi, and integration by parts gives
    ``K_n = d K_{n-1} + (n - 1) sd^2 K_{n-2} - sd^2 (psi(1) - [n = 1]
    psi(0))`` with ``psi(t) = phi_sd(d - t)``.  That loses about ``sd^n``
    of its digits, so for ``sd >= 1`` a piece of degree 1 and up meets its
    moments ``int_0^1 t^i p_j(t) dt`` with the Taylor series of
    ``phi_sd(d - t)`` in ``t``, ``sum_i He_i(z) phi(z) (t / sd)^i / (i! sd)``
    at ``z = d / sd``.  A constant piece takes ``K_0`` at every sd: it has
    no step in which to lose digits, while the series loses relative
    accuracy in far tails.
    Pieces more than ``_PIECE_REACH`` sds away are skipped; a point's
    pieces are summed in order.
    """
    out = np.empty(u.size)
    series = (sd >= 1.0) & (coef.shape[1] > 1)
    for wide in np.unique(series):
        at = np.flatnonzero(series == wide)
        # distances in sds from each knot, and the pieces in reach
        z = (u[at, None] - np.arange(coef.shape[0] + 1.0)) / sd[at, None]
        near, j = np.nonzero((z[:, :-1] > -_PIECE_REACH)
                             & (z[:, 1:] < _PIECE_REACH))
        s = sd[at][near]
        if wide:
            moments = coef @ (1.0 / (np.arange(coef.shape[1])[:, None]
                                     + np.arange(_SERIES_TERMS) + 1.0))
            z = z[near, j]
            term, he, last = _gauss.std_pdf(z) / s, np.ones_like(z), 0.0
            acc = moments[j, 0] * term
            for i in range(1, _SERIES_TERMS):
                last, he = he, z * he - (i - 1) * last
                term = term / (i * s)
                acc += moments[j, i] * term * he
        else:
            # K_0 from the smaller tails, so that it keeps its relative
            # accuracy past the piece, where the recursion multiplies its
            # error by d
            tail = _gauss.std_cdf(-np.abs(z))
            a, b, za, zb = (tail[near, j], tail[near, j + 1], z[near, j],
                            z[near, j + 1])
            moment = np.where(zb >= 0.0, b - a,
                              np.where(za <= 0.0, a - b, (1.0 - a) - b))
            psi = _gauss.std_pdf(z) / sd[at][:, None]
            psi0, psi1, s2 = psi[near, j], psi[near, j + 1], s * s
            d, last, acc = u[at][near] - j, 0.0, coef[j, 0] * moment
            for n in range(1, coef.shape[1]):
                edge = psi1 - psi0 if n == 1 else psi1
                last, moment = moment, (d * moment + (n - 1) * s2 * last
                                        - s2 * edge)
                acc += coef[j, n] * moment
        out[at] = np.bincount(near, acc, at.size)
    return out


@lru_cache(maxsize=None)
def _irwin_hall(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The Irwin-Hall law of ``k`` uniforms on [0, 1], piece by piece: the
    coefficients of ``t^n`` in its density and its survival function at
    ``j + t`` on piece ``j``, as ``(k, k)`` and ``(k, k + 1)`` arrays, each
    rounded once from exact rationals (int / int rounds correctly)."""
    def piece(j, degree):
        # degree! times the density (degree k - 1) or the CDF (degree k):
        # sum_{i <= j} (-1)^i C(k, i) (j + t - i)^degree, exact in integers
        return [sum((-1) ** i * math.comb(k, i) * math.comb(degree, n)
                    * (j - i) ** (degree - n) for i in range(j + 1))
                for n in range(degree + 1)]
    dens, cdf = math.factorial(k - 1), math.factorial(k)
    return (np.array([[c / dens for c in piece(j, k - 1)]
                      for j in range(k)]),
            np.array([[((n == 0) * cdf - c) / cdf
                       for n, c in enumerate(piece(j, k))]
                      for j in range(k)]))


def _kfold_components(jump_law: JumpLaw, k: int, m: np.ndarray,
                      s2: np.ndarray, chain: list):
    """Structure of N(m, s2) convolved with a k-fold jump sum, a row per
    entry of the arrays ``m`` and ``s2``.

    Returns ``(means, sds, weights, spline)``: (row, component) arrays
    whose weights are positive and sum to 1 along each row, a row with
    fewer components than the widest padded with weight 0; and
    ``spline``, ``None`` or an Irwin-Hall sum of ``k`` pieces as
    ``(height, lo, hi)`` with its ends shifted by each row's ``m`` (it
    then carries weight 1 alone), read from a continuous law's closed form
    as its Gaussian sum is.  A lattice pmf's k-fold sum extends the
    :func:`_self_convolution` ``chain`` from one ``k`` to the next, and
    raises ``ValueError`` past ``_MAX_LATTICE_WIDTH`` integers or where a
    jump sum passes ``_MAX_LATTICE_OFFSET``.
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
        width = k * (max(jump_law.values) - low) + 1  # exact in ints
        if width > _MAX_LATTICE_WIDTH:
            raise ValueError(
                f"the sum of {k} lattice jumps spans {width} integers, more "
                f"than the {_MAX_LATTICE_WIDTH} a k-fold table may hold")
        top = max(jump_law.values, key=abs)
        if k * abs(top) > _MAX_LATTICE_OFFSET:
            raise ValueError(
                f"the sum of {k} lattice jumps of size {float(top)!r} passes "
                "+/-2**53, past which a float does not hold every integer")
        if not chain:
            chain.append(np.bincount([v - low for v in jump_law.values],
                                     jump_law.probs))
        pmf = _self_convolution(chain, k)
        keep = pmf > 1e-300
        means = m + (k * low + np.arange(pmf.size, dtype=float))[keep]
        return (means, np.broadcast_to(sd, means.shape),
                np.broadcast_to(pmf[keep], means.shape), None)
    if isinstance(jump_law, ContinuousJumps):
        a, b = jump_law.a, jump_law.b
        if jump_law.kind == "gaussian":
            return m + k * a, np.sqrt(s2[:, None] + k * b * b), one, None
        lo, hi = k * a, k * b
        none = np.empty((m.shape[0], 0))
        return none, none, none, (k / (hi - lo), m[:, 0] + lo, m[:, 0] + hi)
    raise TypeError(f"unsupported jump law {type(jump_law).__name__}")


def _self_convolution(chain: list, k: int) -> np.ndarray:
    """``chain[k - 1]``, the k-fold self convolution of the pmf ``chain[0]``:
    the missing entries are appended, one convolution each."""
    while len(chain) < k:
        chain.append(np.convolve(chain[-1], chain[0]))
    return chain[k - 1]


def _kfold_table(summaries: IncrementSummaries, jump_law: JumpLaw,
                 weights: np.ndarray) -> Density:
    """One table whose row ``i`` mixes the k-fold laws of interval ``i``
    with weights ``weights[i, k]``, k = 0, 1, ...

    Terms of weight at most 1e-300 are dropped.  A row keeps its
    components in k order, and within a term in the k-fold law's order,
    so its sums do not depend on the other rows; padding ``(0, 1, 0)``
    follows them.  An Irwin-Hall sum of ``k`` uniform jumps is column
    ``k - 1`` of the ``box_*`` fields.
    """
    m, s2 = summaries.m, summaries.sigma2
    parts, chain, box = [], [], {}
    for k, wk in enumerate(weights.T):
        live = wk > 1e-300
        if not live.any():
            continue
        means, sds, ws, spline = _kfold_components(jump_law, k, m, s2, chain)
        parts.append((means, sds, wk[:, None] * ws,
                      live[:, None] & (ws > 0.0)))
        if spline is not None:
            height, lo, hi = spline
            box = box or {name: np.zeros((m.size, weights.shape[1] - 1))
                          for name in ("box_weight", "box_lo", "box_hi")}
            box["box_weight"][:, k - 1] = np.where(live, wk * height, 0.0)
            box["box_lo"][:, k - 1], box["box_hi"][:, k - 1] = lo, hi
    means, sds, ws, real = (np.concatenate(a, axis=1) for a in zip(*parts))
    size = real.sum(axis=1)
    # a stable sort keeps each row's components in order, padding last
    order = np.argsort(~real, axis=1, kind="stable")[:, :size.max()]
    pad = np.arange(order.shape[1]) >= size[:, None]
    means, sds, ws = (
        np.where(pad, fill, np.take_along_axis(a, order, axis=1))
        for a, fill in ((means, 0.0), (sds, 1.0), (ws, 0.0)))
    box = dict(box, box_sd=np.sqrt(s2)) if box else {}
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
