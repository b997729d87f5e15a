"""Reference quadrature for distances between increment densities.

Every bound in :mod:`lecamjd.distances` is checked against direct numerical
integration of the densities involved.  Integrals are split into panels at
all structural points of both densities (support endpoints, component
peaks, spline knots, ball edges) so the adaptive integrator never straddles a
kink.  The panels go to the package's adaptive Gauss-Kronrod integrator
(QUADPACK's G10/K21 rule and error estimate) in one batch, and each panel
must converge on its own to ``max(1e-12, 1e-10 * |value|)`` or the
computation raises instead of returning a silently wrong number.

That tolerance holds for the rule's error estimate, not always for the
error.  Where p - q changes sign inside a TV or L1 panel, |p - q| has a
kink that no breakpoint marks, and the estimate can accept the panel far
past the tolerance: 45 to 1,000 times past it on criterion-6 rows, such
as the continuous spec's n = 8 filter-step row 3, which is 4.8e-9 off an
independent fine-panel rule.  ROADMAP items 19 and 22 record the
witnesses and the mend, a TV from closed-form CDF differences between
the sign changes.

A batch may hold many pairs of densities, and a pair of tables with a row
per interval stands for one comparison per row: ``tv_quadrature_many``
puts the panels of every row of every pair into one integrator call, and
each bisection round evaluates all rows of a side in one call of their
concatenated table.  Panels converge on their own, and every sum on the
way (Kronrod nodes, mixture components, a row's panels) runs in a fixed
order, so a pair's value is the same bits in any batch.  For TV and L1
only, a row whose two sides hold the same data (size, components and
per-row fields, each factor of its evaluation finite) is 0.0 without
quadrature: |p - q| is 0 at every point.  The one-pair distances and
``total_mass`` are batches of one and take one-law densities only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ._quadrature import integrate
from .laws import Density, MixtureTable

__all__ = [
    "l1_quadrature",
    "tv_quadrature",
    "tv_quadrature_many",
    "hellinger_quadrature",
    "total_mass",
]


def _merged_points(*sides) -> np.ndarray:
    """Per row, the sorted panel edges of densities compared row by row.

    ``sides`` are ``(lo, hi, points)`` structures as
    :meth:`MixtureTable.structure` gives them.  Edges are the union
    support's ends, every support end, and every breakpoint inside the
    union; an edge within ``1e-13`` of the span of the last kept one is
    merged into it, and the last kept edge is the union's upper end.  Rows
    are NaN-padded.
    """
    lo = np.minimum.reduce([s[0] for s in sides])
    hi = np.maximum.reduce([s[1] for s in sides])
    inner = np.concatenate([s[2] for s in sides], axis=1)
    inner = np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner,
                     np.nan)
    ends = [lo, hi] + [e for s in sides for e in s[:2]]
    pts = np.sort(np.concatenate((np.stack(ends, axis=1), inner), axis=1),
                  axis=1)
    tol = 1e-13 * np.maximum(hi - lo, 1.0)
    keep = np.zeros(pts.shape, dtype=bool)
    keep[:, 0] = True
    last = pts[:, 0]
    for j in range(1, pts.shape[1]):
        keep[:, j] = pts[:, j] - last > tol
        last = np.where(keep[:, j], pts[:, j], last)
    top = pts.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    pts[np.arange(pts.shape[0]), top] = hi
    return np.sort(np.where(keep, pts, np.nan), axis=1)


def integrate_rows(fn, *sides) -> np.ndarray:
    """Per row, the integral of ``fn(x, rows)`` over the panels between the
    merged edges of ``sides`` (see :func:`_merged_points`).

    The panels of all rows share one integrate call, and each row's panel
    values are summed in order, so a row's integral does not depend on the
    other rows.
    """
    points = _merged_points(*sides)
    ok = ~np.isnan(points[:, 1:])
    row = np.nonzero(ok)[0]
    cont = integrate(lambda x, panel: fn(x, row[panel]), points[:, :-1][ok],
                     points[:, 1:][ok], what="oracle panel", by_panel=True)
    return np.bincount(row, cont, points.shape[0])


def _one_law(d: Density) -> Density:
    if d.rows != 1:
        raise ValueError(f"a density of {d.rows} rows holds {d.rows} laws; "
                         "compare them row by row with tv_quadrature_many")
    return d


def _same_rows(p: MixtureTable, q: MixtureTable) -> np.ndarray:
    """Rows whose two sides hold the same size, components and per-row
    fields, where every factor the evaluator forms from them is finite
    (``beta`` aside, whose inf means no restriction)."""
    size = p.size == q.size
    if not size.any():
        return size
    # past an equal size both sides hold padding (0, 1, 0)
    w = min(p.means.shape[1], q.means.shape[1])
    top = np.divide(1.0, p.resample_sd, out=np.zeros(p.rows),
                    where=p.resample_sd > 0.0)
    rows = [size] + [getattr(p, f) == getattr(q, f) for f in (
        "beta", "fold", "mass", "resample_sd", "box_sd")] + [
            np.isfinite(a) for a in (p.mass, top, p.box_sd)]
    # the Irwin-Hall columns both sides hold, and none past them
    k = min(p.box_weight.shape[1], q.box_weight.shape[1])
    for f in ("box_weight", "box_lo", "box_hi"):
        a = getattr(p, f)[:, :k]
        rows.append(np.all((a == getattr(q, f)[:, :k]) & np.isfinite(a),
                           axis=1))
    rows += [~t.box_weight[:, k:].any(axis=1) for t in (p, q)]
    cols = [getattr(p, f)[:, :w] == getattr(q, f)[:, :w]
            for f in ("means", "sds", "weights")]
    cols.append(np.isfinite(p._scaled[:, :w]))
    return np.all(rows, axis=0) & np.all(cols, axis=(0, 2))


def _pointwise_sums(g, pairs: Iterable[tuple[Density, Density]]
                    ) -> np.ndarray:
    """Per row of each pair ``(p, q)``: the integral of ``g(p, q)``.  All
    rows' panels share one integrate call; for the L1 integrand, rows whose
    sides hold the same data (:func:`_same_rows`) get 0.0 without one."""
    pairs = list(pairs)
    if not pairs:
        return np.empty(0)
    if any(p.rows != q.rows for p, q in pairs):
        raise ValueError("paired densities must have the same rows")
    p, q = (MixtureTable.concat(d.table for d in side)
            for side in zip(*pairs))
    same = (_same_rows(p, q) if g is _l1_integrand
            else np.zeros(p.rows, dtype=bool))
    # |p - q| is 0 at every point of a row whose sides hold the same data
    out, todo = np.zeros(p.rows), np.flatnonzero(~same)
    if todo.size:
        out[todo] = integrate_rows(
            lambda x, r: g(p.values(x, todo[r]), q.values(x, todo[r])),
            *([a[todo] for a in t.structure()] for t in (p, q)))
    return out


def _one_pair(g, p: Density, q: Density) -> float:
    return float(_pointwise_sums(g, [(_one_law(p), _one_law(q))])[0])


def _l1_integrand(u, v):
    return np.abs(u - v)


def l1_quadrature(p: Density, q: Density) -> float:
    """L1 distance of two one-law densities: the integral of |p - q|."""
    return _one_pair(_l1_integrand, p, q)


def tv_quadrature(p: Density, q: Density) -> float:
    """Total variation distance, half of the L1 distance."""
    return 0.5 * l1_quadrature(p, q)


def tv_quadrature_many(pairs: Iterable[tuple[Density, Density]]
                       ) -> np.ndarray:
    """Total variation distance of each pair ``(p, q)``, as one batch.

    A pair of tables with R rows gives R distances, row against row.
    Equal to ``tv_quadrature`` law by law, but the integrator refines the
    panels of all pairs together, one round for the whole batch.
    """
    return 0.5 * _pointwise_sums(_l1_integrand, pairs)


def hellinger_quadrature(p: Density, q: Density) -> float:
    """Hellinger distance: the L2 distance between root densities."""
    h2 = _one_pair(lambda u, v: (np.sqrt(np.maximum(u, 0.0))
                                 - np.sqrt(np.maximum(v, 0.0))) ** 2, p, q)
    return math.sqrt(max(h2, 0.0))


def total_mass(p: Density) -> float:
    """Mass of a one-law density; should be 1 up to truncation error."""
    return _one_pair(lambda u, v: u, p, p)
