"""Reference quadrature for distances between increment densities.

Every bound in :mod:`lecamjd.distances` is checked against direct numerical
integration of the densities involved.  Integrals are split into panels at
all structural points of both densities (support endpoints, component
peaks, box ends, ball edges) so the adaptive integrator never straddles a
kink.  The panels go to the package's adaptive Gauss-Kronrod integrator
(QUADPACK's G10/K21 rule and error estimate) in one batch, and each panel
must converge on its own to ``max(1e-12, 1e-10 * |value|)`` or the
computation raises instead of returning a silently wrong number.

A batch may hold many pairs of densities, and a pair of tables with a row
per interval stands for one comparison per row: ``tv_quadrature_many``
puts the panels of every row of every pair into one integrator call, and
each bisection round evaluates all rows of a side in one call of their
concatenated table.  Panels converge on their own, and every sum on the
way (Kronrod nodes, mixture components, a row's panels) runs in a fixed
order, so a pair's value is the same bits in any batch.  The one-pair
distances and ``total_mass`` are batches of one and take one-law
densities only.
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


def integrate_rows(fn, *sides, what: str = "oracle panel") -> np.ndarray:
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
                     points[:, 1:][ok], what=what, by_panel=True)
    return np.bincount(row, cont, points.shape[0])


def _one_law(d: Density) -> Density:
    if d.rows != 1:
        raise ValueError(f"a density of {d.rows} rows holds {d.rows} laws; "
                         "compare them row by row with tv_quadrature_many")
    return d


def _pointwise_sums(g, pairs: Iterable[tuple[Density, Density]]
                    ) -> np.ndarray:
    """Per row of each pair ``(p, q)``: the integral of ``g(p, q)``.  All
    rows' panels share one integrate call."""
    pairs = list(pairs)
    if not pairs:
        return np.empty(0)
    if any(p.rows != q.rows for p, q in pairs):
        raise ValueError("paired densities must have the same rows")
    p, q = (MixtureTable.concat(d.table for d in side)
            for side in zip(*pairs))
    return integrate_rows(
        lambda x, rows: g(p.values(x, rows), q.values(x, rows)),
        p.structure(), q.structure())


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
