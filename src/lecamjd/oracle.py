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

Panel edges closer than ``1e-13`` of a row's span (or than ``1e-13``,
for spans under 1) merge into one, so a component whose 6-sd shoulders
fit within that tolerance gets no panel of its own and no Kronrod node
need sample its spike.  A row whose components that narrow hold more
than the absolute tolerance 1e-12 of weight raises
:class:`~lecamjd.QuadratureError`, naming the row and the sd, rather
than read their mass as 0.

Every distance takes two densities with the same rows, say one per
interval of a grid, and gives one value per row, row against row; a
one-law density is a table of one row and gives an array of one.  Every
distance and ``total_mass`` take one panel path, :func:`integrate_rows`:
all rows' panels go to one integrator call, each labelled with its row,
and each bisection round evaluates each table once.  Panels converge
on their own, and every sum on the way (Kronrod nodes, mixture
components, a row's panels) runs in a fixed order, so a row's value is
the same bits alone, in any grid and at any place in it.  For TV only, a
row whose two sides hold the same data (size, components and per-row
fields, each factor of its evaluation finite) is 0.0 without quadrature:
|p - q| is 0 at every point.  The L1 distance is twice the TV.
"""

from __future__ import annotations

import numpy as np

from ._quadrature import EPSABS, QuadratureError, integrate
from .laws import Density, MixtureTable

__all__ = [
    "tv_quadrature",
    "hellinger_quadrature",
    "total_mass",
]


#: panel edges closer than this fraction of a row's span (or than this,
#: for spans under 1) merge into one
_MERGE = 1e-13


def _span(sides):
    """Per row: the union support's ends and the edge-merge tolerance."""
    lo = np.minimum.reduce([s[0] for s in sides])
    hi = np.maximum.reduce([s[1] for s in sides])
    return lo, hi, _MERGE * np.maximum(hi - lo, 1.0)


def _merged_points(*sides) -> np.ndarray:
    """Per row, the sorted panel edges of densities compared row by row.

    ``sides`` are ``(lo, hi, points)`` structures as
    :meth:`MixtureTable.structure` gives them.  Edges are the union
    support's ends, every support end, and every breakpoint inside the
    union; an edge within ``_MERGE`` of the span of the last kept one is
    merged into it, and the last kept edge is the union's upper end.  Rows
    are NaN-padded.
    """
    lo, hi, tol = _span(sides)
    inner = np.concatenate([s[2] for s in sides], axis=1)
    inner = np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner,
                     np.nan)
    ends = [lo, hi] + [e for s in sides for e in s[:2]]
    pts = np.sort(np.concatenate((np.stack(ends, axis=1), inner), axis=1),
                  axis=1)
    tol = tol[:, None]
    gap = np.diff(pts, axis=1)
    keep = np.concatenate((np.ones((pts.shape[0], 1), dtype=bool),
                           gap > tol), axis=1)
    # where every gap between sorted edges is 0 or past tol, an edge stays
    # just when its gap is past tol (an equal edge leaves the last kept
    # value as it was), and the last kept edge is hi; only a gap in
    # (0, tol] chains merges, and only then do they run edge by edge
    if ((gap > 0.0) & (gap <= tol)).any():
        last = pts[:, 0]
        for j in range(1, pts.shape[1]):
            keep[:, j] = pts[:, j] - last > tol[:, 0]
            last = np.where(keep[:, j], pts[:, j], last)
        top = pts.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
        pts[np.arange(pts.shape[0]), top] = hi
    return np.sort(np.where(keep, pts, np.nan), axis=1)


def integrate_rows(fn, *sides) -> np.ndarray:
    """Per row, the integral of ``fn(x, rows)`` over the panels between the
    merged edges of ``sides`` (see :func:`_merged_points`).

    The panels of all rows share one integrate call, each labelled with
    its row, and each row's panel values are summed left to right, so a
    row's integral does not depend on the other rows.
    """
    points = _merged_points(*sides)
    ok = ~np.isnan(points[:, 1:])
    row = np.nonzero(ok)[0]
    return np.bincount(row, integrate(
        fn, points[:, :-1][ok], points[:, 1:][ok], what="oracle panel",
        labels=row), points.shape[0])


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
        "beta", "mass", "resample_sd", "box_sd")] + [
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


def _refuse_narrow(tables, rows, tol) -> None:
    """Raise :class:`QuadratureError` for a row (of ``rows``) whose
    components with 6-sd shoulders within its edge tolerance ``tol`` hold
    more weight than the absolute tolerance: their edges merge, so no
    Kronrod node would sample their spikes and the row would read 0."""
    for t in tables:
        # the smallest sd of the table, padding too, can clear every row
        if 6.0 * t.sds.min() > tol.max():
            continue
        sds = t.sds[rows]
        narrow = ((np.arange(sds.shape[1]) < t.size[rows, None])
                  & (6.0 * sds <= tol[:, None]))
        weight = np.where(narrow, t.weights[rows], 0.0).sum(axis=1)
        if (weight > EPSABS).any():
            i = int(np.argmax(weight > EPSABS))
            raise QuadratureError(
                f"oracle row {rows[i]} has components of weight "
                f"{weight[i]:.3g} (sd down to {sds[i][narrow[i]].min():.3g})"
                f" whose 6 sds fit in its panel-edge tolerance {tol[i]:.3g}:"
                " no quadrature node can resolve them")


def _per_row(g, *densities: Density) -> np.ndarray:
    """Per row of densities with the same rows: the integral of ``g`` of
    their values, each table evaluated once per node.  The rows go through
    :func:`integrate_rows`; for the L1 integrand, rows whose sides hold
    the same data (:func:`_same_rows`) get 0.0 without it.  A row with
    components too narrow for its panel edges raises
    :class:`QuadratureError` (see :func:`_refuse_narrow`)."""
    if len({d.rows for d in densities}) > 1:
        raise ValueError("paired densities must have the same rows")
    tables = [d.table for d in densities]
    out = np.zeros(tables[0].rows)
    # |p - q| is 0 at every point of a row whose sides hold the same data
    todo = np.flatnonzero(~_same_rows(*tables) if g is _l1_integrand
                          else np.ones(out.size, dtype=bool))
    if todo.size:
        sides = [[a[todo] for a in t.structure()] for t in tables]
        _refuse_narrow(tables, todo, _span(sides)[2])

        def fn(x, r):
            rows = todo[r]
            return g(*[t.values(x, rows) for t in tables])
        out[todo] = integrate_rows(fn, *sides)
    return out


def _l1_integrand(u, v):
    return np.abs(u - v)


def tv_quadrature(p: Density, q: Density) -> np.ndarray:
    """Total variation distance per row, half the integral of |p - q|.

    ``p`` and ``q`` hold the same number of laws, and row ``r`` of the
    result compares row ``r`` of each; a one-law pair gives one value.
    The L1 distance is twice it.
    """
    return 0.5 * _per_row(_l1_integrand, p, q)


def hellinger_quadrature(p: Density, q: Density) -> np.ndarray:
    """Hellinger distance per row: the L2 distance between root
    densities."""
    h2 = _per_row(lambda u, v: (np.sqrt(np.maximum(u, 0.0))
                                - np.sqrt(np.maximum(v, 0.0))) ** 2, p, q)
    return np.sqrt(np.maximum(h2, 0.0))


def total_mass(p: Density) -> np.ndarray:
    """Mass of each row; 1 up to truncation error."""
    return _per_row(lambda u: u, p)
