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

Panel edges are the distinct breakpoints of both densities, however
close, so every component's mean and 6-sd shoulders in the support bound
panels of their own.  A spike is still beyond reach where the floats near
its mean are too coarse to resolve it: ``x - m`` at the nodes rounds to
the spacing of ``m``, and the Gauss and Kronrod nodes share that
rounding, so the error estimate cannot see it.  A row whose components
narrower than ``2**20`` float spacings at their means hold more than the
absolute tolerance 1e-12 of weight raises
:class:`~lecamjd.QuadratureError`, naming the row, the weight and the
sd, rather than return a number no panel can vouch for.  Past the
refusal the rounding still shows: a lone spike of 2**20 to 2**22
spacings can read up to 2e-7 off its mass, and the stated
``1e-10 * |value|`` holds only from about 2**32 spacings (ROADMAP item
15).

Every distance takes two densities with the same rows, say one per
interval of a grid, and gives one value per row, row against row; a
one-law density is a table of one row and gives an array of one.  Every
distance and ``total_mass`` take one panel path, :func:`integrate_rows`:
all rows' panels go to one integrator call, each labelled with its row,
and each bisection round evaluates each table once.  Panels converge
on their own, and every sum on the way (Kronrod nodes, mixture
components, a row's panels) runs in a fixed order, so a row's value is
the same bits alone, in any grid and at any place in it.  A row whose
two sides hold the same data (entries and per-row fields, each factor of
its evaluation finite) is 0.0 without quadrature, for TV and Hellinger
alike: both integrands are 0 at every point.  The L1 distance is twice
the TV.
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


#: a component narrower than this many float spacings at its mean is
#: refused (see :func:`_refuse_narrow`)
_SPACINGS = 2.0 ** 20


def _merged_points(*sides) -> np.ndarray:
    """Per row, the sorted panel edges of densities compared row by row.

    ``sides`` are ``(lo, hi, points)`` structures as
    :meth:`MixtureTable.structure` gives them.  Edges are the union
    support's ends, every support end, and every breakpoint inside the
    union, each value once.  Rows are NaN-padded.
    """
    lo = np.minimum.reduce([s[0] for s in sides])
    hi = np.maximum.reduce([s[1] for s in sides])
    inner = np.concatenate([s[2] for s in sides], axis=1)
    inner = np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner,
                     np.nan)
    ends = [lo, hi] + [e for s in sides for e in s[:2]]
    pts = np.sort(np.concatenate((np.stack(ends, axis=1), inner), axis=1),
                  axis=1)
    keep = np.concatenate((np.ones((pts.shape[0], 1), dtype=bool),
                           np.diff(pts, axis=1) > 0.0), axis=1)
    return np.sort(np.where(keep, pts, np.nan), axis=1)


def integrate_rows(fn, *sides) -> np.ndarray:
    """Per row, the integral of ``fn(x, rows)`` over the panels between the
    edges of ``sides`` (see :func:`_merged_points`).

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
    """Rows whose two sides hold the same entries and per-row fields,
    where every factor the evaluator forms from them is finite (``beta``
    aside, whose inf means no restriction); past the narrower side's
    width, neither side may hold an entry of positive weight."""
    w = min(p.means.shape[1], q.means.shape[1])
    top = np.divide(1.0, p.resample_sd, out=np.zeros(p.rows),
                    where=p.resample_sd > 0.0)
    rows = [getattr(p, f) == getattr(q, f) for f in (
        "beta", "mass", "resample_sd", "box_sd")] + [
            np.isfinite(a) for a in (p.mass, top, p.box_sd)]
    # the Irwin-Hall columns both sides hold, and none past them
    k = min(p.box_weight.shape[1], q.box_weight.shape[1])
    for f in ("box_weight", "box_lo", "box_hi"):
        a = getattr(p, f)[:, :k]
        rows.append(np.all((a == getattr(q, f)[:, :k]) & np.isfinite(a),
                           axis=1))
    rows += [~t.box_weight[:, k:].any(axis=1) for t in (p, q)]
    # the entries both sides hold, and none of positive weight past them
    rows += [~t.weights[:, w:].any(axis=1) for t in (p, q)]
    cols = [getattr(p, f)[:, :w] == getattr(q, f)[:, :w]
            for f in ("means", "sds", "weights")]
    cols.append(np.isfinite(p._scaled[:, :w]))
    return np.all(rows, axis=0) & np.all(cols, axis=(0, 2))


def _refuse_narrow(tables, rows) -> None:
    """Raise :class:`QuadratureError` for a row (of ``rows``) whose
    components narrower than ``_SPACINGS`` float spacings at their means
    hold more weight than the absolute tolerance: the nodes' offsets from
    such a mean round too coarsely for any panel to resolve its spike."""
    for t in tables:
        # the spacing grows with |mean|: the smallest sd against the
        # coarsest spacing clears every row at once
        if t.sds.min() >= _SPACINGS * np.spacing(np.abs(t.means).max()):
            continue
        sds = t.sds[rows]
        narrow = sds < _SPACINGS * np.spacing(np.abs(t.means[rows]))
        weight = np.where(narrow, t.weights[rows], 0.0).sum(axis=1)
        if (weight > EPSABS).any():
            i = int(np.argmax(weight > EPSABS))
            raise QuadratureError(
                f"oracle row {rows[i]} has components of weight "
                f"{weight[i]:.3g} (sd down to {sds[i][narrow[i]].min():.3g})"
                " narrower than 2**20 float spacings at their means: no "
                "quadrature node can resolve them")


def _per_row(g, *densities: Density) -> np.ndarray:
    """Per row of densities with the same rows: the integral of ``g`` of
    their values, each table evaluated once per node.  The rows go through
    :func:`integrate_rows`; of two densities, rows whose sides hold the
    same data (:func:`_same_rows`) get 0.0 without it, as ``g`` is then
    0.  A row with components too narrow for the floats at their means
    raises :class:`QuadratureError` (see :func:`_refuse_narrow`)."""
    if len({d.rows for d in densities}) > 1:
        raise ValueError("paired densities must have the same rows")
    tables = [d.table for d in densities]
    out = np.zeros(tables[0].rows)
    # a paired integrand is 0 at every point of a row whose sides hold
    # the same data
    todo = np.flatnonzero(~_same_rows(*tables) if len(tables) == 2
                          else np.ones(out.size, dtype=bool))
    if todo.size:
        _refuse_narrow(tables, todo)

        def fn(x, r):
            rows = todo[r]
            return g(*[t.values(x, rows) for t in tables])
        out[todo] = integrate_rows(
            fn, *[[a[todo] for a in t.structure()] for t in tables])
    return out


def tv_quadrature(p: Density, q: Density) -> np.ndarray:
    """Total variation distance per row, half the integral of |p - q|.

    ``p`` and ``q`` hold the same number of laws, and row ``r`` of the
    result compares row ``r`` of each; a one-law pair gives one value.
    The L1 distance is twice it.
    """
    return 0.5 * _per_row(lambda u, v: np.abs(u - v), p, q)


def hellinger_quadrature(p: Density, q: Density) -> np.ndarray:
    """Hellinger distance per row: the L2 distance between root
    densities."""
    return np.sqrt(_per_row(lambda u, v: (np.sqrt(np.maximum(u, 0.0))
                                          - np.sqrt(np.maximum(v, 0.0))) ** 2,
                            p, q))


def total_mass(p: Density) -> np.ndarray:
    """Mass of each row; 1 up to truncation error."""
    return _per_row(lambda u: u, p)
