"""Reference quadrature for distances between increment densities.

Every bound in :mod:`lecamjd.distances` is checked against direct numerical
integration of the densities involved.  Integrals are split into panels at
all structural points of both densities (support endpoints, breakpoints,
atom locations) so the adaptive integrator never straddles a kink.  The
panels go to the package's adaptive Gauss-Kronrod integrator (QUADPACK's
G10/K21 rule and error estimate) in one batch, and each panel must
converge on its own to ``max(1e-12, 1e-10 * |value|)`` or the computation
raises instead of returning a silently wrong number.

A batch may hold many pairs of densities, and a pair of mixture tables
with a row per interval stands for one comparison per row:
``tv_quadrature_many`` puts the panels of every row of every pair into one
integrator call.  Each bisection round evaluates all table rows of a side
in one broadcast through their stacked table; only densities without a
table (closed-form pieces, custom pdfs) are called pair by pair, each on
its own nodes in the order they would get alone.  Panels converge on
their own, so the rest of the batch can move a pair's value only by
rounding (BLAS may round a one-row product differently).  The one-pair
distances are batches of one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ._quadrature import integrate
from .laws import Density, MixtureTable, _stack_rows

__all__ = [
    "l1_quadrature",
    "tv_quadrature",
    "tv_quadrature_many",
    "hellinger_quadrature",
    "total_mass",
]


def _merged_points(*sides) -> np.ndarray:
    """Per row, the sorted panel edges of densities compared row by row.

    ``sides`` are ``(lo, hi, points)`` structures (see :func:`_edges`).
    Edges are the union support's ends, every support end, and every
    breakpoint or atom inside the union; an edge within ``1e-13`` of the
    span of the last kept one is merged into it, and the last kept edge
    is the union's upper end.  Rows are NaN-padded.
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


def _row_panels(points: np.ndarray):
    """Panels between consecutive edges of each NaN-padded sorted row:
    ends ``a`` and ``b`` and the row of each panel, row by row."""
    ok = ~np.isnan(points[:, 1:])
    return points[:, :-1][ok], points[:, 1:][ok], np.nonzero(ok)[0]


def _segment_sums(values: np.ndarray, rows: np.ndarray, n: int
                  ) -> np.ndarray:
    """``np.sum`` of the values of each row (``rows`` sorted), bit for bit:
    rows with the same count are summed as one 2-d array."""
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    out = np.zeros(n)
    for c in set(counts[counts > 0].tolist()):
        at = np.flatnonzero(counts == c)
        out[at] = values[starts[at, None] + np.arange(c)].sum(axis=1)
    return out


def _edges(d: Density):
    """Support ends, and breakpoints with atom locations, of ``d``."""
    lo, hi, pts = d.structure()
    if d.atoms:
        pts = np.concatenate((pts, [[loc for loc, _ in d.atoms]]), axis=1)
    return lo, hi, pts


def _panel_points(*densities: Density) -> np.ndarray:
    """Panel edges of one-law densities compared with each other."""
    pts = _merged_points(*map(_edges, densities))[0]
    return pts[~np.isnan(pts)]


def _stacked_edges(densities):
    """The edges of ``densities`` as one structure with a row per law."""
    lo, hi, pts = zip(*map(_edges, densities))
    return np.concatenate(lo), np.concatenate(hi), _stack_rows(pts, np.nan)


def _side(densities, starts):
    """Evaluator ``f(x, row)`` of one side of a batch.

    All table rows are evaluated in one call of their stacked table; the
    other densities (one law each) are called one by one, each on its
    nodes in the order the integrator made them.
    """
    total = starts[-1] + densities[-1].rows
    tabled = [k for k, d in enumerate(densities) if d.table is not None]
    table_row = np.full(total, -1)
    stacked = None
    if tabled:
        stacked = MixtureTable.concat(densities[k].table for k in tabled)
        at = np.concatenate([starts[k] + np.arange(densities[k].rows)
                             for k in tabled])
        table_row[at] = np.arange(at.size)
    owner = {starts[k]: d for k, d in enumerate(densities) if d.table is None}

    def evaluate(x, row):
        t_row = table_row[row]
        if not owner:
            return stacked.values(x, t_row)
        out = np.empty(x.size)
        in_table = t_row >= 0
        if stacked is not None:
            at = np.flatnonzero(in_table)
            out[at] = stacked.values(x[at], t_row[at])
        rest = np.flatnonzero(~in_table)
        if rest.size:
            rest = rest[np.argsort(row[rest], kind="stable")]
            cuts = np.flatnonzero(np.diff(row[rest])) + 1
            for part in np.split(rest, cuts):
                out[part] = owner[row[part[0]]].pdf(x[part])
        return out

    return evaluate


def _atom_map(d: Density) -> dict[float, float]:
    out: dict[float, float] = {}
    for loc, mass in d.atoms:
        out[loc] = out.get(loc, 0.0) + mass
    return out


def _pointwise_sums(g, pairs: Iterable[tuple[Density, Density]]
                    ) -> np.ndarray:
    """Per row of each pair ``(p, q)``: the integral of ``g(p, q)`` over
    the densities plus its sum over atoms.  All rows' panels share one
    integrate call."""
    pairs = list(pairs)
    if not pairs:
        return np.empty(0)
    if any(p.rows != q.rows for p, q in pairs):
        raise ValueError("paired densities must have the same rows")
    ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
    sizes = np.array([p.rows for p in ps])
    starts = np.cumsum(sizes) - sizes
    a, b, row_of_panel = _row_panels(_merged_points(
        _stacked_edges(ps), _stacked_edges(qs)))
    n = int(sizes.sum())
    p_at, q_at = _side(ps, starts), _side(qs, starts)

    def integrand(x, panel):
        row = row_of_panel[panel]
        return g(p_at(x, row), q_at(x, row))

    cont = integrate(integrand, a, b, what="oracle panel", by_panel=True)
    out = _segment_sums(cont, row_of_panel, n)
    for k, (p, q) in enumerate(pairs):
        if not (p.atoms or q.atoms):
            continue
        ap, aq = _atom_map(p), _atom_map(q)
        locs = set(ap) | set(aq)
        atoms = g(np.array([ap.get(loc, 0.0) for loc in locs]),
                  np.array([aq.get(loc, 0.0) for loc in locs]))
        out[starts[k]] += float(np.sum(atoms))
    return out


def _l1_integrand(u, v):
    return np.abs(u - v)


def l1_quadrature(p: Density, q: Density) -> float:
    """L1 distance: integral of |p - q| plus atom mass differences."""
    return float(_pointwise_sums(_l1_integrand, [(p, q)])[0])


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
    h2 = _pointwise_sums(lambda u, v: (np.sqrt(np.maximum(u, 0.0))
                                       - np.sqrt(np.maximum(v, 0.0))) ** 2,
                         [(p, q)])[0]
    return math.sqrt(max(h2, 0.0))


def total_mass(p: Density) -> float:
    """Continuous mass plus atom mass; should be 1 up to truncation error."""
    points = _panel_points(p)
    cont = integrate(p.pdf, points[:-1], points[1:], what="oracle panel")
    return float(np.sum(cont)) + sum(mass for _, mass in p.atoms)
