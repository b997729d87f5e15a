"""Reference quadrature for distances between increment densities.

Every bound in :mod:`lecamjd.distances` is checked against direct numerical
integration of the densities involved.  Integrals are split into panels at
all structural points of both densities (support endpoints, breakpoints,
atom locations) so the adaptive integrator never straddles a kink.  The
panels go to the package's adaptive Gauss-Kronrod integrator (QUADPACK's
G10/K21 rule and error estimate) in one batch, and each panel must
converge on its own to ``max(1e-12, 1e-10 * |value|)`` or the computation
raises instead of returning a silently wrong number.

A batch may hold many pairs of densities: ``tv_quadrature_many`` puts the
panels of every pair into one integrator call, so each bisection round
evaluates each live pair's densities once on that pair's own nodes and
does its bookkeeping once for the whole batch.  Panels converge on their
own, so the rest of the batch can move a pair's value only by rounding
(BLAS may round a one-row product differently).  The one-pair distances
are batches of one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ._quadrature import integrate
from .laws import Density

__all__ = [
    "l1_quadrature",
    "tv_quadrature",
    "tv_quadrature_many",
    "hellinger_quadrature",
    "total_mass",
]


def _panel_points(*densities: Density) -> np.ndarray:
    los = [d.support[0] for d in densities]
    his = [d.support[1] for d in densities]
    lo, hi = min(los), max(his)
    pts = {lo, hi}
    for d in densities:
        pts.update(d.support)
        pts.update(b for b in d.breakpoints if lo < b < hi)
        pts.update(a for a, _ in d.atoms if lo < a < hi)
    arr = np.array(sorted(pts))
    # merge panel edges that are numerically identical
    span = hi - lo
    keep = [arr[0]]
    for x in arr[1:]:
        if x - keep[-1] > 1e-13 * max(span, 1.0):
            keep.append(x)
    keep[-1] = hi
    return np.asarray(keep)


def _atom_map(d: Density) -> dict[float, float]:
    out: dict[float, float] = {}
    for loc, mass in d.atoms:
        out[loc] = out.get(loc, 0.0) + mass
    return out


def _pointwise_sums(g, pairs: Iterable[tuple[Density, Density]]
                    ) -> np.ndarray:
    """Per pair ``(p, q)``: the integral of ``g(p, q)`` over the densities
    plus its sum over atoms.  All pairs' panels share one integrate call."""
    pairs = list(pairs)
    if not pairs:
        return np.empty(0)
    points = [_panel_points(p, q) for p, q in pairs]
    sizes = [pts.size - 1 for pts in points]
    stops = np.cumsum(sizes)
    pair_of_panel = np.repeat(np.arange(len(pairs)), sizes)

    def integrand(x, panel):
        # each pair's densities see their own nodes in the order the
        # integrator made them, as in a batch of that pair alone
        pair = pair_of_panel[panel]
        order = np.argsort(pair, kind="stable")
        counts = np.bincount(pair, minlength=len(pairs))
        ends = np.cumsum(counts)
        xs, u, v = x[order], np.empty(x.size), np.empty(x.size)
        for k in np.flatnonzero(counts):
            part = slice(ends[k] - counts[k], ends[k])
            p, q = pairs[k]
            u[part], v[part] = p.pdf(xs[part]), q.pdf(xs[part])
        out = np.empty(x.size)
        out[order] = g(u, v)
        return out

    cont = integrate(integrand, np.concatenate([pts[:-1] for pts in points]),
                     np.concatenate([pts[1:] for pts in points]),
                     what="oracle panel", by_panel=True)
    out = np.empty(len(pairs))
    per_pair = np.split(cont, stops[:-1])
    for k, ((p, q), panels) in enumerate(zip(pairs, per_pair)):
        ap, aq = _atom_map(p), _atom_map(q)
        locs = set(ap) | set(aq)
        atoms = g(np.array([ap.get(loc, 0.0) for loc in locs]),
                  np.array([aq.get(loc, 0.0) for loc in locs]))
        out[k] = float(np.sum(panels)) + float(np.sum(atoms))
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

    Equal to ``tv_quadrature`` pair by pair, but the integrator refines
    the panels of all pairs together, one round for the whole batch.
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
