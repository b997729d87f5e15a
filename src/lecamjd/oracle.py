"""Reference quadrature for distances between increment densities.

Every bound in :mod:`lecamjd.distances` is checked against direct numerical
integration of the densities involved.  Integrals are split into panels at
all structural points of both densities (support endpoints, breakpoints,
atom locations) so the adaptive integrator never straddles a kink.  All
panels of one distance go to the package's adaptive Gauss-Kronrod
integrator (QUADPACK's G10/K21 rule and error estimate) in one batch, and
each panel must converge on its own to ``max(1e-12, 1e-10 * |value|)`` or
the computation raises instead of returning a silently wrong number.
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrature import integrate
from .laws import Density

__all__ = [
    "l1_quadrature",
    "tv_quadrature",
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


def _pointwise_sum(g, p: Density, q: Density) -> float:
    """Integral of ``g(p, q)`` over the densities plus its sum over atoms."""
    points = _panel_points(p, q)
    cont = integrate(lambda x: g(p.pdf(x), q.pdf(x)), points[:-1],
                     points[1:], what="oracle panel")
    ap, aq = _atom_map(p), _atom_map(q)
    locs = set(ap) | set(aq)
    atoms = g(np.array([ap.get(loc, 0.0) for loc in locs]),
              np.array([aq.get(loc, 0.0) for loc in locs]))
    return float(np.sum(cont)) + float(np.sum(atoms))


def l1_quadrature(p: Density, q: Density) -> float:
    """L1 distance: integral of |p - q| plus atom mass differences."""
    return _pointwise_sum(lambda u, v: np.abs(u - v), p, q)


def tv_quadrature(p: Density, q: Density) -> float:
    """Total variation distance, half of the L1 distance."""
    return 0.5 * l1_quadrature(p, q)


def hellinger_quadrature(p: Density, q: Density) -> float:
    """Hellinger distance: the L2 distance between root densities."""
    h2 = _pointwise_sum(lambda u, v: (np.sqrt(np.maximum(u, 0.0))
                                      - np.sqrt(np.maximum(v, 0.0))) ** 2,
                        p, q)
    return math.sqrt(max(h2, 0.0))


def total_mass(p: Density) -> float:
    """Continuous mass plus atom mass; should be 1 up to truncation error."""
    points = _panel_points(p)
    cont = integrate(p.pdf, points[:-1], points[1:], what="oracle panel")
    return float(np.sum(cont)) + sum(mass for _, mass in p.atoms)
