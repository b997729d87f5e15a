"""Adaptive Gauss-Kronrod quadrature over batches of panels: QUADPACK's
G10/K21 rule and ``qk21`` error estimate (Piessens et al. 1983), refined
by bisection with one vectorized integrand call per round.

A panel may carry an integer label, say the table row it belongs to, and
the integrand then gets each node's label with the nodes.  Each round
gathers its live subpanels once, worst first per panel, and bisects them
in a fixed order, so a panel's subpanels and every sum over them are the
same in any batch: a panel's value is the same bits alone or among
others."""

from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "integrate"]


class QuadratureError(RuntimeError):
    """An adaptive integral failed to converge to its tolerance."""


# qk21 abscissae on [0, 1] (odd positions are the Gauss nodes), Kronrod
# weights and Gauss weights, to double precision; mirrored onto [-1, 1]
_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
      0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
      0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
      0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849, 0.1494455540029169)
_WG = (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0,
       0.21908636251598204, 0.0, 0.26926671930999635, 0.0,
       0.29552422471475287, 0.0)
_NODES = np.array([-x for x in _X[:-1]] + list(_X[::-1]))
_WEIGHTS = np.array([w[:-1] + w[::-1] for w in (_WK, _WG)]).T
#: the Kronrod column of the weights, contiguous
_KRONROD = np.ascontiguousarray(_WEIGHTS[:, 0])
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
#: default absolute tolerance, relative tolerance and subpanel budget of
#: every panel
EPSABS, EPSREL, LIMIT = 1e-12, 1e-10, 200


def _kronrod(fn, lo, hi, owner, fail):
    """Kronrod values and ``qk21`` error estimates of the subpanels."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(x.ravel(), owner), dtype=float).reshape(x.shape)
    if not np.isfinite(f).all():
        i = int(np.argmin(np.isfinite(f).all(axis=1)))
        fail(owner[i], "has a non-finite integrand value in "
                       f"[{lo[i]:.17g}, {hi[i]:.17g}]")
    # einsum without optimize sums each row node by node, in the same
    # order however many rows there are (a BLAS product may not)
    resk, resg = np.einsum("ij,jk->ki", f, _WEIGHTS, optimize=False)
    dh = np.abs(half)
    resasc = np.einsum("ij,j->i", np.abs(f - 0.5 * resk[:, None]),
                       _KRONROD, optimize=False) * dh
    scale = np.divide(200.0 * np.abs(resk - resg) * dh, resasc,
                      out=np.ones_like(resasc), where=resasc > 0.0)
    err = np.maximum(resasc * np.minimum(scale, 1.0) ** 1.5,
                     50.0 * _EPS * np.einsum("ij,j->i", np.abs(f), _KRONROD,
                                             optimize=False) * dh)
    return resk * half, err


def integrate(fn, a, b, *, epsabs: float = EPSABS, what: str = "integral",
              labels=None):
    """Integral of ``fn`` over each panel ``[a[j], b[j]]``.

    ``a`` and ``b`` broadcast to the panel shape, and the result has that
    shape (a float for scalar ends).  Panels may overlap or leave gaps; each
    converges on its own to ``max(epsabs, EPSREL * |value|)`` with at most
    ``LIMIT`` subpanels.  Each round calls ``fn`` once, on a flat array of
    the Kronrod nodes of all new subpanels, so it must map arrays to arrays
    of the same shape.  With ``labels``, one integer per panel (say the
    table row it belongs to), it is called as ``fn(x, label)``, ``label``
    holding the label of each node's panel, so one call can integrate a
    different function on each panel.  Raises :class:`QuadratureError`,
    naming ``what`` and the panel, when a panel cannot converge within
    ``LIMIT``, when a subpanel gets too narrow to bisect, or when the
    integrand is not finite at a node.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    n = a.size
    values, count = np.zeros(n), np.ones(n, dtype=np.intp)
    if labels is not None:
        labels = np.broadcast_to(labels, shape).ravel()

    def call(x, owner):
        return fn(x) if labels is None else fn(
            x, np.repeat(labels[owner], _NODES.size))

    def fail(j, why):
        raise QuadratureError(f"{what} over [{a[j]:g}, {b[j]:g}] {why}")

    # live subpanels: ends, owning panel, Kronrod value, error estimate
    lo, hi, owner = a, b, np.arange(n)
    res, err = _kronrod(call, lo, hi, owner, fail) if n else (a, b)
    while True:
        total = np.bincount(owner, res, n)
        tol = np.maximum(epsabs, EPSREL * np.abs(total))
        done = np.bincount(owner, err, n) <= tol
        np.add(values, total, out=values, where=done)  # done panels retire
        live = (~done[owner]).nonzero()[0]
        if not live.size:
            return values.reshape(shape) if shape else float(values[0])
        # per panel, worst first as in QUADPACK: bisect each subpanel whose
        # error, with all smaller ones, still exceeds the tolerance; ``live``
        # indexes the live subpanels in that order, so each array is
        # gathered from it once
        owner = owner[live]
        ratio = err[live] / tol[owner]
        order = np.lexsort((-ratio, owner))
        live, owner, ratio = live[order], owner[order], ratio[order]
        cum = ratio.cumsum()
        rest = cum[owner.searchsorted(owner, side="right") - 1] - cum
        first = owner.searchsorted(owner) == np.arange(owner.size)
        split = first | (rest + ratio > 1.0)
        # no fewer subpanels than those picked can bring the panel within
        # its tolerance, so a panel they take past the limit never gets there
        count += np.bincount(owner[split], minlength=n)
        if count.max() > LIMIT:
            j = int(np.argmax(count > LIMIT))
            fail(j, f"cannot converge within {LIMIT} subpanels (error "
                    f"estimate {np.sum(err[live][owner == j]):.3g} > "
                    f"tolerance {tol[j]:.3g})")
        keep, cut = live[~split], live[split]
        s_lo, s_hi, s_owner = lo[cut], hi[cut], owner[split]
        mid = 0.5 * (s_lo + s_hi)
        narrow = np.maximum(np.abs(s_lo), np.abs(s_hi)) <= (
            (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY))
        if narrow.any():
            i = int(np.argmax(narrow))
            fail(s_owner[i], f"needs to bisect [{s_lo[i]:.17g}, "
                             f"{s_hi[i]:.17g}], too narrow for roundoff")
        lo = np.concatenate((lo[keep], s_lo, mid))
        hi = np.concatenate((hi[keep], mid, s_hi))
        new_owner = np.concatenate((s_owner, s_owner))
        owner = np.concatenate((owner[~split], new_owner))
        new_res, new_err = _kronrod(call, lo[keep.size:], hi[keep.size:],
                                    new_owner, fail)
        res = np.concatenate((res[keep], new_res))
        err = np.concatenate((err[keep], new_err))
