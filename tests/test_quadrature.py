"""The batched Gauss-Kronrod integrator against QUADPACK, its failure
modes, and the import path it keeps free of scipy.

QUADPACK's ``quad`` (``scipy.integrate``) is the independent reference
the package's own integrator is checked against, panel by panel;
``test_model`` checks antiderivatives and jump-law masses against it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

import lecamjd as lj
from lecamjd._quadrature import EPSREL, LIMIT, QuadratureError, integrate


def quad_panels(fn, a, b):
    """QUADPACK value of each panel, through scalar calls of ``fn``."""
    return np.array([
        scipy_integrate.quad(lambda x: float(fn(np.array([x]))[0]), lo, hi,
                             epsabs=1e-12, epsrel=EPSREL, limit=LIMIT)[0]
        for lo, hi in zip(a, b)])


def assert_matches_quad(fn, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    got = integrate(fn, a, b)
    assert got.shape == a.shape
    np.testing.assert_allclose(got, quad_panels(fn, a, b),
                               rtol=0.0, atol=1e-12)


def oracle_panels(*densities):
    """Panels between the support ends and breakpoints of one-law
    densities, inside their union support."""
    ends = [np.concatenate(d.structure(), axis=None) for d in densities]
    lo = min(d.structure()[0][0] for d in densities)
    hi = max(d.structure()[1][0] for d in densities)
    points = np.concatenate(ends)
    points = np.unique(points[(points >= lo) & (points <= hi)])
    return points[:-1], points[1:]


class TestAgainstQuadpack:
    def test_smooth_gaussian(self):
        d = lj.gaussian_density(0.4, 0.7)
        assert_matches_quad(d.pdf, *oracle_panels(d))
        assert_matches_quad(d.pdf, [-12.0], [12.0])

    def test_absolute_difference_with_interior_kinks(self):
        # |p - q| crosses zero twice inside the single panel
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(0.7, 4.0)
        fn = lambda x: np.abs(p.pdf(x) - q.pdf(x))  # noqa: E731
        assert_matches_quad(fn, [-25.0], [25.0])
        assert_matches_quad(fn, *oracle_panels(p, q))

    def test_narrow_bump(self):
        p = lj.Density(lj.MixtureTable([0.0, 3.0], [1.0, 0.001], [0.5, 0.5]))
        q = lj.gaussian_density(0.0, 1.0)
        fn = lambda x: np.abs(p.pdf(x) - q.pdf(x))  # noqa: E731
        assert_matches_quad(fn, *oracle_panels(p, q))
        assert_matches_quad(p.pdf, *oracle_panels(p))

    def test_uniform_jump_edges(self):
        law = lj.uniform_jumps(-1.0, 1.0)
        s = lj.IncrementSummaries(m=0.1, sigma2=1e-4, lam=0.2)
        d = lj.bernoulli_density(s, law)
        assert_matches_quad(d.pdf, *oracle_panels(d))
        # the jump law's density, a step at each end of its support
        assert_matches_quad(lambda y: np.where(np.abs(y) <= 1.0, 0.5, 0.0),
                            [-2.0, -1.0, 1.0], [-1.0, 1.0, 2.0])

    def test_non_contiguous_and_nested_panels(self):
        # one density over nested windows [lo, x] of a Gaussian jump law's
        # support; panels may also leave gaps
        lo, hi = lj.gaussian_jumps(7.5, 0.5).support
        assert_matches_quad(
            lambda y: np.exp(-2.0 * (y - 7.5) ** 2) / (0.5 * math.sqrt(
                2.0 * math.pi)), [lo, lo, lo, 5.0, 9.0],
            [6.0, 7.5, 9.25, 6.5, hi])

    def test_shapes(self):
        got = integrate(lambda x: 2.0 * x, np.zeros((2, 3)), 1.0)
        np.testing.assert_allclose(got, np.ones((2, 3)), atol=1e-15)
        assert integrate(np.cos, 0.0, 0.5 * math.pi) == pytest.approx(1.0)
        assert integrate(np.cos, [], []).shape == (0,)


    def test_by_panel_gives_each_panel_its_own_integrand(self):
        # four abutting panels, four functions; the peaked third one needs
        # several rounds, and every node arrives tagged with its panel's
        # label (here the panel's own index)
        fns = [np.ones_like, lambda x: x,
               lambda x: 1.0 / (1e-4 + (x - 2.5) ** 2), np.exp]
        a, b = np.arange(4.0), np.arange(1.0, 5.0)
        tags = []

        def fn(x, panel):
            assert panel.shape == x.shape
            assert np.all((a[panel] <= x) & (x <= b[panel]))
            tags.append(np.unique(panel))
            return np.choose(panel, [f(x) for f in fns])

        got = integrate(fn, a, b, labels=np.arange(4))
        alone = [integrate(f, lo, hi) for f, lo, hi in zip(fns, a, b)]
        np.testing.assert_array_equal(got, alone)
        np.testing.assert_allclose(
            got, [1.0, 1.5, 200.0 * math.atan(50.0), math.e ** 4 - math.e ** 3],
            rtol=1e-10)
        assert len(tags) > 2 and all(t.tolist() == [2] for t in tags[1:])


class TestFailures:
    def test_exhausted_limit_names_the_panel(self):
        # 400 kinks need more than LIMIT = 200 subpanels
        with pytest.raises(QuadratureError,
                           match=r"test integral over \[0, 1\] cannot "
                                 r"converge within 200 subpanels"):
            integrate(lambda x: np.abs(np.sin(400 * np.pi * x)), 0.0, 1.0,
                      what="test integral")

    def test_roundoff_width_panel(self):
        step = lambda x: np.where(x < 1.0 + 2e-15, 0.0, 1e20)  # noqa: E731
        with pytest.raises(QuadratureError, match="too narrow"):
            integrate(step, 1.0, 1.0 + 8e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, bad):
        fn = lambda x: np.where(x > 2.5, bad, 1.0)  # noqa: E731
        with pytest.raises(QuadratureError,
                           match=r"over \[2, 3\] has a non-finite "
                                 r"integrand value"):
            integrate(fn, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])

    def test_scalar_only_integrand_fails_loudly(self):
        # the rule takes whole node arrays: a scalar-only integrand's
        # comparison of an array has no truth value
        with pytest.raises(ValueError, match="truth value"):
            integrate(lambda y: 1.0 if 0 <= y <= 1 else 0.0, 0.0, 1.0)


@given(mu1=st.floats(-3.0, 3.0), mu2=st.floats(-3.0, 3.0),
       sd=st.floats(0.05, 3.0))
@settings(max_examples=40, deadline=None)
def test_tv_of_equal_variance_gaussians_matches_closed_form(mu1, mu2, sd):
    (tv,) = lj.tv_quadrature(lj.gaussian_density(mu1, sd * sd),
                             lj.gaussian_density(mu2, sd * sd))
    assert abs(tv - 0.5 * lj.l1_gaussians_same_var(mu1, mu2, sd)) < 1e-10


@given(panels=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.01, 4.0)),
                       max_size=8),
       kink=st.floats(-4.0, 4.0), at=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_batch_panels_equal_lone_panels_bitwise(panels, kink, at):
    # every panel of a batch is the same bits as the panel alone; [3, 4]
    # under exp once came out 1 ulp apart through a BLAS product
    panels.insert(min(at, len(panels)), (3.0, 1.0))
    a = np.array([lo for lo, _ in panels])
    b = a + np.array([width for _, width in panels])
    fn = lambda x: np.exp(x) + np.abs(x - kink)  # noqa: E731
    alone = [integrate(fn, lo, hi) for lo, hi in zip(a, b)]
    assert integrate(fn, a, b).tolist() == alone


#: the qk21 rule, written out again for the reference loop below
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849, 0.1494455540029169)
_WG = (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0,
       0.21908636251598204, 0.0, 0.26926671930999635, 0.0,
       0.29552422471475287, 0.0)
_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
      0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
      0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
      0.14887433898163122, 0.0)
_NODES = np.array([-x for x in _X[:-1]] + list(_X[::-1]))
_WEIGHTS = np.array([w[:-1] + w[::-1] for w in (_WK, _WG)]).T


def _reference_kronrod(fn, lo, hi, owner, fail):
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(x.ravel(), owner), dtype=float).reshape(x.shape)
    finite = np.isfinite(f).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        fail(owner[i], "has a non-finite integrand value in "
                       f"[{lo[i]:.17g}, {hi[i]:.17g}]")
    resk, resg = np.einsum("ij,jk->ki", f, _WEIGHTS, optimize=False)
    dh = np.abs(half)
    wk = _WEIGHTS[:, 0]
    resasc = np.einsum("ij,j->i", np.abs(f - 0.5 * resk[:, None]), wk,
                       optimize=False) * dh
    scale = np.divide(200.0 * np.abs(resk - resg) * dh, resasc,
                      out=np.ones_like(resasc), where=resasc > 0.0)
    err = np.maximum(resasc * np.minimum(scale, 1.0) ** 1.5,
                     50.0 * _EPS * np.einsum("ij,j->i", np.abs(f), wk,
                                             optimize=False) * dh)
    return resk * half, err


def reference_integrate(fn, a, b, labels, epsabs, what="integral"):
    """The adaptive rule as a plain loop: each round masks the live
    subpanels out, sorts them (stably) worst first per panel, and hands
    the integrand each node's label through a lambda."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.size
    values, count = np.zeros(n), np.ones(n, dtype=np.intp)

    def call(x, owner):
        return fn(x, labels[np.repeat(owner, _NODES.size)])

    def fail(j, why):
        raise QuadratureError(f"{what} over [{a[j]:g}, {b[j]:g}] {why}")

    lo, hi, owner = a, b, np.arange(n)
    res, err = _reference_kronrod(call, lo, hi, owner, fail) if n else (a, b)
    while True:
        total = np.bincount(owner, res, n)
        tol = np.maximum(epsabs, EPSREL * np.abs(total))
        done = np.bincount(owner, err, n) <= tol
        values += np.where(done, total, 0.0)
        live = ~done[owner]
        if not live.any():
            return values
        ratio = err[live] / tol[owner[live]]
        order = np.lexsort((-ratio, owner[live]))
        lo, hi, owner, res, err, ratio = (v[order] for v in (
            lo[live], hi[live], owner[live], res[live], err[live], ratio))
        cum = np.cumsum(ratio)
        rest = cum[np.searchsorted(owner, owner, side="right") - 1] - cum
        first = np.searchsorted(owner, owner) == np.arange(owner.size)
        split = first | (rest + ratio > 1.0)
        count += np.bincount(owner[split], minlength=n)
        if np.any(count > LIMIT):
            j = int(np.argmax(count > LIMIT))
            fail(j, f"cannot converge within {LIMIT} subpanels (error "
                    f"estimate {np.sum(err[owner == j]):.3g} > tolerance "
                    f"{tol[j]:.3g})")
        s_lo, s_hi, s_owner = lo[split], hi[split], owner[split]
        mid = 0.5 * (s_lo + s_hi)
        narrow = np.maximum(np.abs(s_lo), np.abs(s_hi)) <= (
            (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY))
        if narrow.any():
            i = int(np.argmax(narrow))
            fail(s_owner[i], f"needs to bisect [{s_lo[i]:.17g}, "
                             f"{s_hi[i]:.17g}], too narrow for roundoff")
        keep = ~split
        lo = np.concatenate((lo[keep], s_lo, mid))
        hi = np.concatenate((hi[keep], mid, s_hi))
        owner = np.concatenate((owner[keep], s_owner, s_owner))
        new = slice(np.count_nonzero(keep), None)
        new_res, new_err = _reference_kronrod(call, lo[new], hi[new],
                                              owner[new], fail)
        res = np.concatenate((res[keep], new_res))
        err = np.concatenate((err[keep], new_err))


#: integrands by kind, each about its own center c: smooth, kinked, a
#: narrow bump, one that needs more than LIMIT subpanels over a unit
#: width, and a step no bisection resolves before roundoff
KINDS = (lambda x, c: np.exp(0.5 * c * x) + np.cos(3.0 * x),
         lambda x, c: np.abs(x - c),
         lambda x, c: 1e-3 / (1e-6 + (x - c) ** 2),
         lambda x, c: np.abs(np.sin(400.0 * np.pi * (x - c))),
         lambda x, c: np.where(x < c, 0.0, 1e20))


def _outcome(run):
    """The bytes of ``run()``, or its QuadratureError message."""
    try:
        return run().tobytes()
    except QuadratureError as exc:
        return str(exc)


@given(laws=st.lists(st.tuples(st.sampled_from([0, 0, 1, 1, 2, 2, 3, 4]),
                               st.floats(-4.0, 4.0)),
                     min_size=1, max_size=5),
       panels=st.lists(st.tuples(st.integers(0, 4), st.floats(-4.0, 4.0),
                                 st.floats(1e-3, 4.0),
                                 st.sampled_from(["free", "centered",
                                                  "tiny"])),
                       max_size=10),
       epsabs=st.sampled_from([1e-12, 1e-9, 0.0]))
@settings(max_examples=150, deadline=None)
def test_rounds_keep_the_bits_of_a_plain_loop(laws, panels, epsabs):
    # labelled panels, as the oracle gives them, reach the same subpanels
    # in the same order as the plain loop: the same bits, and on a failure
    # the same message.  A panel centered on its label's center makes
    # mirror-image subpanels whose errors tie, and a tiny one there makes
    # a step fail for roundoff
    label = np.array([k % len(laws) for k, *_ in panels], dtype=np.intp)
    c = np.array([laws[k][1] for k in label])
    lo, width, where = (np.array(v) for v in list(zip(*panels))[1:] or
                        ([], [], []))
    a = np.select([where == "centered", where == "tiny"],
                  [c - width, c - 2e-15], lo)
    b = np.select([where == "centered", where == "tiny"],
                  [c + width, a + 8e-15], lo + width)

    def fn(x, rows):
        out = np.empty_like(x)
        for r, (kind, center) in enumerate(laws):
            at = rows == r
            out[at] = KINDS[kind](x[at], center)
        return out

    assert _outcome(lambda: integrate(fn, a, b, epsabs=epsabs,
                                      labels=label)) == _outcome(
        lambda: reference_integrate(fn, a, b, label, epsabs))


def test_package_import_leaves_scipy_integrate_unloaded(run_python):
    # numpy is the only runtime dependency: no scipy module at all, with
    # every library layer (the star import resolves each lazy export)
    # and the command line loaded
    proc = run_python("-c", "import sys, lecamjd.cli; "
                      "from lecamjd import *; "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy')); "
                      "print(' '.join(sorted(m for m in sys.modules "
                      "if m.startswith('lecamjd.'))))")
    assert proc.returncode == 0, proc.stderr
    scipy, loaded = proc.stdout.splitlines()
    assert scipy == "[]"
    assert {f"lecamjd.{name}" for name in (
        "cli", "distances", "experiments", "kernels", "laws", "model",
        "oracle", "simulate")} <= set(loaded.split())
