"""The batched Gauss-Kronrod integrator against QUADPACK, its failure
modes, and the import path it keeps free of scipy.

This is the one test module that imports ``scipy.integrate``: QUADPACK's
``quad`` is the independent reference the package's own integrator is
checked against, panel by panel.
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
        assert_matches_quad(law.density, [-2.0, -1.0, 1.0], [-1.0, 1.0, 2.0])

    def test_non_contiguous_and_nested_panels(self):
        # the jump-mass bound integrates one jump density over nested
        # windows [lo, 2 beta_i]; panels may also leave gaps
        law = lj.gaussian_jumps(7.5, 0.5)
        lo, hi = law.support
        assert_matches_quad(law.density, [lo, lo, lo, 5.0, 9.0],
                            [6.0, 7.5, 9.25, 6.5, hi])

    def test_shapes(self):
        got = integrate(lambda x: 2.0 * x, np.zeros((2, 3)), 1.0)
        np.testing.assert_allclose(got, np.ones((2, 3)), atol=1e-15)
        assert integrate(np.cos, 0.0, 0.5 * math.pi) == pytest.approx(1.0)
        assert integrate(np.cos, [], []).shape == (0,)


    def test_by_panel_gives_each_panel_its_own_integrand(self):
        # four abutting panels, four functions; the peaked third one needs
        # several rounds, and every node arrives tagged with its panel
        fns = [np.ones_like, lambda x: x,
               lambda x: 1.0 / (1e-4 + (x - 2.5) ** 2), np.exp]
        a, b = np.arange(4.0), np.arange(1.0, 5.0)
        tags = []

        def fn(x, panel):
            assert panel.shape == x.shape
            assert np.all((a[panel] <= x) & (x <= b[panel]))
            tags.append(np.unique(panel))
            return np.choose(panel, [f(x) for f in fns])

        got = integrate(fn, a, b, by_panel=True)
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


def test_package_import_leaves_scipy_integrate_unloaded(run_python):
    # numpy is the only runtime dependency: no scipy module at all
    proc = run_python("-c", "import sys, lecamjd, lecamjd.cli; "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
