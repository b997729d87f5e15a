"""Exact and one-jump increment densities, and their characteristic
functions.

The numerical targets were computed independently (scipy/math only) and
frozen; each carries the closed form it came from.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj
from lecamjd import _gauss, laws


def summ(m=0.0, sigma2=0.01, lam=0.1) -> lj.IncrementSummaries:
    return lj.IncrementSummaries(m=m, sigma2=sigma2, lam=lam)


def components(d: lj.Density) -> list[tuple[float, float, float]]:
    """The ``(mean, sd, weight)`` list of a one-law bare Gaussian
    mixture, read from its table's entries of positive weight."""
    t = d.table
    assert t.rows == 1 and t.plain[0] and not t.boxed[0]
    real = t.weights[0] > 0.0
    return list(zip(t.means[0, real].tolist(), t.sds[0, real].tolist(),
                    t.weights[0, real].tolist()))


class TestGaussianDensity:
    def test_standard_normal_at_zero(self):
        d = lj.gaussian_density(0.0, 1.0)
        # phi(0) = 1 / sqrt(2 pi)
        assert abs(float(d(0.0)) - 0.3989422804014327) < 1e-16
        assert components(d) == [(0.0, 1.0, 1.0)]

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError, match="variance"):
            lj.gaussian_density(0.0, 0.0)

    def test_support_covers_bulk(self):
        d = lj.gaussian_density(2.0, 0.25)
        (lo,), (hi,), _ = d.structure()
        assert lo < 2.0 - 5 * 0.5 and hi > 2.0 + 5 * 0.5


class TestMixtureDensity:
    def test_pointwise_weighted_sum(self):
        d = lj.Density(lj.MixtureTable([0.0, 3.0], [1.0, 0.5], [0.75, 0.25]))
        x = np.array([-1.0, 0.0, 3.0])
        want = (0.75 * np.exp(-0.5 * x ** 2) / math.sqrt(2 * math.pi)
                + 0.25 * np.exp(-0.5 * ((x - 3.0) / 0.5) ** 2)
                / (0.5 * math.sqrt(2 * math.pi)))
        np.testing.assert_allclose(d(x), want, rtol=1e-14)
        assert len(components(d)) == 2

    def test_total_mass_is_one(self):
        d = lj.Density(lj.MixtureTable([0.0, 1.0], [0.2, 0.1], [0.5, 0.5]))
        assert abs(lj.total_mass(d) - 1.0) < 1e-10


class TestExactIncrementDensity:
    def test_value_at_one_dirac_jump(self):
        # sum_k e^{-lam} lam^k / k! * phi((1-k)/s) / s at lam=0.1, s=0.1
        d = lj.increment_density_exact(summ(), lj.DiracJump(1.0))
        assert abs(float(d(1.0)) - 0.36097790294381016) < 1e-13

    def test_mass_short_by_at_most_tail_tol(self):
        for lam in (0.3, 2.0, 9.0):
            d = lj.increment_density_exact(summ(lam=lam), lj.DiracJump(1.0))
            assert d.table.weights.sum() >= 1.0 - laws._TAIL_TOL
            assert abs(lj.total_mass(d) - 1.0) < 1e-10

    def test_component_count_matches_poisson_truncation(self):
        # lam = 0.2 at tail 1e-12 keeps k = 0..9
        d = lj.increment_density_exact(summ(lam=0.2), lj.DiracJump(1.0))
        assert len(components(d)) == 10

    def test_huge_intensity_rejected(self):
        with pytest.raises(ValueError, match="more than"):
            lj.increment_density_exact(summ(lam=400.0), lj.DiracJump(1.0))

    def test_lattice_jump_components_sit_on_integer_shifts(self):
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        d = lj.increment_density_exact(summ(m=0.25), law)
        shifts = sorted({round(mu - 0.25) for mu, _, _ in components(d)})
        assert shifts[0] <= -2 and 4 in shifts
        for mu, _, _ in components(d):
            assert abs((mu - 0.25) - round(mu - 0.25)) < 1e-12

    def test_gaussian_jump_convolution_is_closed_form(self):
        law = lj.gaussian_jumps(0.5, 0.3)
        d = lj.increment_density_exact(summ(lam=0.2), law)
        # k-th component: N(m + 0.5 k, sigma2 + 0.09 k)
        by_mean = sorted(components(d))
        assert abs(by_mean[0][0] - 0.0) < 1e-12
        assert abs(by_mean[1][0] - 0.5) < 1e-12
        assert abs(by_mean[1][1] - math.sqrt(0.01 + 0.09)) < 1e-12

    def test_uniform_jumps_keep_exact_mass(self):
        law = lj.uniform_jumps(0.0, 1.0)
        d = lj.increment_density_exact(summ(lam=0.3), law)
        # the k-jump sums, k = 1..10 at tail 1e-12, are smoothed
        # Irwin-Hall terms: the k = 0 Gaussian is the only component
        assert d.table.boxed[0]
        assert np.count_nonzero(d.table.weights[0] > 0.0) == 1
        assert d.table.box_weight.shape[1] == 10
        assert abs(lj.total_mass(d) - 1.0) < 1e-12


class TestBernoulliDensity:
    def test_two_bump_structure(self):
        s = summ(m=0.2, lam=0.1)
        d = lj.bernoulli_density(s, lj.DiracJump(1.0))
        comps = sorted(components(d))
        assert len(comps) == 2
        mu0, sd0, w0 = comps[0]
        mu1, sd1, w1 = comps[1]
        assert abs(mu0 - 0.2) < 1e-15 and abs(mu1 - 1.2) < 1e-15
        assert abs(sd0 - 0.1) < 1e-15 and abs(sd1 - 0.1) < 1e-15
        assert abs(w0 - (1.0 - s.alpha)) < 1e-15
        assert abs(w1 - s.alpha) < 1e-15

    def test_equal_tenth_masses_at_calibrated_intensity(self):
        # lam solving lam e^{-lam} = 0.01 gives a jump bump of mass 0.01
        lam_star = 0.010101527198538754
        d = lj.bernoulli_density(summ(lam=lam_star), lj.DiracJump(1.0))
        w_jump = sorted(components(d))[1][2]
        assert abs(w_jump - 0.01) < 1e-12

    def test_mass_is_exactly_one_structurally(self):
        d = lj.bernoulli_density(summ(lam=0.25), lj.DiracJump(1.0))
        weights = [w for _, _, w in components(d)]
        assert math.fsum(weights) == 1.0

    def test_zero_intensity_collapses_to_gaussian(self):
        d = lj.bernoulli_density(summ(lam=0.0), lj.DiracJump(1.0))
        comps = [c for c in components(d) if c[2] > 0]
        assert comps == [(0.0, 0.1, 1.0)]


class TestIncrementCf:
    def test_dirac_closed_form(self):
        # exp(i u m - u^2 s2 / 2 + lam (e^{iu} - 1)) at u=1, m=0, s2=1
        s = lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=0.5)
        got = lj.increment_cf(s, lj.DiracJump(1.0), 1.0)
        want = np.exp(-0.5 + 0.5 * (np.exp(1j) - 1.0))
        assert abs(got - want) < 1e-15
        assert abs(abs(got) - 0.48198183755342444) < 1e-14

    def test_zero_frequency_is_one(self):
        got = lj.increment_cf(summ(lam=0.7), lj.DiracJump(2.0), 0.0)
        assert got == 1.0 + 0.0j

    def test_vector_input_matches_scalar(self):
        s = summ(m=-0.3, sigma2=0.5, lam=0.2)
        law = lj.gaussian_jumps(1.0, 0.4)
        us = np.array([-2.0, 0.3, 5.0])
        vec = lj.increment_cf(s, law, us)
        for u, v in zip(us, vec):
            assert abs(v - lj.increment_cf(s, law, float(u))) < 1e-15

    def test_inversion_recovers_density(self):
        # trapezoid Fourier inversion of the cf against the series density
        s = summ(m=0.1, sigma2=0.04, lam=0.3)
        law = lj.DiracJump(1.0)
        d = lj.increment_density_exact(s, law)
        u = np.linspace(-80.0, 80.0, 16001)
        cf = lj.increment_cf(s, law, u)
        for x in (0.0, 0.5, 1.0, 1.5):
            inv = np.trapezoid(np.real(np.exp(-1j * u * x) * cf),
                               u) / (2.0 * math.pi)
            assert abs(inv - float(d(x))) < 1e-6

    def test_modulus_never_exceeds_one(self):
        s = summ(m=0.5, sigma2=0.2, lam=1.5)
        law = lj.LatticeJumps(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        u = np.linspace(-30, 30, 401)
        assert np.all(np.abs(lj.increment_cf(s, law, u)) <= 1.0 + 1e-12)

    def test_takes_one_interval_only(self):
        s = lj.IncrementSummaries(m=[0.0, 0.1], sigma2=[1.0, 1.0],
                                  lam=[0.5, 0.5])
        with pytest.raises(ValueError, match="2 intervals"):
            lj.increment_cf(s, lj.DiracJump(1.0), 1.0)


TABLE_FIELDS = ("means", "sds", "weights", "box_weight", "box_lo",
                "box_hi", "box_sd")


class TestKfoldChain:
    def test_twofold_lattice_term(self):
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        # weights (0, 0, 1) keep the k = 2 term alone
        t = laws._kfold_table(summ(m=0.0), law,
                              np.array([[0.0, 0.0, 1.0]])).table
        real = t.weights[0] > 0.0
        got = dict(zip(t.means[0, real].tolist(),
                       t.weights[0, real].tolist()))
        assert got == {-2.0: 0.25, 1.0: 0.5, 4.0: 0.25}

    @pytest.mark.parametrize("law", [
        lj.LatticeJumps((2, -1, 0), (0.2, 0.5, 0.3)),
        # a pmf with zeros between its atoms
        lj.LatticeJumps((-3, 4), (0.4, 0.6))])
    def test_one_convolution_per_term(self, law, monkeypatch):
        s = lj.IncrementSummaries(m=[0.0, 1.0], sigma2=[0.04, 0.04],
                                  lam=[3.0, 8.0])
        last = laws._poisson_weights(s.lam).shape[1] - 1
        calls = []
        convolve = np.convolve

        def spy(a, v):
            calls.append(a.size)
            return convolve(a, v)

        monkeypatch.setattr(np, "convolve", spy)
        lj.increment_density_exact(s, law)
        assert last > 20
        assert len(calls) == last - 1

    def test_repeated_values_merge(self):
        s = summ(m=0.1, sigma2=0.04, lam=2.0)
        got = lj.increment_density_exact(
            s, lj.LatticeJumps((1, 1, 2), (0.25, 0.25, 0.5))).table
        want = lj.increment_density_exact(
            s, lj.LatticeJumps((1, 2), (0.5, 0.5))).table
        for name in TABLE_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert abs(lj.total_mass(lj.Density(got)) - 1.0) < 1e-10


def cardinal_bspline(k, t):
    """The Irwin-Hall density of ``k`` unit uniforms at ``t``, by the
    Cox-de Boor recursion ``(k - 1) B_k(t) = t B_{k-1}(t)
    + (k - t) B_{k-1}(t - 1)``."""
    if k == 1:
        return np.where((t >= 0.0) & (t < 1.0), 1.0, 0.0)
    return (t * cardinal_bspline(k - 1, t)
            + (k - t) * cardinal_bspline(k - 1, t - 1.0)) / (k - 1)


#: 20-point Gauss-Legendre nodes and weights on [0, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
GL_NODES, GL_WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS


def smoothed_irwin_hall(k, u, sd):
    """``int B_k(t) phi_sd(u - t) dt``: each piece ``[j, j + 1]`` within
    40 sds of ``u`` cut into panels at most ``sd / 2`` wide, each
    integrated by a fixed 20-point Gauss-Legendre rule."""
    total = 0.0
    for j in range(k):
        a, b = max(j, u - 40.0 * sd), min(j + 1.0, u + 40.0 * sd)
        if a >= b:
            continue
        edges = np.linspace(a, b, int(np.ceil((b - a) / (0.5 * sd))) + 1)
        width = np.diff(edges)[:, None]
        t = edges[:-1, None] + width * GL_NODES
        total += float((width * GL_WEIGHTS * cardinal_bspline(k, t)
                        * _gauss.std_pdf((u - t) / sd) / sd).sum())
    return total


def smoothed_box(za, zb):
    """``Phi(za) - Phi(zb)`` for ``za > zb``, from the smaller tails
    (``math.erfc``), so that it keeps its relative accuracy past either
    end of the box."""
    def upper(v):
        return 0.5 * math.erfc(v / math.sqrt(2.0))
    if zb >= 0.0:
        return upper(zb) - upper(za)
    if za <= 0.0:
        return upper(-za) - upper(-zb)
    return 1.0 - upper(za) - upper(-zb)


class TestIrwinHallTerms:
    @given(k=st.integers(1, 8), sd=st.floats(1e-3, 1.0),
           lo=st.floats(-2.0, 2.0), width=st.floats(0.05, 2.0),
           z=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_spline_term_matches_quadrature(self, k, sd, lo, width, z):
        # the k-jump sum alone, weight 1: the table's term against fixed
        # Gauss-Legendre integrals of each Irwin-Hall piece against phi,
        # with sd from 1/2000 to 20 jump widths (the moment recursion
        # below one width, the Taylor series of phi above it)
        law = lj.uniform_jumps(lo, lo + width)
        weights = np.zeros((1, k + 1))
        weights[0, k] = 1.0
        t = laws._kfold_table(summ(m=0.0, sigma2=sd * sd), law,
                              weights).table
        assert not t.weights.any() and t.box_weight.shape[1] == k
        a, b = t.box_lo[0, k - 1], t.box_hi[0, k - 1]
        scale, h = t.box_weight[0, k - 1], (b - a) / k
        # points across the term and within a few sds of its knots
        u = k * (0.5 + np.array(z))
        u = np.concatenate((u, np.round(u) + 4.0 * np.array(z) * sd / h))
        x = a + h * u
        got = t.values(x, np.zeros(x.size, dtype=np.intp))
        want = scale * np.array([smoothed_irwin_hall(k, v, sd / h)
                                 for v in u])
        peak = scale * smoothed_irwin_hall(k, 0.5 * k, sd / h)
        assert np.all(np.abs(got - want) <= 1e-12 * peak)
        assert abs(t.escaped_mass(0.0)[0] - scale * h) <= 1e-15

    @given(e=st.integers(-4, 4), ratio=st.floats(1e-3, 50.0),
           right=st.booleans(),
           z=st.lists(st.floats(-35.0, 35.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_one_jump_term_keeps_its_tails(self, e, ratio, right, z):
        # the one-uniform term against the smoothed box from the smaller
        # tails, at points up to 35 sds past either end and across it, with
        # sd from 1/1000 to 50 jump widths; the box [h, 2h] is dyadic, so
        # the argument reductions on both sides are exact and the tolerance
        # measures the Phi differences, not the rounding of x
        h = math.ldexp(1.0, e)
        t = laws._kfold_table(summ(m=0.0, sigma2=(ratio * h) ** 2),
                              lj.uniform_jumps(h, 2.0 * h),
                              np.array([[0.0, 1.0]])).table
        lo, hi, sd = t.box_lo[0, 0], t.box_hi[0, 0], t.box_sd[0]
        assert (lo, hi) == (h, 2.0 * h)
        x = (hi if right else lo) + np.array(z) * sd
        got = t.values(x, np.zeros(x.size, dtype=np.intp))
        want = t.box_weight[0, 0] * np.array(
            [smoothed_box((v - lo) / sd, (v - hi) / sd) for v in x])
        past = np.maximum(0.0, np.maximum((lo - x) / sd, (x - hi) / sd))
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + past ** 2) * want)
