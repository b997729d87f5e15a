"""Exact and one-jump increment densities, and their characteristic
functions.

The numerical targets were computed independently (scipy/math only) and
frozen; each carries the closed form it came from.
"""

import math

import numpy as np
import pytest

import lecamjd as lj


def summ(m=0.0, sigma2=0.01, lam=0.1) -> lj.IncrementSummaries:
    return lj.IncrementSummaries(m=m, sigma2=sigma2, lam=lam,
                                 alpha=lam * math.exp(-lam))


def components(d: lj.Density) -> list[tuple[float, float, float]]:
    """The ``(mean, sd, weight)`` list of a one-law bare Gaussian
    mixture, read from its table."""
    t = d.table
    assert t.rows == 1 and t.plain[0] and not t.boxed[0]
    k = t.size[0]
    return list(zip(t.means[0, :k].tolist(), t.sds[0, :k].tolist(),
                    t.weights[0, :k].tolist()))


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
        comps = [(0.0, 1.0, 0.75), (3.0, 0.5, 0.25)]
        d = lj.mixture_density(comps)
        x = np.array([-1.0, 0.0, 3.0])
        want = (0.75 * np.exp(-0.5 * x ** 2) / math.sqrt(2 * math.pi)
                + 0.25 * np.exp(-0.5 * ((x - 3.0) / 0.5) ** 2)
                / (0.5 * math.sqrt(2 * math.pi)))
        np.testing.assert_allclose(d(x), want, rtol=1e-14)
        assert len(components(d)) == 2

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            lj.mixture_density([])

    def test_total_mass_is_one(self):
        d = lj.mixture_density([(0.0, 0.2, 0.5), (1.0, 0.1, 0.5)])
        assert abs(lj.total_mass(d) - 1.0) < 1e-10


class TestExactIncrementDensity:
    def test_value_at_one_dirac_jump(self):
        # sum_k e^{-lam} lam^k / k! * phi((1-k)/s) / s at lam=0.1, s=0.1
        d = lj.increment_density_exact(summ(), lj.DiracJump(1.0))
        assert abs(float(d(1.0)) - 0.36097790294381016) < 1e-13

    def test_mass_short_by_at_most_tail_tol(self):
        d = lj.increment_density_exact(summ(lam=0.3), lj.DiracJump(1.0),
                                       tail_tol=1e-9)
        mass = lj.total_mass(d)
        assert mass <= 1.0 + 1e-10
        assert mass >= 1.0 - 2e-9

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
        # the one-jump piece is a box, not a Gaussian mixture
        assert d.table.boxed[0]
        assert abs(lj.total_mass(d) - 1.0) < 1e-9


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
        s = lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=0.5,
                                  alpha=0.5 * math.exp(-0.5))
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


class TestKfoldPmf:
    def test_twofold_convolution(self):
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        support, probs = law.kfold_pmf(2)
        got = {int(v): p for v, p in zip(support, probs) if p > 0}
        assert got == {-2: 0.25, 1: 0.5, 4: 0.25}

    def test_zerofold_is_point_mass_at_zero(self):
        law = lj.LatticeJumps(np.array([3.0]), np.array([1.0]))
        support, probs = law.kfold_pmf(0)
        np.testing.assert_array_equal(support, [0.0])
        np.testing.assert_array_equal(probs, [1.0])

    def test_masses_sum_to_one(self):
        law = lj.LatticeJumps(np.array([-2.0, 0.0, 1.0]),
                              np.array([0.2, 0.5, 0.3]))
        for k in (1, 2, 5):
            _, probs = law.kfold_pmf(k)
            assert abs(probs.sum() - 1.0) < 1e-12
