"""Quadrature distances checked against closed-form Gaussian values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj


class TestL1:
    def test_identical_densities_give_zero(self):
        p = lj.gaussian_density(0.3, 0.5)
        assert lj.l1_quadrature(p, p) < 1e-12

    def test_disjoint_supports_give_two(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(40.0, 1.0)
        assert abs(lj.l1_quadrature(p, q) - 2.0) < 1e-10

    def test_unit_gaussians_two_sd_apart(self):
        # 2 (1 - 2 Phi(-1)) for |mu1 - mu2| = 2 sd
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(2.0, 1.0)
        got = lj.l1_quadrature(p, q)
        assert abs(got - 1.3653789842741717) < 1e-10

    def test_symmetry(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(0.7, 2.0)
        assert abs(lj.l1_quadrature(p, q) - lj.l1_quadrature(q, p)) < 1e-12

    def test_triangle_inequality(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.5)
        r = lj.gaussian_density(-0.5, 0.7)
        assert (lj.l1_quadrature(p, q)
                <= lj.l1_quadrature(p, r) + lj.l1_quadrature(r, q) + 1e-10)


class TestTV:
    def test_half_of_l1(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.0)
        assert lj.tv_quadrature(p, q) == 0.5 * lj.l1_quadrature(p, q)

    def test_unit_gaussians_one_apart(self):
        # 2 Phi(1/2) - 1
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.0)
        assert abs(lj.tv_quadrature(p, q) - 0.38292492254802624) < 1e-10

    def test_mixture_against_its_dominant_part(self):
        # TV(N(0,s2), (1-a) N(0,s2) + a N(10,s2)) = a for separated bumps
        a = 0.07
        p = lj.gaussian_density(0.0, 0.01)
        q = lj.Density(lj.MixtureTable([0.0, 10.0], [0.1, 0.1], [1.0 - a, a]))
        assert abs(lj.tv_quadrature(p, q) - a) < 1e-10


class TestHellinger:
    def test_unit_gaussians_one_apart(self):
        # H^2 = 2 (1 - exp(-1/8))
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.0)
        h = lj.hellinger_quadrature(p, q)
        assert abs(h - 0.4847743751796387) < 1e-9
        assert abs(h * h - 0.2350061948308091) < 1e-9

    @given(mu=st.floats(-2.0, 2.0), s2=st.floats(0.25, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_sandwich_against_tv(self, mu, s2):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(mu, s2)
        h = lj.hellinger_quadrature(p, q)
        tv = lj.tv_quadrature(p, q)
        assert h * h / 2.0 <= tv + 1e-9
        assert tv <= h * math.sqrt(max(1.0 - h * h / 4.0, 0.0)) + 1e-9


class TestOneLaw:
    # two laws in one table: N(0, 1) and N(5, 1) against N(0, 1) twice;
    # tv_quadrature_many compares them row by row
    P = lj.gaussian_density([0.0, 0.0], [1.0, 1.0])
    Q = lj.gaussian_density([0.0, 5.0], [1.0, 1.0])

    @pytest.mark.parametrize("distance", [lj.tv_quadrature, lj.l1_quadrature,
                                          lj.hellinger_quadrature])
    def test_one_pair_distances_refuse_many_rows(self, distance):
        with pytest.raises(ValueError, match="tv_quadrature_many"):
            distance(self.P, self.Q)
        with pytest.raises(ValueError, match="tv_quadrature_many"):
            distance(lj.gaussian_density(0.0, 1.0), self.Q)

    def test_total_mass_refuses_many_rows(self):
        with pytest.raises(ValueError, match="tv_quadrature_many"):
            lj.total_mass(self.Q)


class TestTotalMass:
    def test_gaussian_is_normalized(self):
        assert abs(lj.total_mass(lj.gaussian_density(1.0, 2.0)) - 1.0) < 1e-10

    def test_exact_increment_density_mass(self):
        s = lj.IncrementSummaries(m=0.0, sigma2=0.04, lam=0.2)
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        d = lj.increment_density_exact(s, law)
        assert abs(lj.total_mass(d) - 1.0) < 1e-10


class TestPanelSplitting:
    def test_narrow_bump_inside_wide_support(self):
        # a 1e-3-wide bump at 3 is found because component means are panel
        # breakpoints; a naive single quad over [-12, 15] would miss it
        p = lj.Density(lj.MixtureTable([0.0, 3.0], [1.0, 0.001], [0.5, 0.5]))
        q = lj.gaussian_density(0.0, 1.0)
        got = lj.tv_quadrature(p, q)
        # true value is 0.5 minus the ~2e-5 overlap mass under the bump;
        # losing a side of the bump would drop the result to 0.375
        assert abs(got - 0.5) < 1e-4
        assert got < 0.5

    def test_uniform_density_edges_are_respected(self):
        law = lj.uniform_jumps(-1.0, 1.0)
        s = lj.IncrementSummaries(m=0.0, sigma2=1e-6, lam=0.1)
        d = lj.increment_density_exact(s, law)
        assert abs(lj.total_mass(d) - 1.0) < 1e-8


def _truncated_unit_gaussian():
    # N(0, 1) through the truncate-and-resample kernel with sigma_i = 1,
    # L = 0.5, epsilon = 0.5: ball radius 1.5, escaped mass e redrawn from
    # N(0, 1), so the output law is N(0, 1) moved by e (1 - e) in TV
    params = lj.TruncateResampleParams(L=0.5, epsilon=0.5, sigma_i=1.0)
    e = math.erfc(1.5 / math.sqrt(2.0))
    return (lj.truncate_resample_pushforward(lj.gaussian_density(0.0, 1.0),
                                             params),
            lj.gaussian_density(0.0, 1.0)), e * (1.0 - e)


#: (p, q) pairs of every kind the sweeps compare, with closed-form TVs
MIXED_BATCH = [
    ((lj.gaussian_density(0.0, 1.0), lj.gaussian_density(1.0, 1.0)),
     0.38292492254802624),
    ((lj.gaussian_density(0.0, 1.0), lj.gaussian_density(40.0, 1.0)), 1.0),
    # one jump of size U[40, 41] w.p. alpha over N(0, 0.01): the box lies
    # 400 sd away from the Gaussian, so TV = alpha = lam exp(-lam)
    ((lj.bernoulli_density(lj.IncrementSummaries(m=0.0, sigma2=0.01,
                                                 lam=0.5),
                           lj.uniform_jumps(40.0, 41.0)),
      lj.gaussian_density(0.0, 0.01)), 0.5 * math.exp(-0.5)),
    # folded N(0.1, 0.05^2) and N(2.3, 0.05^2) are wrapped Gaussians 0.2
    # apart whose other windings are 16 sd away: TV = 2 Phi(2) - 1
    ((lj.fold_density_to_lattice_cell(lj.gaussian_density(0.1, 0.0025)),
      lj.fold_density_to_lattice_cell(lj.gaussian_density(2.3, 0.0025))),
     math.erf(math.sqrt(2.0))),
    _truncated_unit_gaussian(),
]


class TestBatch:
    PAIRS = [pair for pair, _ in MIXED_BATCH]

    def test_mixed_batch_matches_closed_forms(self):
        got = lj.tv_quadrature_many(self.PAIRS)
        want = [tv for _, tv in MIXED_BATCH]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_batch_equals_one_pair_calls(self):
        got = lj.tv_quadrature_many(self.PAIRS)
        one = [lj.tv_quadrature(p, q) for p, q in self.PAIRS]
        np.testing.assert_array_equal(got, one)

    @given(order=st.permutations(range(len(MIXED_BATCH))),
           cut=st.integers(0, len(MIXED_BATCH)),
           extra=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                    st.floats(0.05, 4.0)), max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_permuting_or_splitting_changes_nothing(self, order, cut, extra):
        pairs = self.PAIRS + [(lj.gaussian_density(0.0, 1.0),
                               lj.gaussian_density(mu, s2))
                              for mu, s2 in extra]
        whole = lj.tv_quadrature_many(pairs)
        order = list(order) + list(range(len(MIXED_BATCH), len(pairs)))
        permuted = lj.tv_quadrature_many([pairs[k] for k in order])
        np.testing.assert_array_equal(permuted, whole[order])
        split = np.concatenate((lj.tv_quadrature_many(pairs[:cut]),
                                lj.tv_quadrature_many(pairs[cut:])))
        np.testing.assert_array_equal(split, whole)

    def test_empty_batch(self):
        got = lj.tv_quadrature_many([])
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_non_finite_pair_names_its_panel(self):
        # the middle pair's integrand is NaN on all of [2, 3], whose first
        # panel is [2, 2.25]; the whole batch raises, so no pair's value is
        # returned
        flat = lj.Density(lj.MixtureTable([2.5], [1.0 / 24.0], [1.0]))
        broken = lj.Density(lj.MixtureTable([2.5], [1.0 / 24.0], [math.nan]))
        pairs = [self.PAIRS[0], (broken, flat), self.PAIRS[1]]
        with pytest.raises(lj.QuadratureError,
                           match=r"oracle panel over \[2, 2.25\] has a "
                                 r"non-finite integrand value"):
            lj.tv_quadrature_many(pairs)
