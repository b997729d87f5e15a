"""Fractional-part and truncate-resample filters, plus the statistics
that ride on them."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lecamjd as lj
from lecamjd import _quadrature


def std_phi(x, sd=1.0):
    return math.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


class TestJumpCaseOf:
    @pytest.mark.parametrize("law, case", [
        (lj.DiracJump(1.0), "lattice"),
        (lj.DiracJump(-3.0), "lattice"),
        (lj.LatticeJumps((-1, 2), (0.5, 0.5)), "lattice"),
        (lj.uniform_jumps(1.0, 2.0), "continuous"),
        (lj.gaussian_jumps(0.5, 0.25), "continuous"),
    ])
    def test_the_law_decides_the_kernel(self, law, case):
        assert lj.jump_case_of(law) == case

    @pytest.mark.parametrize("law", [lj.DiracJump(0.5), lj.JumpLaw()])
    def test_a_law_no_kernel_erases_is_refused(self, law):
        with pytest.raises(ValueError, match="integer-lattice"):
            lj.jump_case_of(law)


class TestRoundToLattice:
    @pytest.mark.parametrize("x, want", [
        (1.7, -0.3), (0.3, 0.3), (-1.2, -0.2), (0.0, 0.0), (4.0, 0.0),
    ])
    def test_fractional_part_examples(self, x, want):
        assert lj.round_to_lattice(x) == pytest.approx(want, abs=1e-15)

    def test_ties_round_to_even(self):
        assert lj.round_to_lattice(0.5) == 0.5
        assert lj.round_to_lattice(1.5) == -0.5
        assert lj.round_to_lattice(2.5) == 0.5
        assert lj.round_to_lattice(-0.5) == -0.5

    def test_scalar_in_gives_scalar_out(self):
        assert isinstance(lj.round_to_lattice(1.7), float)

    @given(x=st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_range_and_idempotence(self, x):
        y = lj.round_to_lattice(x)
        assert -0.5 <= y <= 0.5
        # a second application changes nothing, bitwise
        assert lj.round_to_lattice(y) == y

    @given(x=st.floats(-100.0, 100.0), k=st.integers(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_integer_shift_invariance_modulo_one(self, x, k):
        # ties at half-integers may flip the representative's sign, so the
        # outputs agree as points of the circle, not always as floats
        diff = lj.round_to_lattice(x + k) - lj.round_to_lattice(x)
        assert abs(diff - round(diff)) < 1e-9

    def test_array_filter(self):
        got = lj.round_to_lattice(np.array([1.7, -0.2, 3.0]))
        np.testing.assert_allclose(got, [-0.3, -0.2, 0.0], atol=1e-15)


class TestFoldDensity:
    def test_concentrated_gaussian_unchanged_inside_cell(self):
        d = lj.gaussian_density(0.2, 1e-4)
        f = lj.fold_density_to_lattice_cell(d)
        xs = np.linspace(-0.45, 0.45, 9)
        # atol absorbs the sub-1e-200 wrapped tails of the shifted copies
        np.testing.assert_allclose(f(xs), d(xs), rtol=1e-12, atol=1e-200)
        lo, hi, _ = f.structure()
        assert (lo[0], hi[0]) == (-0.5, 0.5)
        assert abs(lj.total_mass(f) - 1.0) < 1e-10

    def test_integer_separated_mixture_merges_structurally(self):
        # bumps at 0 and 1 fold onto the same center; the component list
        # collapses to a single entry with the weights added exactly
        d = lj.Density(lj.MixtureTable([0.0, 1.0], [0.01, 0.01], [0.9, 0.1]))
        f = lj.fold_density_to_lattice_cell(d)
        g = lj.fold_density_to_lattice_cell(lj.gaussian_density(0.0, 1e-4))
        assert lj.tv_quadrature(f, g) == 0.0

    def test_mass_preserved_for_wide_gaussian(self):
        d = lj.gaussian_density(0.3, 4.0)
        f = lj.fold_density_to_lattice_cell(d)
        assert abs(lj.total_mass(f) - 1.0) < 1e-9

    def test_integer_translates_fold_to_same_law(self):
        a = lj.fold_density_to_lattice_cell(lj.gaussian_density(0.2, 0.01))
        b = lj.fold_density_to_lattice_cell(lj.gaussian_density(3.2, 0.01))
        xs = np.linspace(-0.5, 0.5, 101)
        np.testing.assert_allclose(a(xs), b(xs), rtol=1e-9)

    def test_vanishes_outside_cell(self):
        f = lj.fold_density_to_lattice_cell(lj.gaussian_density(0.0, 1.0))
        assert f(0.75) == 0.0
        assert f(-2.0) == 0.0

    def test_only_bare_gaussian_mixtures_fold(self):
        s = lj.IncrementSummaries(m=0.0, sigma2=0.01, lam=0.2)
        uniform = lj.bernoulli_density(s, lj.uniform_jumps(-1.0, 1.0))
        params = lj.TruncateResampleParams(L=0.5, epsilon=0.5, sigma_i=0.1)
        pushed = lj.truncate_resample_pushforward(
            lj.gaussian_density(0.0, 0.01), params)
        folded = lj.fold_density_to_lattice_cell(
            lj.gaussian_density(0.0, 0.01))
        for d in (uniform, pushed, folded):
            with pytest.raises(ValueError, match="bare Gaussian mixture"):
                lj.fold_density_to_lattice_cell(d)


class TestTruncateResampleParams:
    def test_beta_formula(self):
        p = lj.TruncateResampleParams(L=0.1, epsilon=0.5, sigma_i=0.01)
        assert p.beta == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(L=-0.1, epsilon=0.5, sigma_i=0.1),
        dict(L=0.1, epsilon=0.0, sigma_i=0.1),
        dict(L=0.1, epsilon=1.0, sigma_i=0.1),
        dict(L=0.1, epsilon=0.5, sigma_i=0.0),
        dict(L=math.nan, epsilon=0.5, sigma_i=0.1),
        dict(L=math.inf, epsilon=0.5, sigma_i=0.1),
        dict(L=0.1, epsilon=0.5, sigma_i=np.array([0.1, 0.0])),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            lj.TruncateResampleParams(**kwargs)

    def test_array_radii_equal_scalar_radii_bitwise(self):
        sigma = np.geomspace(1e-6, 3.0, 5001)
        for eps in (0.5, 0.3, 0.9):
            radii = lj.TruncateResampleParams(1 / 3, eps, sigma).beta
            one_by_one = [lj.TruncateResampleParams(1 / 3, eps, s).beta
                          for s in sigma.tolist()]
            np.testing.assert_array_equal(radii, one_by_one)
            assert one_by_one[7] == 1 / 3 + sigma[7] ** (1 - eps)


class TestTruncateResample:
    PARAMS = lj.TruncateResampleParams(L=1.0 / 3.0, epsilon=0.5, sigma_i=0.25)

    def test_identity_on_closed_ball(self):
        beta = self.PARAMS.beta
        x = np.array([0.0, -beta, beta, 0.5 * beta])
        got = lj.truncate_resample(x, self.PARAMS, lj.RngStream(1))
        # boundary points are kept: the ball is closed
        np.testing.assert_array_equal(got, x)

    def test_escaped_points_are_redrawn(self):
        beta = self.PARAMS.beta
        x = np.array([10.0, 0.1, -20.0])
        got = lj.truncate_resample(x, self.PARAMS, lj.RngStream(2))
        assert got[1] == 0.1
        assert abs(got[0]) != 10.0 and abs(got[2]) != 20.0

    def test_deterministic_given_stream(self):
        x = np.linspace(-3, 3, 50)
        a = lj.truncate_resample(x, self.PARAMS, lj.RngStream(7, 3))
        b = lj.truncate_resample(x, self.PARAMS, lj.RngStream(7, 3))
        np.testing.assert_array_equal(a, b)

    def test_scalar_roundtrip(self):
        kept = lj.truncate_resample(0.2, self.PARAMS, lj.RngStream(1))
        assert kept == 0.2 and isinstance(kept, float)

    def test_resampled_law_is_the_target_gaussian(self):
        # tiny ball: essentially every draw is resampled
        p = lj.TruncateResampleParams(L=1e-9, epsilon=0.5, sigma_i=1e-20)
        x = np.full(100_000, 5.0)
        got = lj.truncate_resample(x, lj.TruncateResampleParams(
            L=1e-9, epsilon=0.5, sigma_i=0.25), lj.RngStream(11))
        stat = stats.kstest(got / 0.25, "norm").pvalue
        assert stat > 0.01
        del p

    def test_array_sigma_redraws_each_entry_at_its_own_scale(self):
        sigma = np.array([0.1, 0.2, 0.3, 0.4])
        params = lj.TruncateResampleParams(L=1.0 / 3.0, epsilon=0.5,
                                           sigma_i=sigma)
        x = np.array([0.0, 5.0, 0.1, -7.0])
        got = lj.truncate_resample(x, params, lj.RngStream(1))
        escaped = np.array([False, True, False, True])
        want = x.copy()
        want[escaped] = sigma[escaped] * (
            lj.RngStream(1).generator().standard_normal(2))
        np.testing.assert_array_equal(got, want)

    def test_mean_zero_after_heavy_truncation(self):
        params = lj.TruncateResampleParams(L=0.01, epsilon=0.5, sigma_i=0.5)
        x = np.full(50_000, 3.0)
        got = lj.truncate_resample(x, params, lj.RngStream(5))
        assert abs(got.mean()) < 3 * 0.5 / math.sqrt(50_000) + 1e-3


class TestPushforward:
    def test_standard_gaussian_unit_ball(self):
        # choose params with beta = 1 and resample sd 0.25
        params = lj.TruncateResampleParams(L=0.5, epsilon=0.5, sigma_i=0.25)
        assert params.beta == 1.0
        d = lj.gaussian_density(0.0, 1.0)
        push = lj.truncate_resample_pushforward(d, params)
        out_mass = 2.0 * stats.norm.cdf(-1.0)
        # inside: original density plus leaked-mass gaussian
        want_in = std_phi(0.3) + out_mass * std_phi(0.3, 0.25)
        assert float(push(0.3)) == pytest.approx(want_in, rel=1e-9)
        # outside: only the resampling gaussian remains
        want_out = out_mass * std_phi(1.5, 0.25)
        assert float(push(1.5)) == pytest.approx(want_out, rel=1e-9)

    def test_mass_is_preserved(self):
        params = lj.TruncateResampleParams(L=0.5, epsilon=0.5, sigma_i=0.25)
        push = lj.truncate_resample_pushforward(
            lj.gaussian_density(0.0, 1.0), params)
        assert abs(lj.total_mass(push) - 1.0) < 1e-9

    def test_uniform_jumps_keep_their_box_inside_the_ball(self):
        # N(0, 0.01) plus U[-1, 2] w.p. alpha in a ball of radius 1.5: the
        # box's part past 1.5 escapes, and each smoothed box end, 5 sds
        # from the ball, moves 0.1 (phi(5) - 5 Phi(-5)) more across it
        s = lj.IncrementSummaries(m=0.0, sigma2=0.01, lam=0.3)
        d = lj.bernoulli_density(s, lj.uniform_jumps(-1.0, 2.0))
        params = lj.TruncateResampleParams(L=1.0, epsilon=0.5, sigma_i=0.25)
        push = lj.truncate_resample_pushforward(d, params)
        xs = np.array([-1.4, -0.5, 0.0, 0.9, 1.49])
        edge = 0.1 * (std_phi(5.0) - 2.5 * math.erfc(5.0 / math.sqrt(2.0)))
        escaped = s.alpha * (0.5 + 2.0 * edge) / 3.0
        want = d(xs) + escaped * np.array([std_phi(x, 0.25) for x in xs])
        np.testing.assert_allclose(push(xs), want, rtol=1e-12)
        assert push.table.mass[0] == pytest.approx(escaped, rel=1e-12)
        assert abs(lj.total_mass(push) - 1.0) < 1e-9

    def test_restricted_rows_are_refused(self):
        params = lj.TruncateResampleParams(L=0.5, epsilon=0.5, sigma_i=0.25)
        push = lj.truncate_resample_pushforward(
            lj.gaussian_density(0.0, 1.0), params)
        folded = lj.fold_density_to_lattice_cell(
            lj.gaussian_density(0.0, 1.0))
        # topped up but not cut: still no law to truncate
        topped = lj.Density(dataclasses.replace(
            lj.gaussian_density(0.0, 1.0).table, mass=0.1, resample_sd=1.0))
        for d in (push, folded, topped):
            with pytest.raises(ValueError, match="unrestricted"):
                lj.truncate_resample_pushforward(d, params)

    def test_pushforward_makes_no_integrator_call(self, monkeypatch):
        # the escaped mass is a closed form: only the oracle integrates
        s = lj.IncrementSummaries(m=[0.0, 0.5], sigma2=[0.01, 0.04],
                                  lam=[0.3, 0.6])
        laws = [lj.bernoulli_density(s, law) for law in (
            lj.gaussian_jumps(2.0, 0.5), lj.uniform_jumps(1.0, 2.0))]
        target = lj.gaussian_density(s.m, s.sigma2)
        params = lj.TruncateResampleParams(0.5, 0.5, np.sqrt(s.sigma2))
        calls, integrate = [], _quadrature.integrate

        def spy(*args, **kwargs):
            calls.append(kwargs.get("what"))
            return integrate(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("lecamjd.")
                    and getattr(module, "integrate", None) is integrate):
                monkeypatch.setattr(module, "integrate", spy)
        for approx in laws:
            push = lj.truncate_resample_pushforward(approx, params)
            assert calls == []
            lj.tv_quadrature(push, target)
            assert calls == ["oracle panel"]
            calls.clear()

    def test_no_escape_means_identity(self):
        params = lj.TruncateResampleParams(L=20.0, epsilon=0.5, sigma_i=1.0)
        d = lj.gaussian_density(0.0, 1.0)
        push = lj.truncate_resample_pushforward(d, params)
        xs = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(push(xs), d(xs), rtol=1e-9)

    def test_push_matches_sampler_histogram(self):
        params = lj.TruncateResampleParams(L=0.2, epsilon=0.5, sigma_i=0.3)
        d = lj.gaussian_density(0.1, 0.09)
        push = lj.truncate_resample_pushforward(d, params)
        gen = lj.RngStream(17).generator()
        raw = 0.1 + 0.3 * gen.standard_normal(200_000)
        filt = lj.truncate_resample(raw, params, lj.RngStream(17, 1))
        hist, edges = np.histogram(filt, bins=40,
                                   range=(-1.2, 1.2), density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # bins straddling the ball edge mix the two regimes; skip them
        keep = np.abs(np.abs(mids) - params.beta) > 0.06
        np.testing.assert_allclose(hist[keep], push(mids[keep]),
                                   atol=0.06)


class TestTransferEstimator:
    def test_filters_increments_before_delta(self):
        seen = {}

        def delta(values):
            seen["values"] = values
            return float(np.sum(values))

        out = lj.transfer_estimator(delta, [0.0, 1.3, 1.1])
        np.testing.assert_allclose(seen["values"], [0.3, -0.2], atol=1e-15)
        assert out == pytest.approx(0.1, abs=1e-15)

    def test_rejects_short_or_multidim_input(self):
        with pytest.raises(ValueError):
            lj.transfer_estimator(lambda v: v, [1.0])
        with pytest.raises(ValueError):
            lj.transfer_estimator(lambda v: v, [[0.0, 1.0], [2.0, 3.0]])


class TestWeightedIntegralStatistic:
    def test_unit_noise_is_identity(self):
        grid = lj.Grid.uniform(1.0, 4)
        inc = np.array([0.5, -0.2, 0.0, 1.0])
        got = lj.weighted_integral_statistic(inc, lj.constant(1.0), grid)
        np.testing.assert_allclose(got, inc, rtol=1e-12)

    def test_constant_noise_rescales_by_variance(self):
        grid = lj.Grid.uniform(1.0, 2)
        inc = np.array([1.0, 2.0])
        got = lj.weighted_integral_statistic(inc, lj.constant(4.0), grid)
        np.testing.assert_allclose(got, inc / 4.0, rtol=1e-12)

    def test_harmonic_mean_divisor(self):
        # sigma_n^2 = (1+t)^2 on one interval: divisor is the harmonic
        # mean 1 / int_0^1 dt/(1+t)^2 = 2
        grid = lj.Grid.uniform(1.0, 1)
        s2 = lj.TimeFunction(lambda t: (1.0 + np.asarray(t)) ** 2)
        got = lj.weighted_integral_statistic(np.array([3.0]), s2, grid)
        assert got[0] == pytest.approx(1.5, rel=1e-10)

    def test_validation(self):
        grid = lj.Grid.uniform(1.0, 2)
        with pytest.raises(ValueError, match="one increment"):
            lj.weighted_integral_statistic(np.ones(3), lj.constant(1.0),
                                           grid)
        with pytest.raises(ValueError, match="positive"):
            lj.weighted_integral_statistic(np.ones(2), lj.linear(1.0, -2.0),
                                           grid)
