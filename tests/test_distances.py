"""Closed-form distance bounds and their quadrature cross-checks.

Frozen targets carry the closed form they were computed from; the
dominance checks compare each bound against direct integration of the
densities it claims to control.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj

# lam solving lam * exp(-lam) = 0.01, so alpha_i is exactly 0.01
LAM_FOR_ALPHA_001 = 0.010101527198538754


def summaries_from(m, sigma2, lam) -> lj.IncrementSummaries:
    return lj.IncrementSummaries(m=m, sigma2=sigma2, lam=lam)


class TestTvGaussiansBound:
    def test_unit_shift_value(self):
        # sqrt(0 + 1 / 2)
        got = lj.tv_gaussians_bound(0.0, 1.0, 1.0, 1.0)
        assert abs(got - 0.7071067811865476) < 1e-16

    def test_equal_laws_give_zero(self):
        assert lj.tv_gaussians_bound(0.3, 0.7, 0.3, 0.7) == 0.0

    def test_clamped_at_one(self):
        assert lj.tv_gaussians_bound(0.0, 0.1, 50.0, 0.1) == 1.0

    def test_symmetric_in_arguments(self):
        a = lj.tv_gaussians_bound(0.0, 1.0, 1.0, 2.0)
        b = lj.tv_gaussians_bound(1.0, 2.0, 0.0, 1.0)
        assert a == b

    def test_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            lj.tv_gaussians_bound(0.0, 0.0, 1.0, 1.0)

    @given(mu=st.floats(-3.0, 3.0), sd1=st.floats(0.3, 3.0),
           sd2=st.floats(0.3, 3.0))
    @settings(max_examples=12, deadline=None)
    def test_dominates_quadrature_tv(self, mu, sd1, sd2):
        bound = lj.tv_gaussians_bound(0.0, sd1, mu, sd2)
        (tv,) = lj.tv_quadrature(lj.gaussian_density(0.0, sd1 ** 2),
                                 lj.gaussian_density(mu, sd2 ** 2))
        assert tv <= bound + 1e-9


class TestKlGaussians:
    def test_double_sd_value(self):
        # log(1/2) + (4 - 1) / 2
        got = lj.kl_gaussians(0.0, 2.0, 0.0, 1.0)
        assert abs(got - 0.8068528194400547) < 1e-15

    def test_same_law_is_zero(self):
        assert lj.kl_gaussians(0.7, 1.3, 0.7, 1.3) == 0.0

    def test_equal_sd_reduces_to_mean_term(self):
        got = lj.kl_gaussians(1.0, 0.5, 0.0, 0.5)
        assert abs(got - 1.0 / (2 * 0.25)) < 1e-15

    def test_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            lj.kl_gaussians(0.0, 1.0, 0.0, -1.0)


class TestL1SameVariance:
    def test_two_sd_separation(self):
        # 2 (1 - 2 Phi(-1))
        got = lj.l1_gaussians_same_var(0.0, 2.0, 1.0)
        assert abs(got - 1.3653789842741717) < 1e-15

    def test_matches_quadrature(self):
        got = lj.l1_gaussians_same_var(0.0, 0.7, 0.4)
        # the L1 distance is twice the TV
        quad = 2.0 * lj.tv_quadrature(lj.gaussian_density(0.0, 0.16),
                                      lj.gaussian_density(0.7, 0.16))[0]
        assert abs(got - quad) < 1e-9

    def test_zero_separation(self):
        assert lj.l1_gaussians_same_var(1.0, 1.0, 0.3) == 0.0


#: each two-Gaussian closed form with finite arguments it accepts
TWO_GAUSSIAN_FORMS = [(lj.tv_gaussians_bound, (0.0, 1.0, 0.5, 2.0)),
                      (lj.kl_gaussians, (0.0, 1.0, 0.5, 2.0)),
                      (lj.l1_gaussians_same_var, (0.0, 0.5, 1.0))]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form, at", [
    (form, at) for form, args in TWO_GAUSSIAN_FORMS
    for at in range(len(args))],
    ids=lambda v: getattr(v, "__name__", None))
def test_two_gaussian_forms_refuse_non_finite_input(form, at, bad):
    args = list(dict(TWO_GAUSSIAN_FORMS)[form])
    args[at] = bad
    with pytest.raises(ValueError, match="must be finite"):
        form(*args)


class TestL1GaussianProcesses:
    def test_sine_drift_distance(self):
        # amplitude sqrt(2 pi) makes D^2 = pi: 2 (1 - 2 Phi(-sqrt(pi)/2))
        got = lj.l1_gaussian_processes(
            lj.sine(0.0, math.sqrt(2 * math.pi), 2 * math.pi),
            lj.constant(0.0), lj.constant(1.0), 1.0)
        assert abs(got - 1.249009485580376) < 1e-12

    def test_constant_drifts_match_single_gaussian_formula(self):
        got = lj.l1_gaussian_processes(lj.constant(0.9), lj.constant(0.2),
                                       lj.constant(0.5), 1.0)
        want = lj.l1_gaussians_same_var(0.9, 0.2, 0.5)
        assert abs(got - want) < 1e-12

    def test_kinked_drift_with_breakpoint(self):
        # |t - 1/2| vs 0 with unit noise: D^2 = 1/12
        drift = lj.TimeFunction(lambda t: np.abs(np.asarray(t) - 0.5))
        got = lj.l1_gaussian_processes(drift, lj.constant(0.0),
                                       lj.constant(1.0), 1.0,
                                       breakpoints=(0.5,))
        d = math.sqrt(1.0 / 12.0)
        want = 2.0 * (1.0 - 2.0 * 0.5 * math.erfc(d / (2 * math.sqrt(2))))
        assert abs(got - want) < 1e-10

    def test_identical_drifts_give_zero(self):
        got = lj.l1_gaussian_processes(lj.constant(0.4), lj.constant(0.4),
                                       lj.constant(2.0), 3.0)
        assert got == 0.0


class TestHellingerProductBound:
    def test_single_entry(self):
        # sqrt(2 * 0.02)
        assert abs(lj.hellinger_product_tv_bound([0.02]) - 0.2) < 1e-15

    def test_hundred_small_entries_match_single_large(self):
        many = lj.hellinger_product_tv_bound(np.full(100, 2e-4))
        assert abs(many - 0.2) < 1e-15

    def test_rejects_invalid_entries(self):
        with pytest.raises(ValueError):
            lj.hellinger_product_tv_bound([])
        with pytest.raises(ValueError):
            lj.hellinger_product_tv_bound([-0.1])
        with pytest.raises(ValueError):
            lj.hellinger_product_tv_bound([1.5])
        with pytest.raises(ValueError):
            lj.hellinger_product_tv_bound([0.1, math.nan])

    def test_monotone_in_each_entry(self):
        lo = lj.hellinger_product_tv_bound([0.01, 0.02])
        hi = lj.hellinger_product_tv_bound([0.01, 0.05])
        assert hi > lo


class TestBernoulliAggregateBound:
    def test_per_increment_is_two_lambda_squared(self):
        s = summaries_from(np.zeros(3), np.ones(3), [0.1, 0.2, 0.0])
        rep = lj.bernoulli_aggregate_bound(s)
        np.testing.assert_allclose(rep.per_increment, [0.02, 0.08, 0.0],
                                   rtol=1e-15)
        assert rep.formula_name == "bernoulli_count"
        assert rep.warnings == ()

    def test_hundred_increments_aggregate(self):
        # 100 intervals at lam = 0.01: sqrt(2 * 100 * 2e-4) = 0.2
        s = summaries_from(np.zeros(100), np.ones(100), np.full(100, 0.01))
        rep = lj.bernoulli_aggregate_bound(s)
        assert abs(rep.aggregate - 0.2) < 1e-15

    def test_clamped_aggregate_caps_at_one(self):
        s = summaries_from(np.zeros(4), np.ones(4), np.full(4, 0.9))
        rep = lj.bernoulli_aggregate_bound(s)
        assert rep.aggregate > 1.0


class TestDiscreteKernelBound:
    # per-increment term (6/s) phi(1/(6s)) + 4 Phi(-1/(6s)), frozen
    FROZEN = {
        0.25: 8.676722282724146,
        0.1: 6.159789736656182,
        0.05: 0.18678972088772033,
        0.02: 9.978069828521065e-14,
        0.01: 1.1496253683460669e-58,
    }

    @pytest.mark.parametrize("sig", sorted(FROZEN))
    def test_per_increment_values(self, sig):
        s = summaries_from([0.0], [sig ** 2], [0.0])
        rep = lj.discrete_kernel_aggregate_bound(s)
        assert rep.per_increment[0] == pytest.approx(self.FROZEN[sig],
                                                     rel=1e-12)
        assert rep.formula_name == "fractional_part_filter"

    def test_no_warnings_in_good_regime(self):
        s = summaries_from([0.1, -0.2], [0.0025, 0.0025], [0.0, 0.0])
        rep = lj.discrete_kernel_aggregate_bound(s)
        assert rep.warnings == ()

    def test_large_drift_warning_names_first_index(self):
        s = summaries_from([0.0, 0.4], [0.0025, 0.0025], [0.0, 0.0])
        rep = lj.discrete_kernel_aggregate_bound(s)
        assert any("|m_i| > 1/3" in w and "index 1" in w
                   for w in rep.warnings)

    def test_vacuous_term_warning(self):
        s = summaries_from([0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        rep = lj.discrete_kernel_aggregate_bound(s)
        assert any("vacuous" in w and "index 0" in w for w in rep.warnings)

    def test_aggregate_shape(self):
        s = summaries_from(np.zeros(4), np.full(4, 0.0025), np.zeros(4))
        rep = lj.discrete_kernel_aggregate_bound(s)
        want = math.sqrt(2.0 * rep.per_increment.sum())
        assert abs(rep.aggregate - want) < 1e-15


class TestContinuousKernelBound:
    def test_uniform_jump_example(self):
        # beta = 0.1 + sqrt(0.01) = 0.2; jump mass on [-0.4, 0.4] is 0.04;
        # per increment = 8 Phi(-10) + 0 + 2 * 0.01 * 0.04
        s = summaries_from([0.0], [1e-4], [LAM_FOR_ALPHA_001])
        law = lj.uniform_jumps(-10.0, 10.0)
        rep = lj.continuous_kernel_aggregate_bound(s, L=0.1, epsilon=0.5,
                                                   jump_law=law)
        assert rep.per_increment[0] == pytest.approx(8.0e-4, rel=1e-10)
        assert rep.formula_name == "truncate_resample_filter"

    def test_resampling_term_alone(self):
        # jump mass near zero vanishes for far-away gaussian jumps:
        # the per-increment term collapses to 8 Phi(-sigma^-eps) = 8 Phi(-10)
        s = summaries_from([0.0], [1e-4], [LAM_FOR_ALPHA_001])
        law = lj.gaussian_jumps(7.5, 0.5)
        rep = lj.continuous_kernel_aggregate_bound(s, L=0.1, epsilon=0.5,
                                                   jump_law=law)
        assert rep.per_increment[0] == pytest.approx(6.095882419328474e-23,
                                                     rel=1e-9)

    def test_drift_term_scales_with_alpha_and_m(self):
        s = summaries_from([0.05], [1e-4], [LAM_FOR_ALPHA_001])
        law = lj.gaussian_jumps(7.5, 0.5)
        rep = lj.continuous_kernel_aggregate_bound(s, L=0.1, epsilon=0.5,
                                                   jump_law=law)
        want = 0.01 * 0.05 / (math.sqrt(2.0) * 0.01)
        assert rep.per_increment[0] == pytest.approx(want, rel=1e-9)

    def test_needs_continuous_jump_law(self):
        s = summaries_from([0.0], [1e-4], [0.01])
        with pytest.raises(TypeError, match="continuous"):
            lj.continuous_kernel_aggregate_bound(s, L=0.1, epsilon=0.5,
                                                 jump_law=lj.DiracJump(1.0))

    def test_drift_cap_enforced(self):
        s = summaries_from([0.2], [1e-4], [0.01])
        with pytest.raises(ValueError, match="drift cap"):
            lj.continuous_kernel_aggregate_bound(
                s, L=0.1, epsilon=0.5, jump_law=lj.uniform_jumps(-1.0, 1.0))

    def test_parameter_validation(self):
        s = summaries_from([0.0], [1e-4], [0.01])
        law = lj.uniform_jumps(-1.0, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            lj.continuous_kernel_aggregate_bound(s, L=0.1, epsilon=1.0,
                                                 jump_law=law)
        for bad_L in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="L must be"):
                lj.continuous_kernel_aggregate_bound(s, L=bad_L, epsilon=0.5,
                                                     jump_law=law)


class TestDriftDiscretization:
    def test_linear_drift_tenth_grid(self):
        # sum of 10 copies of int_0^0.1 (t - 0.1)^2 dt = 10 * 1e-3/3
        spec = lj.ModelSpec(drift=lj.linear(0.0, 1.0), sigma=lj.constant(1.0),
                            epsilon_n=1.0, intensity=lj.constant(0.0),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
        got = lj.drift_discretization_error(lj.linear(0.0, 1.0), spec,
                                            lj.Grid.uniform(1.0, 10))
        assert abs(got - 1.0 / 300.0) < 1e-12

    def test_noise_level_rescales_error(self):
        spec = lj.ModelSpec(drift=lj.linear(0.0, 1.0), sigma=lj.constant(1.0),
                            epsilon_n=0.5, intensity=lj.constant(0.0),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
        got = lj.drift_discretization_error(lj.linear(0.0, 1.0), spec,
                                            lj.Grid.uniform(1.0, 10))
        assert abs(got - 4.0 / 300.0) < 1e-12

    def test_constant_drift_has_no_error(self):
        spec = lj.ModelSpec(drift=lj.constant(0.3), sigma=lj.constant(1.0),
                            epsilon_n=1.0, intensity=lj.constant(0.0),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
        got = lj.drift_discretization_error(lj.constant(0.3), spec,
                                            lj.Grid.uniform(1.0, 5))
        assert got < 1e-15

    def test_error_shrinks_with_refinement(self):
        spec = lj.ModelSpec(drift=lj.sine(0.2, 0.1, 2 * math.pi),
                            sigma=lj.constant(1.0), epsilon_n=1.0,
                            intensity=lj.constant(0.0),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
        errs = [lj.drift_discretization_error(spec.drift, spec,
                                              lj.Grid.uniform(1.0, n))
                for n in (4, 16, 64)]
        assert errs[0] > errs[1] > errs[2]


class TestTheoremRate:
    HOLDER = lj.HolderClassParams(alpha=1.0)

    def test_lattice_sixteenth(self):
        got = lj.theorem_rate(1.0 / 16.0, 1.0, 1.0, self.HOLDER, "lattice")
        assert got == 0.25 + (1.0 / 16.0) ** 2 + 1.0 / 16.0

    def test_continuous_sixteenth(self):
        got = lj.theorem_rate(1.0 / 16.0, 1.0, 1.0, self.HOLDER,
                              "continuous")
        assert got == 0.5 + (1.0 / 16.0) ** 2 + 1.0 / 16.0

    def test_rough_drift_inflates_common_term(self):
        rough = lj.HolderClassParams(alpha=0.5)
        smooth = lj.theorem_rate(0.01, 1.0, 0.1, self.HOLDER, "lattice")
        kinky = lj.theorem_rate(0.01, 1.0, 0.1, rough, "lattice")
        assert kinky > smooth

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            lj.theorem_rate(0.0, 1.0, 1.0, self.HOLDER, "lattice")
        with pytest.raises(ValueError, match="jump_case"):
            lj.theorem_rate(0.1, 1.0, 1.0, self.HOLDER, "poisson")


class TestBoundReport:
    def test_aggregate_above_one_is_not_clamped(self):
        rep = lj.BoundReport(per_increment=np.array([1.0]), formula_name="x")
        assert rep.aggregate == math.sqrt(2.0)

    def test_per_increment_read_only(self):
        rep = lj.BoundReport(per_increment=np.array([0.5]), formula_name="x")
        with pytest.raises(ValueError):
            rep.per_increment[0] = 2.0

    def test_aggregate_is_derived_not_passed(self):
        with pytest.raises(TypeError, match="aggregate"):
            lj.BoundReport(per_increment=np.array([0.5]), aggregate=1.0,
                           formula_name="x")

    @given(per=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_is_root_of_twice_the_sum(self, per):
        rep = lj.BoundReport(per_increment=per, formula_name="x")
        assert rep.aggregate == math.sqrt(2.0 * float(np.sum(per)))

    def test_warnings_are_derived_not_passed(self):
        with pytest.raises(TypeError, match="warnings"):
            lj.BoundReport(per_increment=np.array([0.5]), formula_name="x",
                           warnings=("first",))

    def test_vacuous_warning_follows_the_callers_once(self):
        rep = lj.BoundReport(per_increment=[0.5, 1.0, 3.0], formula_name="x",
                             notes=("first", "second"))
        assert rep.warnings == (
            "first", "second", "2 increment(s) have a per-increment term "
            ">= 1 (first at index 1); the bound is vacuous there")

    def test_replace_keeps_each_warning_once(self):
        rep = lj.BoundReport(per_increment=[2.0], formula_name="x",
                             notes=("first",))
        copy = dataclasses.replace(rep, formula_name="y")
        assert copy.formula_name == "y"
        assert copy.warnings == rep.warnings and len(rep.warnings) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_of_huge_terms_is_inf_without_warning(self):
        rep = lj.BoundReport(per_increment=[1e308, 1e308], formula_name="x")
        assert rep.aggregate == math.inf
