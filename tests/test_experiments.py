"""Convergence sweeps and the paired risk-transfer experiment."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lecamjd as lj
from lecamjd import experiments
from lecamjd.experiments import DEFAULT_EPSILON, DEFAULT_L

LATTICE_SPEC = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                            sigma=lj.constant(1.0), epsilon_n=1.0,
                            intensity=lj.constant(0.5),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
CONTINUOUS_SPEC = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                               sigma=lj.constant(1.0), epsilon_n=0.2,
                               intensity=lj.constant(0.5),
                               jump_law=lj.gaussian_jumps(7.5, 0.5),
                               horizon=1.0)
UNIFORM_SPEC = dataclasses.replace(CONTINUOUS_SPEC,
                                   jump_law=lj.uniform_jumps(1.0, 2.0))
#: every interval has its own (lambda_i, sigma_i^2)
DISTINCT_SPEC = dataclasses.replace(CONTINUOUS_SPEC,
                                    sigma=lj.linear(1.0, 0.5),
                                    intensity=lj.sine(0.5, 0.3, 3.0))


def synthetic_rows(ns, column_fn):
    rows = []
    for n in ns:
        d = 1.0 / n
        rows.append(lj.ConvergenceRow(n=n, delta_n=d, aggregate_bound=1.0,
                                      oracle_product_bound=1.0,
                                      rate_prediction=column_fn(d)))
    return rows


class TestFitRateSlope:
    def test_recovers_exact_power_law(self):
        rows = synthetic_rows([16, 32, 64, 128], lambda d: d ** 0.5)
        got = lj.fit_rate_slope(rows, "rate_prediction")
        assert abs(got - 0.5) < 1e-12

    def test_theorem_rate_slope_over_dyadic_sweep(self):
        # slope of sqrt(d) + d^2 + d on n = 64 .. 4096, frozen from an
        # independent polyfit of the same closed form
        holder = lj.HolderClassParams(alpha=1.0)
        rows = synthetic_rows(
            [64, 128, 256, 512, 1024, 2048, 4096],
            lambda d: lj.theorem_rate(d, 1.0, 1.0, holder, "lattice"))
        got = lj.fit_rate_slope(rows, "rate_prediction")
        assert got == pytest.approx(0.5241657958888885, rel=1e-9)
        assert 0.45 < got < 0.55

    def test_needs_four_rows(self):
        rows = synthetic_rows([16, 32, 64], lambda d: d)
        with pytest.raises(ValueError, match="4 rows"):
            lj.fit_rate_slope(rows, "rate_prediction")

    def test_rejects_nonpositive_values(self):
        rows = synthetic_rows([16, 32, 64, 128], lambda d: d - 1.0 / 16.0)
        with pytest.raises(ValueError, match="positive"):
            lj.fit_rate_slope(rows, "rate_prediction")

    def test_rejects_nan_values(self):
        rows = synthetic_rows([16, 32, 64, 128],
                              lambda d: math.nan if d == 1.0 / 32 else d)
        with pytest.raises(ValueError, match="positive"):
            lj.fit_rate_slope(rows, "rate_prediction")


class TestRunConvergence:
    def test_lattice_sweep_shapes_and_monotonicity(self):
        ns = [16, 32, 64, 128, 256]
        rows = lj.run_convergence(LATTICE_SPEC, ns, "lattice")
        assert [r.n for r in rows] == ns
        for r in rows:
            assert r.delta_n == 1.0 / r.n
            assert 0.0 <= r.oracle_product_bound <= r.aggregate_bound + 1e-8
        # the clamped aggregate may sit at 1.0 for coarse grids, so it is
        # only non-increasing here; the oracle is strictly decreasing
        aggs = [r.aggregate_bound for r in rows]
        assert all(b >= s for b, s in zip(aggs, aggs[1:]))
        oracles = [r.oracle_product_bound for r in rows]
        assert all(b > s for b, s in zip(oracles, oracles[1:]))

    def test_grid_sizes_are_integers(self):
        # int() would give a row for n = 4
        with pytest.raises(TypeError):
            lj.run_convergence(LATTICE_SPEC, [4.7], "lattice")
        rows = lj.run_convergence(LATTICE_SPEC, [np.int64(4)], "lattice")
        assert rows == lj.run_convergence(LATTICE_SPEC, [4], "lattice")

    def test_rate_prediction_matches_theorem_rate(self):
        holder = lj.HolderClassParams(alpha=0.5)
        rows = lj.run_convergence(LATTICE_SPEC, [16, 32], "lattice",
                                  holder=holder)
        for r in rows:
            want = lj.theorem_rate(r.delta_n, 1.0, 1.0, holder, "lattice")
            assert r.rate_prediction == want

    def test_zero_intensity_oracle_is_exactly_zero(self):
        spec = lj.ModelSpec(drift=lj.constant(0.2), sigma=lj.constant(1.0),
                            epsilon_n=0.5, intensity=lj.constant(0.0),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
        rows = lj.run_convergence(spec, [4, 8], "lattice")
        for r in rows:
            assert r.oracle_product_bound == 0.0

    def test_continuous_case_runs_and_dominates_oracle(self):
        rows = lj.run_convergence(CONTINUOUS_SPEC, [16, 32], "continuous")
        for r in rows:
            assert r.oracle_product_bound <= r.aggregate_bound + 1e-8

    @pytest.mark.parametrize("spec, case", [
        (LATTICE_SPEC, "lattice"), (CONTINUOUS_SPEC, "continuous"),
        (UNIFORM_SPEC, "continuous"), (DISTINCT_SPEC, "continuous")],
        ids=["lattice", "continuous", "uniform", "distinct"])
    def test_batched_oracle_matches_per_interval_loop(self, spec, case):
        # criterion 6's specs, uniform jumps, and intervals with distinct
        # (lambda_i, sigma_i^2): the sweep's batches per grid give the
        # product bound of one tv_quadrature call per interval
        ns = [4, 8, 16]
        rows = lj.run_convergence(spec, ns, case)
        for n, row in zip(ns, rows):
            summaries = lj.build_increment_summaries(
                spec, lj.Grid.uniform(spec.horizon, n))
            per_tv = []
            for i in range(n):
                s_i = summaries.interval(i)
                centered = lj.IncrementSummaries(m=0.0, sigma2=s_i.sigma2,
                                                 lam=s_i.lam)
                (bern,) = lj.tv_quadrature(
                    lj.increment_density_exact(centered, spec.jump_law),
                    lj.bernoulli_density(centered, spec.jump_law))
                approx = lj.bernoulli_density(s_i, spec.jump_law)
                target = lj.gaussian_density(s_i.m, s_i.sigma2)
                if case == "lattice":
                    (kernel,) = lj.tv_quadrature(
                        lj.fold_density_to_lattice_cell(approx),
                        lj.fold_density_to_lattice_cell(target))
                else:
                    params = lj.TruncateResampleParams(
                        L=DEFAULT_L, epsilon=DEFAULT_EPSILON,
                        sigma_i=np.sqrt(s_i.sigma2))
                    (kernel,) = lj.tv_quadrature(
                        lj.truncate_resample_pushforward(approx, params),
                        target)
                per_tv.append(min(1.0, bern + kernel))
            want = lj.hellinger_product_tv_bound(np.array(per_tv))
            assert row.n == n
            assert abs(row.oracle_product_bound - want) <= 1e-12

    def test_n_values_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            lj.run_convergence(LATTICE_SPEC, [16, 16], "lattice")
        with pytest.raises(ValueError):
            lj.run_convergence(LATTICE_SPEC, [], "lattice")

    def test_jump_case_must_match_law(self):
        with pytest.raises(ValueError, match="integer-lattice"):
            lj.run_convergence(
                lj.ModelSpec(drift=lj.constant(0.0), sigma=lj.constant(1.0),
                             epsilon_n=0.2, intensity=lj.constant(0.5),
                             jump_law=lj.gaussian_jumps(0.0, 1.0),
                             horizon=1.0),
                [16, 32], "lattice")
        with pytest.raises(ValueError, match="a continuous jump law"):
            lj.run_convergence(LATTICE_SPEC, [16, 32], "continuous")
        with pytest.raises(ValueError, match="jump_case"):
            lj.run_convergence(LATTICE_SPEC, [16, 32], "poisson")


class TestDefaultDriftEstimator:
    def test_constant_rate_is_reproduced_exactly(self):
        grid = lj.Grid.uniform(1.0, 27)
        inc = np.full(27, 0.3 / 27)
        got = lj.default_drift_estimator(inc, grid)
        np.testing.assert_allclose(got, 0.3, rtol=1e-12)

    def test_window_grows_like_cube_root(self):
        # an impulse at index 0 spreads over ceil(1024^(1/3)) = 11 cells,
        # i.e. to distance 5 on each side of the window center
        grid = lj.Grid.uniform(1.0, 1024)
        inc = np.zeros(1024)
        inc[0] = 1.0
        got = lj.default_drift_estimator(inc, grid)
        assert np.all(got[:6] > 0)
        assert np.all(got[6:] == 0)

    def test_length_validation(self):
        grid = lj.Grid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="one increment"):
            lj.default_drift_estimator(np.ones(5), grid)

    @pytest.mark.parametrize("window", [1, 2, 5, 16])
    def test_cached_window_constants_are_read_only(self, window):
        # the estimator shares these arrays across calls, so a write
        # through any of them would change every later estimate
        arrays = experiments._window_constants(window)
        assert arrays is experiments._window_constants(window)
        assert [a.size for a in arrays] == [window, window // 2,
                                            (window - 1) // 2]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


class TestRunRiskTransfer:
    SPEC = lj.ModelSpec(drift=lj.sine(0.2, 0.1, 2 * math.pi),
                        sigma=lj.constant(1.0), epsilon_n=0.05,
                        intensity=lj.constant(1.0),
                        jump_law=lj.DiracJump(1.0), horizon=1.0)

    def test_replication_and_law_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            lj.run_risk_transfer(self.SPEC, lj.default_drift_estimator,
                                 [16], 0, lj.RngStream(0))
        for n_values in ([], [16, 16], [32, 16]):
            with pytest.raises(ValueError,
                               match="grid sizes must be non-empty and "
                                     "strictly increasing"):
                lj.run_risk_transfer(self.SPEC, lj.default_drift_estimator,
                                     n_values, 4, lj.RngStream(0))
        cont = lj.ModelSpec(drift=lj.constant(0.2), sigma=lj.constant(1.0),
                            epsilon_n=0.05, intensity=lj.constant(1.0),
                            jump_law=lj.uniform_jumps(0.0, 1.0), horizon=1.0)
        with pytest.raises(ValueError, match="integer-lattice jumps"):
            lj.run_risk_transfer(cont, lj.default_drift_estimator, [16], 4,
                                 lj.RngStream(0))

    def test_row_bookkeeping(self):
        rows = lj.run_risk_transfer(self.SPEC, lj.default_drift_estimator,
                                    [16, 32], 5, lj.RngStream(1))
        assert [r.n for r in rows] == [16, 32]
        assert all(r.replications == 5 for r in rows)
        assert all(r.mise_direct_gaussian > 0 for r in rows)

    def test_no_jumps_filter_changes_nothing(self):
        # without jumps the observed increments stay inside (-1/2, 1/2),
        # the filter is the identity there, and the transferred and naive
        # estimators see the same floats
        spec = lj.ModelSpec(drift=lj.constant(0.2), sigma=lj.constant(1.0),
                            epsilon_n=0.05, intensity=lj.constant(0.0),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
        rows = lj.run_risk_transfer(spec, lj.default_drift_estimator, [32],
                                    8, lj.RngStream(2))
        assert rows[0].mise_transferred == rows[0].mise_naive_on_jumps

    def test_transfer_tracks_direct_risk(self):
        rows = lj.run_risk_transfer(self.SPEC, lj.default_drift_estimator,
                                    [1024], 120, lj.RngStream(7))
        r = rows[0]
        rel = abs(r.mise_transferred
                  - r.mise_direct_gaussian) / r.mise_direct_gaussian
        assert rel < 0.25
        assert r.mise_naive_on_jumps > 4.0 * r.mise_direct_gaussian

    def test_risk_decreases_with_n_when_noise_shrinks(self):
        # couple epsilon_n = n^(-1/2) so the per-interval noise variance
        # stays 1/n^2 and the window averaging wins with n
        mises = []
        for n in (64, 256, 1024):
            spec = lj.ModelSpec(drift=lj.sine(0.2, 0.1, 2 * math.pi),
                                sigma=lj.constant(1.0),
                                epsilon_n=1.0 / math.sqrt(n),
                                intensity=lj.constant(1.0),
                                jump_law=lj.DiracJump(1.0), horizon=1.0)
            rows = lj.run_risk_transfer(spec, lj.default_drift_estimator,
                                        [n], 40, lj.RngStream(11))
            mises.append(rows[0].mise_direct_gaussian)
        assert mises[0] > mises[1] > mises[2]

    #: (direct, transferred, naive) at criterion 7's spec, the one the
    #: risk-mc benchmark runs, with 250 replications on stream (7, i)
    PINNED = {256: (0.09217859004786082, 0.09082513306396618,
                    36.07609676518253),
              1024: (0.2329354202836634, 0.23441413068024047,
                     94.6511262277083),
              4096: (0.6380758638092195, 0.6404427746082816,
                     252.6330271703769)}

    @pytest.mark.parametrize("i, n", enumerate(PINNED))
    def test_benchmark_risks_are_pinned(self, i, n):
        (row,) = lj.run_risk_transfer(self.SPEC, lj.default_drift_estimator,
                                      [n], 250, lj.RngStream(7, i))
        assert row.n == n and row.replications == 250
        assert (row.mise_direct_gaussian, row.mise_transferred,
                row.mise_naive_on_jumps) == self.PINNED[n]


def two_convolution_estimate(increments, grid):
    """The drift estimator as first written: the edge renormalization is a
    second convolution, of ones, with the same window."""
    n = grid.n
    kernel = np.ones(max(1, math.ceil(n ** (1.0 / 3.0))))
    return (np.convolve(increments / np.diff(grid.times), kernel, "same")
            / np.convolve(np.ones(n), kernel, "same"))


@given(n=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1),
       horizon=st.floats(0.01, 100.0), scale=st.floats(1e-6, 1e3))
@example(n=1, seed=0, horizon=1.0, scale=1.0)
@example(n=2, seed=0, horizon=1.0, scale=1.0)
@example(n=27, seed=0, horizon=1.0, scale=1.0)  # 27 ** (1/3) > 3
@example(n=4096, seed=0, horizon=1.0, scale=1.0)
@settings(max_examples=150, deadline=None)
def test_drift_estimator_equals_two_convolutions_bitwise(n, seed, horizon,
                                                         scale):
    grid = lj.Grid.uniform(horizon, n)
    increments = scale * np.random.default_rng(seed).standard_normal(n)
    got = lj.default_drift_estimator(increments, grid)
    assert got.tobytes() == two_convolution_estimate(increments,
                                                     grid).tobytes()
