"""Path simulation: reproducibility, draw-order contracts, and agreement
of the samplers with the laws they claim to follow.

Monte Carlo assertions use 4-sigma bands around exact moments, so a
correct implementation fails any single check with probability well
under 1e-4.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lecamjd as lj


def unit_spec(**overrides) -> lj.ModelSpec:
    base = dict(drift=lj.sine(0.2, 0.1, 2 * math.pi), sigma=lj.constant(1.0),
                epsilon_n=0.05, intensity=lj.constant(1.0),
                jump_law=lj.DiracJump(1.0), horizon=1.0)
    base.update(overrides)
    return lj.ModelSpec(**base)


def draw(rng: lj.RngStream) -> bytes:
    return rng.generator().standard_normal(2).tobytes()


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = lj.RngStream(42, 7).generator().standard_normal(5)
        b = lj.RngStream(42, 7).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_decorrelate(self):
        a = lj.RngStream(42, 0).generator().standard_normal(5)
        b = lj.RngStream(42, 1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_children_are_distinct(self):
        parent = lj.RngStream(9, 3)
        kids = [parent.child(k) for k in range(100)]
        assert [c.stream_id for c in kids] == [(3, k) for k in range(100)]
        draws = {draw(c) for c in kids + [parent, kids[7].child(0)]}
        assert len(draws) == 102

    @pytest.mark.parametrize("a, b", [
        # (stream_id << 20) ^ offset gave both 1 << 20
        ((1, 0, 1 << 20), (1, 1, 0)),
        # ... and both 0 once shifted past 64 bits
        ((1, 1 << 44, 0), (1, 0, None)),
        # numpy splits 2^44 into the words (0, 4096)
        ((1, 1 << 44, None), (1, 0, 4096)),
    ])
    def test_once_aliased_streams_draw_differently(self, a, b):
        def stream(seed, sid, offset):
            rng = lj.RngStream(seed, sid)
            return rng if offset is None else rng.child(offset)
        assert draw(stream(*a)) != draw(stream(*b))

    @pytest.mark.parametrize("sid", [0, 7, 2 ** 32 - 1, 2 ** 44, -1])
    def test_int_ids_are_their_own_spawn_key(self, sid):
        ss = np.random.SeedSequence(5, spawn_key=(sid & (2 ** 64 - 1),))
        gen = np.random.Generator(np.random.Philox(ss))
        assert draw(lj.RngStream(5, sid)) == gen.standard_normal(2).tobytes()

    @given(a=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3),
           b=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_distinct_paths_draw_differently(self, a, b):
        def stream(path):
            rng = lj.RngStream(1, path[0])
            for offset in path[1:]:
                rng = rng.child(offset)
            return rng
        assert (draw(stream(a)) == draw(stream(b))) == (a == b)

    def test_offsets_outside_64_bits_are_rejected(self):
        for offset in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="offset"):
                lj.RngStream(0).child(offset)

    def test_child_is_deterministic(self):
        assert lj.RngStream(9, 3).child(5) == lj.RngStream(9, 3).child(5)

    def test_numpy_integer_offsets_match_python_ints(self):
        for offset in (np.int64(3), np.intp(3), np.uint32(3)):
            child = lj.RngStream(0).child(offset)
            assert child == lj.RngStream(0).child(3)
            np.testing.assert_array_equal(
                child.generator().standard_normal(4),
                lj.RngStream(0).child(3).generator().standard_normal(4))


class TestPoissonThinning:
    def test_mean_count_matches_integral(self):
        # int_0^1 (2 + sin(3t)) dt = 2 + (1 - cos 3) / 3
        want = 2.0 + (1.0 - math.cos(3.0)) / 3.0
        intensity = lj.sine(2.0, 1.0, 3.0)
        loops = 3000
        total = 0
        for k in range(loops):
            times = lj.sample_inhomogeneous_poisson(intensity, 3.0, 1.0,
                                                    lj.RngStream(100, k))
            total += times.size
        got = total / loops
        assert abs(got - want) < 4.0 * math.sqrt(want / loops)

    def test_times_sorted_within_horizon(self):
        times = lj.sample_inhomogeneous_poisson(lj.constant(5.0), 5.0, 2.0,
                                                lj.RngStream(3))
        assert np.all(np.diff(times) >= 0)
        assert times.size == 0 or (times[0] > 0 and times[-1] <= 2.0)

    def test_zero_rate_gives_no_jumps(self):
        times = lj.sample_inhomogeneous_poisson(lj.constant(0.0), 0.0, 1.0,
                                                lj.RngStream(3))
        assert times.size == 0

    def test_underestimated_dominating_rate_raises(self):
        with pytest.raises(ValueError, match="dominating"):
            lj.sample_inhomogeneous_poisson(lj.constant(10.0), 2.0, 1.0,
                                            lj.RngStream(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            lj.sample_inhomogeneous_poisson(lj.constant(1.0), -1.0, 1.0,
                                            lj.RngStream(0))
        with pytest.raises(ValueError):
            lj.sample_inhomogeneous_poisson(lj.constant(1.0), 1.0, 0.0,
                                            lj.RngStream(0))


class TestBinJumpSums:
    def test_interval_ownership_is_left_open(self):
        times = np.array([0.0, 0.5, 1.0])
        got = lj.bin_jump_sums(times, np.array([0.25, 0.5, 1.0]),
                               np.array([1.0, 2.0, 4.0]))
        # a jump exactly at t_i belongs to (t_{i-1}, t_i]
        np.testing.assert_array_equal(got, [3.0, 4.0])

    def test_empty_jumps(self):
        got = lj.bin_jump_sums(np.array([0.0, 1.0]), np.empty(0), np.empty(0))
        np.testing.assert_array_equal(got, [0.0])


class TestFindIntensityBound:
    """``ModelSpec.intensity_bound``, the thinning samplers' dominating rate."""

    def test_declared_bound_wins(self):
        spec = unit_spec(intensity_max=7.0)
        assert spec.intensity_bound == 7.0

    def test_scan_covers_peak(self):
        spec = unit_spec(intensity=lj.sine(2.0, 1.0, 3.0))
        bound = spec.intensity_bound
        assert 3.0 <= bound <= 3.3

    def test_scan_runs_once_per_spec(self):
        rate = lj.sine(2.0, 1.0, 3.0)
        probes = []

        def spy(t):
            probes.append(np.size(t))
            return rate.fn(t)

        spec = unit_spec(intensity=dataclasses.replace(rate, fn=spy))
        grid = lj.Grid.uniform(1.0, 16)
        summaries = lj.build_increment_summaries(spec, grid)
        for rep in range(25):
            lj.sample_path(spec, grid, summaries, lj.RngStream(3, rep))
        assert probes.count(4097) == 1
        # the bound of the scan as it ran before it was cached
        peak = float(np.max(rate(np.linspace(0.0, 1.0, 4097))))
        assert spec.intensity_bound == max(peak, 0.0) * 1.05
        assert probes.count(4097) == 1


class TestSamplePath:
    def test_bitwise_reproducible(self):
        spec = unit_spec()
        grid = lj.Grid.uniform(1.0, 16)
        summ = lj.build_increment_summaries(spec, grid)
        a = lj.sample_path(spec, grid, summ, lj.RngStream(5, 2))
        b = lj.sample_path(spec, grid, summ, lj.RngStream(5, 2))
        for name in ("times", "increments", "gaussian_parts", "jump_times",
                     "jump_sizes"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_decomposition_identity(self):
        spec = unit_spec(intensity=lj.constant(3.0))
        grid = lj.Grid.uniform(1.0, 8)
        summ = lj.build_increment_summaries(spec, grid)
        path = lj.sample_path(spec, grid, summ, lj.RngStream(6))
        binned = lj.bin_jump_sums(path.times, path.jump_times,
                                  path.jump_sizes)
        np.testing.assert_array_equal(path.increments,
                                      path.gaussian_parts + binned)

    def test_terminal_value_mean(self):
        # E X_T = int f + int lam * E[jump] = 0.2 + 1.0
        spec = unit_spec()
        grid = lj.Grid.uniform(1.0, 4)
        summ = lj.build_increment_summaries(spec, grid)
        loops = 10_000
        vals = np.empty(loops)
        for k in range(loops):
            path = lj.sample_path(spec, grid, summ, lj.RngStream(200, k))
            vals[k] = spec.initial + path.increments.sum()
        want_mean = 1.2
        want_var = 0.05 ** 2 + 1.0
        assert abs(vals.mean() - want_mean) < 4 * math.sqrt(want_var / loops)
        assert abs(vals.var() - want_var) < 0.06

    def test_jump_fraction_per_interval(self):
        # P(interval sees a jump) = 1 - exp(-lam_i), lam_i = 0.125
        spec = unit_spec(intensity=lj.constant(0.5))
        grid = lj.Grid.uniform(1.0, 4)
        summ = lj.build_increment_summaries(spec, grid)
        loops = 2000
        hit = 0
        for k in range(loops):
            path = lj.sample_path(spec, grid, summ, lj.RngStream(300, k))
            counts = lj.bin_jump_sums(path.times, path.jump_times,
                                      np.ones_like(path.jump_sizes))
            hit += int(np.count_nonzero(counts))
        p = hit / (loops * 4)
        want = 1.0 - math.exp(-0.125)
        assert abs(p - want) < 4 * math.sqrt(want * (1 - want) / (loops * 4))

    def test_lattice_jump_sizes_follow_probs(self):
        law = lj.LatticeJumps(values=(-1, 2, 5), probs=(0.2, 0.5, 0.3))
        spec = unit_spec(intensity=lj.constant(4000.0), jump_law=law)
        grid = lj.Grid.uniform(1.0, 8)
        summ = lj.build_increment_summaries(spec, grid)
        path = lj.sample_path(spec, grid, summ, lj.RngStream(500))
        sizes = path.jump_sizes
        assert sizes.size > 3000
        assert set(np.unique(sizes)) <= {-1.0, 2.0, 5.0}
        for value, p in zip(law.values, law.probs):
            freq = np.count_nonzero(sizes == value) / sizes.size
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / sizes.size)

    def test_single_interval_ecf_matches_law(self):
        spec = unit_spec(drift=lj.constant(0.3), epsilon_n=0.4,
                         intensity=lj.constant(0.8))
        grid = lj.Grid.uniform(1.0, 1)
        summ = lj.build_increment_summaries(spec, grid)
        loops = 30_000
        inc = np.empty(loops)
        for k in range(loops):
            inc[k] = lj.sample_path(spec, grid, summ,
                                    lj.RngStream(400, k)).increments[0]
        us = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        ecf = np.exp(1j * np.outer(us, inc)).mean(axis=1)
        cf = lj.increment_cf(summ.interval(0), spec.jump_law, us)
        assert float(np.max(np.abs(ecf - cf))) < 5.0 / math.sqrt(loops)


class TestWhiteNoise:
    def test_standardized_increments_are_standard_normal(self):
        spec = unit_spec()
        grid = lj.Grid.uniform(1.0, 4096)
        summ = lj.build_increment_summaries(spec, grid)
        w = lj.sample_white_noise_increments(summ, lj.RngStream(12))
        z = (w - summ.m) / np.sqrt(summ.sigma2)
        assert abs(z.mean()) < 4.0 / math.sqrt(4096)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / 4096)
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_mean_structure_follows_drift(self):
        spec = unit_spec(drift=lj.linear(0.0, 2.0), epsilon_n=0.01)
        grid = lj.Grid.uniform(1.0, 8)
        summ = lj.build_increment_summaries(spec, grid)
        w = lj.sample_white_noise_increments(summ, lj.RngStream(13))
        # tiny noise: increments hug the drift integrals
        np.testing.assert_allclose(w, summ.m, atol=6 * 0.01)


class TestBernoulliApprox:
    def test_zero_intensity_equals_white_noise_bitwise(self):
        # with no jumps both samplers consume the same leading Gaussian
        # block of the stream, so the outputs are identical floats
        spec = unit_spec(intensity=lj.constant(0.0))
        grid = lj.Grid.uniform(1.0, 32)
        summ = lj.build_increment_summaries(spec, grid)
        rng = lj.RngStream(77, 1)
        a = lj.sample_bernoulli_approx(summ, spec.jump_law, rng)
        b = lj.sample_white_noise_increments(summ, rng)
        np.testing.assert_array_equal(a, b)

    def test_jump_frequency_matches_alpha(self):
        spec = unit_spec(drift=lj.constant(0.0), epsilon_n=0.01,
                         intensity=lj.constant(0.5),
                         jump_law=lj.DiracJump(50.0))
        grid = lj.Grid.uniform(1.0, 4)
        summ = lj.build_increment_summaries(spec, grid)
        loops = 2000
        hits = 0
        for k in range(loops):
            x = lj.sample_bernoulli_approx(summ, spec.jump_law,
                                           lj.RngStream(500, k))
            # a 50-sized jump is unmistakable at this noise level
            hits += int(np.count_nonzero(x > 25.0))
        p = hits / (loops * 4)
        want = float(summ.alpha[0])
        assert abs(p - want) < 4 * math.sqrt(want * (1 - want) / (loops * 4))


class TestSamplerDigests:
    """SHA-256 of the samplers' output bytes on fixed inputs.  The pins
    were taken when the samplers also took the spec and the grid, which
    they never read; the draws have not moved since."""

    GRID = lj.Grid.uniform(1.0, 64)

    def digest(self, x: np.ndarray) -> str:
        return hashlib.sha256(x.tobytes()).hexdigest()

    def test_white_noise_bytes(self):
        summ = lj.build_increment_summaries(unit_spec(), self.GRID)
        w = lj.sample_white_noise_increments(summ, lj.RngStream(5, 2))
        assert self.digest(w) == ("7e96a0b16755ed186ab859a26c439a1d"
                                  "3d50152b6b0318f0b2052d4e42a6cc12")

    def test_bernoulli_approx_bytes(self):
        spec = unit_spec(intensity=lj.constant(40.0),
                         jump_law=lj.gaussian_jumps(0.5, 0.25))
        summ = lj.build_increment_summaries(spec, self.GRID)
        x = lj.sample_bernoulli_approx(summ, spec.jump_law,
                                       lj.RngStream(5, 3))
        assert self.digest(x) == ("dd20536ec41b8f3222af901c57bea61a"
                                  "184a877829579b4ec10af58b99ab573e")

    def test_path_needs_one_summary_per_interval(self):
        spec = unit_spec()
        summ = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 1))
        with pytest.raises(ValueError, match="one summary per grid interval"):
            lj.sample_path(spec, self.GRID, summ, lj.RngStream(0))


class TestSampleIncrementBatch:
    def test_moments_match_compound_law(self):
        s = lj.IncrementSummaries(m=0.1, sigma2=0.04, lam=0.3)
        x = lj.sample_increment_batch(s, lj.DiracJump(1.0),
                                      lj.RngStream(21), 100_000)
        want_mean = 0.1 + 0.3
        want_var = 0.04 + 0.3
        assert abs(x.mean() - want_mean) < 4 * math.sqrt(want_var / x.size)
        assert abs(x.var() - want_var) < 0.02

    def test_size_validation(self):
        s = lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=0.0)
        with pytest.raises(ValueError):
            lj.sample_increment_batch(s, lj.DiracJump(1.0), lj.RngStream(0),
                                      0)

    def test_reproducible(self):
        s = lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=0.5)
        law = lj.gaussian_jumps(1.0, 0.2)
        a = lj.sample_increment_batch(s, law, lj.RngStream(8, 4), 64)
        b = lj.sample_increment_batch(s, law, lj.RngStream(8, 4), 64)
        np.testing.assert_array_equal(a, b)

    def test_takes_one_interval_only(self):
        s = lj.IncrementSummaries(m=[0.0, 0.1], sigma2=[1.0, 1.0],
                                  lam=[0.5, 0.5])
        with pytest.raises(ValueError, match="2 intervals"):
            lj.sample_increment_batch(s, lj.DiracJump(1.0),
                                      lj.RngStream(0), 8)
