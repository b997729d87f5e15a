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

    @pytest.mark.parametrize("sid", [0, 7, 2 ** 32 - 1, 2 ** 44])
    def test_int_ids_are_their_own_spawn_key(self, sid):
        ss = np.random.SeedSequence(5, spawn_key=(sid,))
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

    @given(seed=st.integers(0, 2 ** 64 - 1),
           words=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                          max_size=3),
           as_int=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_in_range_words_keep_their_draws(self, seed, words, as_int):
        # the root as numpy splits it, then each offset as two 32-bit words
        key = [words[0]]
        for k in words[1:]:
            key += [k % 2 ** 32, k // 2 ** 32]
        ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
        want = np.random.Generator(np.random.Philox(ss))
        sid = words[0] if as_int and len(words) == 1 else tuple(words)
        rng = lj.RngStream(seed, sid)
        assert rng.stream_id == tuple(words)
        assert draw(rng) == want.standard_normal(2).tobytes()

    @pytest.mark.parametrize("seed, sid", [
        (-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64),
        (1, (1, -2)), (1, (1, 2 ** 64)), (1, ()),
    ], ids=["seed-1", "seed-2^64", "root-1", "root-2^64", "offset-2",
            "offset-2^64", "no-root"])
    def test_words_outside_64_bits_are_rejected(self, seed, sid):
        # -1 would wrap onto 2^64 - 1, and 2^64 onto 0
        with pytest.raises(ValueError, match="offset"):
            lj.RngStream(seed, sid)

    def test_non_integer_seed_is_a_type_error(self):
        with pytest.raises(TypeError):
            lj.RngStream(1.5)

    def test_int_and_one_word_ids_are_equal(self):
        assert lj.RngStream(7, 3) == lj.RngStream(7, (3,))
        assert lj.RngStream(np.uint64(7), np.int64(3)) == lj.RngStream(7, 3)

    def test_offsets_outside_64_bits_are_rejected(self):
        for offset in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="offset"):
                lj.RngStream(0).child(offset)

    def test_child_is_deterministic(self):
        assert lj.RngStream(9, 3).child(5) == lj.RngStream(9, 3).child(5)

    @given(seed=st.integers(0, 2 ** 64 - 1),
           words=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                          max_size=3),
           offset=st.integers(0, 2 ** 64 - 1), as_numpy=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_child_is_the_constructed_stream(self, seed, words, offset,
                                             as_numpy):
        parent = lj.RngStream(seed, tuple(words))
        got = parent.child(np.uint64(offset) if as_numpy else offset)
        want = lj.RngStream(parent.seed, parent.stream_id + (offset,))
        assert (got.seed, got.stream_id) == (want.seed, want.stream_id)
        assert [type(w) for w in got.stream_id] == [int] * (len(words) + 1)
        assert (got.generator().standard_normal(8).tobytes()
                == want.generator().standard_normal(8).tobytes())

    @pytest.mark.parametrize("offset", [-1, 2 ** 64, 1.5, "3"])
    def test_child_refuses_what_the_constructor_refuses(self, offset):
        parent = lj.RngStream(9, (3, 2 ** 40))
        with pytest.raises(Exception) as want:
            lj.RngStream(parent.seed, parent.stream_id + (offset,))
        with pytest.raises(Exception) as got:
            parent.child(offset)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_numpy_integer_offsets_match_python_ints(self):
        for offset in (np.int64(3), np.intp(3), np.uint32(3)):
            child = lj.RngStream(0).child(offset)
            assert child == lj.RngStream(0).child(3)
            np.testing.assert_array_equal(
                child.generator().standard_normal(4),
                lj.RngStream(0).child(3).generator().standard_normal(4))


class TestPoissonThinning:
    """Jump times of ``sample_path``: candidates arrive at the declared
    ``intensity_max`` and are thinned to the intensity."""

    @staticmethod
    def jump_times(rng, intensity, lambda_max, horizon):
        spec = unit_spec(intensity=intensity, intensity_max=lambda_max,
                         horizon=horizon)
        grid = lj.Grid.uniform(horizon, 1)
        summ = lj.build_increment_summaries(spec, grid)
        return lj.sample_path(spec, grid, summ, rng).jump_times

    def test_mean_count_matches_integral(self):
        # int_0^1 (2 + sin(3t)) dt = 2 + (1 - cos 3) / 3
        want = 2.0 + (1.0 - math.cos(3.0)) / 3.0
        intensity = lj.sine(2.0, 1.0, 3.0)
        loops = 3000
        total = 0
        for k in range(loops):
            times = self.jump_times(lj.RngStream(100, k), intensity, 3.0, 1.0)
            total += times.size
        got = total / loops
        assert abs(got - want) < 4.0 * math.sqrt(want / loops)

    def test_times_sorted_within_horizon(self):
        times = self.jump_times(lj.RngStream(3), lj.constant(5.0), 5.0, 2.0)
        assert np.all(np.diff(times) >= 0)
        assert times.size == 0 or (times[0] > 0 and times[-1] <= 2.0)

    def test_zero_rate_gives_no_jumps(self):
        times = self.jump_times(lj.RngStream(3), lj.constant(0.0), 0.0, 1.0)
        assert times.size == 0

    def test_underestimated_dominating_rate_raises(self):
        # 3 + 3 sin(2 pi 32 t) is 3 at each of ModelSpec's 257 probes of
        # [0, 8] and up to 6 between them; of some 24 candidates, about
        # half find the excess
        intensity = lj.sine(3.0, 3.0, 2 * math.pi * 32)
        with pytest.raises(ValueError, match="exceeds the dominating rate 3"):
            self.jump_times(lj.RngStream(0), intensity, 3.000001, 8.0)

    def test_validation(self):
        # no spec hands thinning a negative rate or an empty horizon
        with pytest.raises(ValueError, match="intensity_max must be finite"):
            unit_spec(intensity_max=-1.0)
        with pytest.raises(ValueError, match="horizon must be positive"):
            unit_spec(horizon=0.0)


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

    @staticmethod
    def clipped_sums(times, jump_times, jump_sizes):
        """The binning as first written, clamping through ``np.clip``."""
        n = times.size - 1
        if jump_times.size == 0:
            return np.zeros(n)
        idx = np.searchsorted(times, jump_times, side="left") - 1
        idx = np.clip(idx, 0, n - 1)
        return np.bincount(idx, weights=jump_sizes, minlength=n)

    @given(data=st.data(), n=st.integers(1, 40),
           horizon=st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_clipped_binning_bitwise(self, data, n, horizon):
        times = lj.Grid.uniform(horizon, n).times
        # grid points (the left-open ownership edge), 0, past the horizon,
        # before 0, and anywhere between
        point = st.one_of(
            st.sampled_from(times.tolist()),
            st.just(0.0),
            st.floats(horizon, 2.0 * horizon, exclude_min=True),
            st.floats(-horizon, 0.0, exclude_max=True),
            st.floats(0.0, horizon))
        jump_times = np.array(data.draw(st.lists(point, max_size=30)),
                              dtype=float)
        jump_sizes = np.array(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=jump_times.size,
            max_size=jump_times.size)), dtype=float)
        got = lj.bin_jump_sums(times, jump_times, jump_sizes)
        want = self.clipped_sums(times, jump_times, jump_sizes)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


class TestFindIntensityBound:
    """``ModelSpec.intensity_bound``, the thinning sampler's dominating rate."""

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scan_value_names_its_time(self, bad):
        # 1/4096 is on the 4097-point scan but between the 257 probes
        spec = unit_spec(intensity=lj.TimeFunction(
            lambda t: np.where(np.asarray(t) == 1 / 4096, bad, 1.0)))
        why = rf"intensity\(0.000244141\) = {bad:g} is not a finite rate"
        with pytest.raises(ValueError, match=why):
            spec.intensity_bound
        grid = lj.Grid.uniform(1.0, 4)
        summ = lj.build_increment_summaries(spec, grid)
        with pytest.raises(ValueError, match=why):
            lj.sample_path(spec, grid, summ, lj.RngStream(0))


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

    def test_fields_are_read_only_views(self):
        spec = unit_spec(intensity=lj.constant(3.0))
        grid = lj.Grid.uniform(1.0, 8)
        summ = lj.build_increment_summaries(spec, grid)
        path = lj.sample_path(spec, grid, summ, lj.RngStream(6))
        for field in dataclasses.fields(path):
            assert not getattr(path, field.name).flags.writeable
        increments = np.zeros(2)
        mine = lj.PathSample(times=[0.0, 0.5, 1.0], increments=increments,
                             gaussian_parts=np.zeros(2),
                             jump_times=np.empty(0), jump_sizes=np.empty(0))
        assert increments.flags.writeable
        assert not mine.increments.flags.writeable

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
