"""Time functions, jump laws, grids, and per-interval summary integrals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import lecamjd as lj
from lecamjd.model import (TimeFunction, as_time_function, integral_of,
                           integral_of_square)

INV_E = math.exp(-1.0)


def make_spec(**overrides) -> lj.ModelSpec:
    base = dict(drift=lj.constant(0.5), sigma=lj.constant(1.0),
                epsilon_n=0.5, intensity=lj.constant(0.125),
                jump_law=lj.DiracJump(1.0), horizon=1.0)
    base.update(overrides)
    return lj.ModelSpec(**base)


class TestTimeFunctions:
    def test_constant_closed_forms(self):
        tf = lj.constant(0.5)
        assert tf(0.3) == 0.5
        assert integral_of(tf, 0.0, 1.0, name="f") == 0.5
        np.testing.assert_allclose(tf(np.array([0.0, 1.0])), [0.5, 0.5])

    def test_linear_integral_matches_quadrature(self):
        tf = lj.linear(0.2, -0.3)
        got = integral_of(tf, 0.1, 0.9, name="f")
        want = integrate.quad(lambda t: 0.2 - 0.3 * t, 0.1, 0.9)[0]
        assert abs(got - want) < 1e-12

    @given(p=st.floats(-2.0, 2.0), q=st.floats(-3.0, 3.0),
           a=st.floats(0.0, 1.0), width=st.floats(0.01, 1.0))
    def test_linear_square_integral_matches_quadrature(self, p, q, a, width):
        b = a + width
        got = lj.linear(p, q).square_integral(a, b)
        want = integrate.quad(lambda t: (p + q * t) ** 2, a, b)[0]
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    @given(a=st.floats(0.0, 2.0), width=st.floats(0.01, 2.0),
           offset=st.floats(-1.0, 1.0), amp=st.floats(-1.0, 1.0),
           w=st.floats(0.1, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_sine_antiderivative_matches_quadrature(self, a, width, offset,
                                                    amp, w):
        tf = lj.sine(offset, amp, w)
        b = a + width
        want = integrate.quad(lambda t: offset + amp * math.sin(w * t),
                              a, b, limit=200)[0]
        assert abs(integral_of(tf, a, b, name="f") - want) < 1e-10

    def test_sine_square_integral_matches_quadrature(self):
        tf = lj.sine(0.2, 0.1, 2.0 * math.pi, phase=0.7)
        got = tf.square_integral(0.05, 0.85)
        want = integrate.quad(
            lambda t: (0.2 + 0.1 * math.sin(2.0 * math.pi * t + 0.7)) ** 2,
            0.05, 0.85, limit=200)[0]
        assert abs(got - want) < 1e-12

    def test_from_callable_falls_back_to_quadrature(self):
        tf = as_time_function(lambda t: np.asarray(t) ** 2)
        assert tf.integral is None and tf.square_integral is None
        assert abs(integral_of(tf, 0.0, 1.0, name="f") - 1.0 / 3.0) < 1e-10

    def test_square_integral_falls_back_to_quadrature(self):
        tf = TimeFunction(lambda t: 0.2 - 0.3 * np.asarray(t))
        a, b = np.array([0.0, 0.1, 0.5]), np.array([1.0, 0.9, 0.75])
        got = integral_of_square(tf, a, b, name="f")
        want = lj.linear(0.2, -0.3).square_integral(a, b)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_as_time_function_accepts_scalars(self):
        tf = as_time_function(2.5)
        assert tf(0.9) == 2.5
        assert tf.integral is not None  # the closed form, not quadrature
        assert tf.integral(0.0, 2.0) == 5.0


class TestJumpLaws:
    def test_dirac_cf(self):
        law = lj.DiracJump(1.0)
        u = np.array([0.0, 1.0, -2.0])
        np.testing.assert_allclose(law.cf(u), np.exp(1j * u), rtol=1e-15)

    def test_dirac_sampler_is_constant(self):
        law = lj.DiracJump(-2.0)
        gen = lj.RngStream(3).generator()
        np.testing.assert_array_equal(law.sample(gen, 5), -2.0 * np.ones(5))

    def test_lattice_cf(self):
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.25, 0.75]))
        got = law.cf(np.array([0.7]))[0]
        want = 0.25 * np.exp(-0.7j) + 0.75 * np.exp(1.4j)
        assert abs(got - want) < 1e-15

    def test_lattice_rejects_non_integer_support(self):
        with pytest.raises(ValueError, match="integer"):
            lj.LatticeJumps(np.array([0.5]), np.array([1.0]))

    def test_lattice_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            lj.LatticeJumps(np.array([1.0, 2.0]), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            lj.LatticeJumps(np.array([1.0]), np.array([-1.0]))

    def test_uniform_jumps_mass(self):
        law = lj.uniform_jumps(0.0, 1.0)
        got = law.mass([-1.0, -0.1, 0.25, 0.5, 2.0, 0.75],
                       [-0.5, 0.5, 0.75, 0.5, 3.0, 0.25])
        assert got.tolist() == [0.0, 0.5, 0.5, 0.0, 0.0, 0.0]
        assert law.mass(0.0, 1.0) == law.mass(-math.inf, math.inf) == 1.0

    def test_gaussian_jumps_mass_normalization(self):
        law = lj.gaussian_jumps(7.5, 0.5)
        lo, hi = law.support
        assert lo < 7.5 - 5 * 0.5 and hi > 7.5 + 5 * 0.5
        assert law.mass(lo, hi) == law.mass(-math.inf, math.inf) == 1.0
        assert law.mass(7.5, math.inf) == law.mass(-math.inf, 7.5) == 0.5
        assert law.mass(9.0, 8.0) == 0.0
        # both tails keep their relative accuracy: Phi(-20), and
        # Phi(-15) - Phi(-16), both from mpmath
        for got, want in ((law.mass(17.5, math.inf), 2.7536241186062337e-89),
                          (law.mass(-math.inf, -2.5), 2.7536241186062337e-89),
                          (law.mass(15.0, 15.5), 3.670965560437311e-51),
                          (law.mass(-0.5, 0.0), 3.670965560437311e-51)):
            assert abs(got - want) <= 1e-12 * want

    def test_uniform_jumps_needs_proper_interval(self):
        with pytest.raises(ValueError):
            lj.uniform_jumps(1.0, 1.0)

    def test_unknown_continuous_kind_is_refused(self):
        with pytest.raises(ValueError, match="'cauchy'"):
            lj.ContinuousJumps("cauchy", 0.0, 1.0)

    @pytest.mark.parametrize("make, a, b", [(lj.uniform_jumps, 1.0, 2.0),
                                            (lj.gaussian_jumps, 7.5, 0.5)])
    def test_building_a_law_integrates_nothing(self, monkeypatch, make, a,
                                               b):
        def refuse(*args, **kwargs):
            raise AssertionError("a jump law was integrated")
        monkeypatch.setattr(lj.model, "integrate", refuse)
        monkeypatch.setattr(lj._quadrature, "integrate", refuse)
        law = make(a, b)
        assert law == lj.ContinuousJumps(law.kind, a, b)


def quad_mass(law, lo, hi):
    """QUADPACK's integral of the law's density over ``[lo, hi]``, in the
    offset ``t = y - a`` from its lower end or mean (so nodes near a far
    mean keep their resolution), split at the support's ends or at every
    sd within 40 of the mean."""
    a, b = law.a, law.b
    if law.kind == "uniform":
        width = b - a
        points, top = [0.0, width], math.inf

        def pdf(t):
            return 1.0 / width if 0.0 <= t <= width else 0.0
    else:
        # past 40 sds the density is below 1e-347: 0 in floats
        points, top = [k * b for k in range(-40, 41)], 40.0 * b

        def pdf(t):
            return math.exp(-0.5 * (t / b) ** 2) / (
                b * math.sqrt(2.0 * math.pi))
    t_lo, t_hi = max(lo - a, -top), min(hi - a, top)
    edges = [t_lo] + [t for t in points if t_lo < t < t_hi] + [t_hi]
    return sum(integrate.quad(pdf, u, v, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
               for u, v in zip(edges, edges[1:]) if u < v)


#: window ends, in sds from a Gaussian's mean or in widths from a uniform
#: law's lower end: both tails, past 12 sds and the whole line
WINDOW_ENDS = st.one_of(st.floats(-45.0, 45.0),
                        st.sampled_from([-math.inf, math.inf, -12.5, 12.5,
                                         0.0, 1.0]))


@given(kind=st.sampled_from(["uniform", "gaussian"]),
       a=st.floats(-50.0, 50.0), b=st.floats(1e-3, 20.0),
       ends=st.lists(WINDOW_ENDS, min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_mass_is_the_integral_of_the_density(kind, a, b, ends):
    law = (lj.uniform_jumps(a, a + b) if kind == "uniform"
           else lj.gaussian_jumps(a, b))
    lo, hi = (law.a + z * (law.b - law.a if kind == "uniform" else law.b)
              for z in sorted(ends))
    got = law.mass(lo, hi)
    want = quad_mass(law, lo, hi)
    assert abs(got - want) <= max(1e-15, 1e-12 * want)
    if (lo, hi) == (-math.inf, math.inf):
        assert got == 1.0


def parent_hooks(kind, a, b):
    """Cf, sampler and k-fold law as the closures
    ``uniform_jumps`` and ``gaussian_jumps`` built before a continuous law
    became data: the reference for its bits."""
    if kind == "uniform":
        lo, hi = a, b
        width = hi - lo

        def cf(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = ((np.exp(1j * u * hi) - np.exp(1j * u * lo))
                        / (1j * u * width))
            return np.where(u == 0, 1.0 + 0.0j, vals)

        return (cf, lambda gen, size: gen.uniform(lo, hi, size),
                lambda k: ("irwin-hall", k * lo, k * hi))
    mu, s = a, b
    return (lambda u: np.exp(1j * np.asarray(u, dtype=float) * mu
                             - 0.5 * np.asarray(u, dtype=float) ** 2 * s * s),
            lambda gen, size: gen.normal(mu, s, size),
            lambda k: ("gaussian", k * mu, k * s * s))


def parent_table(summaries, kfold_law, weights):
    """The k-fold table as the parent's builder assembled it from a
    ``kfold_law``: each row's live terms in k order, padded with
    ``(0, 1, 0)``, and an Irwin-Hall sum of k jumps in box column k - 1."""
    m, s2 = summaries.m, summaries.sigma2
    rows = [[] for _ in range(m.size)]
    box = {}
    for k, wk in enumerate(weights.T):
        live = wk > 1e-300
        if not live.any():
            continue
        kind, a, b = ("gaussian", 0.0, 0.0) if k == 0 else kfold_law(k)
        if kind == "irwin-hall":
            box = box or {name: np.zeros((m.size, weights.shape[1] - 1))
                          for name in ("box_weight", "box_lo", "box_hi")}
            box["box_weight"][:, k - 1] = np.where(live, wk * (k / (b - a)),
                                                   0.0)
            box["box_lo"][:, k - 1], box["box_hi"][:, k - 1] = m + a, m + b
            continue
        means, sds = (m, np.sqrt(s2)) if k == 0 else (m + a,
                                                      np.sqrt(s2 + b))
        for i in np.flatnonzero(live):
            rows[i].append((means[i], sds[i], wk[i] * 1.0))
    width = max(map(len, rows))
    fields = np.array([row + [(0.0, 1.0, 0.0)] * (width - len(row))
                       for row in rows]).transpose(2, 0, 1)
    box = dict(box, box_sd=np.sqrt(s2)) if box else {}
    return lj.MixtureTable(*fields, size=np.array([len(r) for r in rows]),
                           **box)


#: three intervals: one with no jump mass, whose row is padded
THREE_INTERVALS = lj.IncrementSummaries(m=[0.0, 0.7, -1.3],
                                        sigma2=[0.01, 0.04, 0.2],
                                        lam=[0.3, 0.0, 1.5])


@given(case=st.one_of(
    st.tuples(st.just("uniform"), st.floats(-50.0, 50.0),
              st.floats(1e-3, 50.0)).map(
        lambda t: (t[0], t[1], t[1] + t[2])),
    st.tuples(st.just("gaussian"), st.floats(-50.0, 50.0),
              st.floats(1e-3, 20.0))))
@settings(max_examples=60, deadline=None)
def test_closed_form_law_keeps_the_parent_bits(case):
    kind, a, b = case
    law = (lj.uniform_jumps if kind == "uniform" else lj.gaussian_jumps)(a, b)
    cf, sampler, kfold_law = parent_hooks(kind, a, b)
    u = np.array([-11.0, -2.0, -0.3, 0.0, 1e-9, 0.5, 3.0, 40.0])
    assert law.cf(u).tobytes() == cf(u).tobytes()
    assert [complex(law.cf(v)) for v in u] == [complex(cf(v)) for v in u]
    draws = law.sample(lj.RngStream(11).generator(), 8)
    assert draws.tobytes() == sampler(lj.RngStream(11).generator(),
                                      8).tobytes()
    alpha = THREE_INTERVALS.alpha
    for build, weights in (
            (lj.increment_density_exact,
             lj.laws._poisson_weights(THREE_INTERVALS.lam)),
            (lj.bernoulli_density, np.stack((1.0 - alpha, alpha), axis=1))):
        got = build(THREE_INTERVALS, law).table
        want = parent_table(THREE_INTERVALS, kfold_law, weights)
        for f in dataclasses.fields(lj.MixtureTable):
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert (g.shape, g.dtype) == (w.shape, w.dtype), f.name
            assert np.ascontiguousarray(g).tobytes() == \
                np.ascontiguousarray(w).tobytes(), f.name


class TestGrid:
    def test_uniform_grid_layout(self):
        g = lj.Grid.uniform(2.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.n == 4
        assert g.horizon == 2.0
        assert g.mesh == 0.5
        np.testing.assert_allclose(g.deltas, 0.5)

    def test_grid_must_start_at_zero_and_increase(self):
        with pytest.raises(ValueError, match="t_0 = 0"):
            lj.Grid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            lj.Grid(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            lj.Grid(np.array([0.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                lj.Grid(np.array([0.0, bad, 1.0]))
            with pytest.raises(ValueError, match="must be finite"):
                lj.Grid(np.array([0.0, 0.5, bad]))

    def test_uniform_interval_count_is_an_integer(self):
        assert (lj.Grid.uniform(1.0, np.int64(4)).times.tobytes()
                == lj.Grid.uniform(1.0, 4).times.tobytes())
        with pytest.raises(TypeError):
            lj.Grid.uniform(1.0, 2.9)  # int() would give 2 intervals
        with pytest.raises(ValueError, match=r"\(got n=0\)"):
            lj.Grid.uniform(1.0, 0)

    def test_grid_times_are_read_only(self):
        g = lj.Grid.uniform(1.0, 2)
        with pytest.raises(ValueError):
            g.times[0] = 3.0

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 1025),
                                       np.array([0.0, 0.1, 0.35, 0.4, 1.3])])
    def test_deltas_are_diff_computed_once_and_read_only(self, times):
        g = lj.Grid(times)
        assert g.deltas.tobytes() == np.diff(times).tobytes()
        assert g.deltas is g.deltas
        assert g.mesh == float(np.max(np.diff(times)))
        with pytest.raises(ValueError, match="read-only"):
            g.deltas[0] = 3.0


class TestModelSpecValidation:
    def test_positive_epsilon_and_horizon(self):
        with pytest.raises(ValueError, match="epsilon_n"):
            make_spec(epsilon_n=0.0)
        with pytest.raises(ValueError, match="horizon"):
            make_spec(horizon=-1.0)

    def test_sigma_must_stay_positive(self):
        # linear volatility crossing zero at t = 0.5
        with pytest.raises(ValueError, match="sigma must be positive"):
            make_spec(sigma=lj.linear(1.0, -2.0))

    def test_intensity_must_stay_nonnegative(self):
        with pytest.raises(ValueError, match="intensity"):
            make_spec(intensity=lj.linear(0.1, -1.0))

    @pytest.mark.parametrize("cap", [0.5, 0.0])
    def test_intensity_max_below_the_intensity_is_refused(self, cap):
        # thinning below the rate would drop jumps silently; at 0 it would
        # draw none
        with pytest.raises(ValueError, match=f"intensity_max {cap:g} is "
                                             "below the intensity's peak 30"):
            make_spec(intensity=lj.constant(30.0), intensity_max=cap)
        make_spec(intensity=lj.constant(30.0), intensity_max=30.0)
        make_spec(intensity=lj.constant(0.0), intensity_max=0.0)

    def test_jump_law_type_checked(self):
        with pytest.raises(TypeError):
            make_spec(jump_law=1.0)

    def test_scalar_coefficients_are_coerced(self):
        spec = lj.ModelSpec(drift=0.5, sigma=1.0, epsilon_n=0.5,
                            intensity=0.125, jump_law=lj.DiracJump(1.0),
                            horizon=1.0)
        assert isinstance(spec.drift, lj.TimeFunction)
        assert spec.sigma_n(0.3) == 0.5


class TestIncrementSummaries:
    def test_constant_spec_single_interval(self):
        spec = make_spec()
        s = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 1))
        assert abs(s.m[0] - 0.5) < 1e-14
        assert abs(s.sigma2[0] - 0.25) < 1e-14
        assert abs(s.lam[0] - 0.125) < 1e-14
        # alpha = lam * exp(-lam)
        assert abs(s.alpha[0] - 0.11031211282307443) < 1e-15

    def test_summaries_add_over_refinement(self):
        spec = make_spec(drift=lj.sine(0.2, 0.1, 2 * math.pi),
                         sigma=lj.linear(1.0, 0.5),
                         intensity=lj.sine(0.5, 0.3, 3.0))
        fine = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 8))
        coarse = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 4))
        np.testing.assert_allclose(fine.m.reshape(4, 2).sum(axis=1),
                                   coarse.m, atol=1e-12)
        np.testing.assert_allclose(fine.sigma2.reshape(4, 2).sum(axis=1),
                                   coarse.sigma2, atol=1e-12)
        np.testing.assert_allclose(fine.lam.reshape(4, 2).sum(axis=1),
                                   coarse.lam, atol=1e-12)

    def test_tiny_linear_slope_keeps_its_variance(self):
        # (v^3 - u^3) / (3q) cancelled to 0.0 at this slope
        grid = lj.Grid.uniform(1.0, 2)
        s = lj.build_increment_summaries(
            make_spec(sigma=lj.linear(1.0, 2.28e-197)), grid)
        np.testing.assert_allclose(s.sigma2, 0.25 * grid.deltas * 1.0 ** 2,
                                   rtol=1e-15, atol=0.0)

    def test_sine_drift_interval_means(self):
        # m_i = (cos(2 pi t_{i-1}) - cos(2 pi t_i)) / (2 pi) for f = sin(2 pi t)
        spec = make_spec(drift=lj.sine(0.0, 1.0, 2 * math.pi))
        s = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 10))
        for i in (0, 3, 9):
            a, b = i / 10.0, (i + 1) / 10.0
            want = (math.cos(2 * math.pi * a)
                    - math.cos(2 * math.pi * b)) / (2 * math.pi)
            assert abs(s.m[i] - want) < 1e-12

    def test_interval_accessor_roundtrip(self):
        spec = make_spec()
        s = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 4))
        one = s.interval(2)
        assert one.n == 1
        assert one.m[0] == s.m[2]
        assert one.sigma2[0] == s.sigma2[2]
        assert one.lam[0] == s.lam[2]
        assert one.alpha[0] == s.alpha[2]
        assert np.sqrt(one.sigma2) == math.sqrt(s.sigma2[2])

    @given(lam=st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_scalars_are_one_interval_with_math_exp_alpha(self, lam):
        s = lj.IncrementSummaries(m=0.5, sigma2=0.25, lam=lam)
        assert s.n == 1
        assert s.alpha.tolist() == [lam * math.exp(-lam)]
        assert s.scalars() == (0.5, 0.25, lam)

    def test_negative_lam_without_alpha_is_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=-800.0)

    def test_alpha_is_derived_and_read_only(self):
        with pytest.raises(TypeError, match="alpha"):
            lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=0.5, alpha=0.3)
        s = lj.IncrementSummaries(m=0.0, sigma2=1.0, lam=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.alpha = np.array([0.3])
        with pytest.raises(ValueError, match="read-only"):
            s.alpha[0] = 0.3
        assert s.alpha.tolist() == [0.5 * math.exp(-0.5)]

    def test_sigma_is_sqrt_sigma2_and_read_only(self):
        s = lj.IncrementSummaries(m=np.zeros(3), sigma2=[0.3, 2.0, 1e-9],
                                  lam=np.zeros(3))
        assert s.sigma.tobytes() == np.sqrt(s.sigma2).tobytes()
        assert s.sigma is s.sigma
        with pytest.raises(ValueError, match="read-only"):
            s.sigma[0] = 1.0

    @given(rate=st.floats(0.01, 50.0), slope=st.floats(-0.9, 0.9),
           n=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_one_jump_weight_is_the_exact_k1_weight(self, rate, slope, n):
        # alpha_i of the one-jump law and the k = 1 Poisson term of the
        # exact law are one formula, bit for bit; a Dirac law puts the
        # k = 1 term in column 1 of both tables
        spec = make_spec(intensity=lj.linear(rate, rate * slope))
        s = lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, n))
        law = lj.DiracJump(1.0)
        exact = lj.increment_density_exact(s, law).table
        bern = lj.bernoulli_density(s, law).table
        assert np.array_equal(bern.weights[:, 1], exact.weights[:, 1])
        assert np.array_equal(bern.weights[:, 1], s.alpha)

    def test_grid_beyond_horizon_rejected(self):
        spec = make_spec(horizon=0.5)
        with pytest.raises(ValueError, match="horizon"):
            lj.build_increment_summaries(spec, lj.Grid.uniform(1.0, 2))

    @given(lam=st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_alpha_never_exceeds_inverse_e(self, lam):
        assert lam * math.exp(-lam) <= INV_E + 1e-15


class TestPiecewiseDrift:
    def test_right_endpoint_values(self):
        grid = lj.Grid(np.array([0.0, 0.5, 1.0]))
        fbar = lj.piecewise_drift(lambda t: np.asarray(t, dtype=float), grid)
        # value on [t_{i-1}, t_i) is f(t_i); the terminal time keeps f(T)
        assert fbar(0.0) == 0.5
        assert fbar(0.25) == 0.5
        assert fbar(0.5) == 1.0
        assert fbar(0.75) == 1.0
        assert fbar(1.0) == 1.0

    def test_vectorized_evaluation(self):
        grid = lj.Grid.uniform(1.0, 4)
        fbar = lj.piecewise_drift(lj.linear(0.0, 2.0), grid)
        got = fbar(np.array([0.1, 0.3, 0.99, 1.0]))
        np.testing.assert_allclose(got, [0.5, 1.0, 2.0, 2.0])

    def test_constant_function_unchanged(self):
        grid = lj.Grid.uniform(1.0, 7)
        fbar = lj.piecewise_drift(lj.constant(0.3), grid)
        ts = np.linspace(0.0, 1.0, 23)
        np.testing.assert_allclose(fbar(ts), 0.3)


class TestSigmaLogDerivative:
    def test_constant_volatility_passes(self):
        grid = lj.Grid.uniform(1.0, 16)
        assert lj.check_sigma_log_derivative(lj.constant(1.0), 0.0, grid)

    def test_exponential_volatility_threshold(self):
        # d/dt log exp(2t) = 2 exactly
        grid = lj.Grid.uniform(1.0, 16)
        sigma = TimeFunction(lambda t: np.exp(2.0 * np.asarray(t)))
        assert lj.check_sigma_log_derivative(sigma, 2.1, grid)
        assert not lj.check_sigma_log_derivative(sigma, 1.9, grid)

    def test_mild_sine_modulation_passes(self):
        # |sigma'/sigma| <= 0.1 / 0.9 < 0.12
        grid = lj.Grid.uniform(1.0, 16)
        sigma = lj.sine(1.0, 0.1, 1.0)
        assert lj.check_sigma_log_derivative(sigma, 0.12, grid)


class TestHolderClassParams:
    def test_valid_construction(self):
        h = lj.HolderClassParams(alpha=0.5)
        assert h.alpha == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0),
        dict(alpha=1.5),
        dict(alpha=math.nan),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            lj.HolderClassParams(**kwargs)
