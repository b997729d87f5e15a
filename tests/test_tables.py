"""Mixture tables: many laws as rows of one table, against one-law
densities, and the convergence sweep they drive, pinned."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj
from lecamjd.laws import MixtureTable

#: criterion 6's continuous spec and its oracle_product_bound, as the sweep
#: gave it with one density and one pushforward per interval
CONTINUOUS_SPEC = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                               sigma=lj.constant(1.0), epsilon_n=0.2,
                               intensity=lj.constant(0.5),
                               jump_law=lj.gaussian_jumps(7.5, 0.5),
                               horizon=1.0)
PINNED_CONTINUOUS = {
    4: 0.6528839526638636,
    8: 0.5657162868765995,
    16: 0.4816935048811246,
    32: 0.40660069149810857,
    64: 0.34190533419516567,
    128: 0.2870996492832016,
    256: 0.24100477017640698,
}

LAWS = {
    "dirac": lj.DiracJump(1.0),
    "dirac2": lj.DiracJump(-2.0),
    "lattice": lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.25, 0.75])),
    "gaussian": lj.gaussian_jumps(2.0, 0.5),
}


@st.composite
def grids(draw, max_rows=5):
    """Random summaries of a few intervals and a jump law with tables."""
    n = draw(st.integers(1, max_rows))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n,  # noqa
                                     max_size=n)
    lam = np.array(draw(floats(0.0, 2.0)))
    summaries = lj.IncrementSummaries(
        m=draw(floats(-2.0, 2.0)), sigma2=draw(floats(1e-3, 1.0)), lam=lam,
        alpha=lam * np.exp(-lam))
    return summaries, LAWS[draw(st.sampled_from(sorted(LAWS)))]


def params(sigma2, L=0.5, epsilon=0.5):
    return lj.TruncateResampleParams(L=L, epsilon=epsilon,
                                     sigma_i=np.sqrt(sigma2))


def test_sweep_is_pinned():
    rows = lj.run_convergence(CONTINUOUS_SPEC, list(PINNED_CONTINUOUS),
                              "continuous")
    assert {r.n: r.oracle_product_bound for r in rows} == PINNED_CONTINUOUS


@given(grid=grids(), x=st.lists(st.floats(-6.0, 8.0), min_size=1,
                                max_size=30))
@settings(max_examples=60, deadline=None)
def test_table_rows_equal_one_law_densities_bitwise(grid, x):
    summaries, law = grid
    x = np.array(x + [-0.5, 0.5])
    approx = lj.bernoulli_density(summaries, law)
    target = lj.gaussian_density(summaries.m, summaries.sigma2)
    for r in range(summaries.n):
        s = summaries.interval(r)
        one = lj.bernoulli_density(s, law)
        for many, alone in ((approx, one),
                            (target, lj.gaussian_density(s.m, s.sigma2)),
                            (lj.fold_density_to_lattice_cell(approx),
                             lj.fold_density_to_lattice_cell(one))):
            assert np.array_equal(many.pdf(x, r), alone.pdf(x))
            lo, hi, pts = many.structure()
            assert (lo[r], hi[r]) == alone.support
            row = pts[r][~np.isnan(pts[r])]
            assert sorted(set(row)) == list(alone.breakpoints)


@given(grid=grids(), L=st.floats(0.0, 1.0), epsilon=st.floats(0.1, 0.9))
@settings(max_examples=30, deadline=None)
def test_batched_pushforwards_and_tvs_equal_one_law_calls(grid, L, epsilon):
    summaries, law = grid
    approx = lj.bernoulli_density(summaries, law)
    target = lj.gaussian_density(summaries.m, summaries.sigma2)
    pushed = lj.truncate_resample_pushforward(
        approx, params(summaries.sigma2, L, epsilon))
    folded = (lj.fold_density_to_lattice_cell(approx),
              lj.fold_density_to_lattice_cell(target))
    many = lj.tv_quadrature_many([(pushed, target), folded])
    mass, one = [], []
    for r in range(summaries.n):
        s = summaries.interval(r)
        alone = lj.bernoulli_density(s, law)
        p = lj.truncate_resample_pushforward(
            alone, lj.TruncateResampleParams(L, epsilon, s.sigma))
        mass.append(p.table.mass[0])
        one.append(lj.tv_quadrature(p, lj.gaussian_density(s.m, s.sigma2)))
    for r in range(summaries.n):
        s = summaries.interval(r)
        one.append(lj.tv_quadrature(
            lj.fold_density_to_lattice_cell(lj.bernoulli_density(s, law)),
            lj.fold_density_to_lattice_cell(lj.gaussian_density(s.m,
                                                                s.sigma2))))
    np.testing.assert_allclose(pushed.table.mass, mass, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(many, one, rtol=0.0, atol=1e-15)


@given(k=st.integers(65, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_windowed_mixtures_match_dense_evaluation(k, seed):
    gen = np.random.default_rng(seed)
    table = MixtureTable(gen.uniform(-5.0, 5.0, k),
                         np.exp(gen.uniform(np.log(1e-3), 0.0, k)),
                         gen.uniform(0.0, 1.0, k) / k)
    x = np.concatenate((gen.uniform(-8.0, 8.0, 400),
                        table.means[0, :50]))
    rows = np.zeros(x.size, dtype=np.intp)
    windowed = table.values(x, rows)
    dense = table._dense(x, rows, k)
    assert np.all(np.abs(windowed - dense) <= 1e-14 * dense)


def test_paired_densities_need_the_same_rows():
    summaries = lj.IncrementSummaries(m=[0.0, 0.1], sigma2=[1.0, 1.0],
                                      lam=[0.0, 0.0], alpha=[0.0, 0.0])
    with pytest.raises(ValueError, match="same rows"):
        lj.tv_quadrature_many([(lj.gaussian_density(summaries.m,
                                                    summaries.sigma2),
                                lj.gaussian_density(0.0, 1.0))])


def test_laws_without_tables_go_one_interval_at_a_time():
    # uniform jumps convolve to a closed-form pdf piece, not a mixture
    law = lj.uniform_jumps(-1.0, 1.0)
    summaries = lj.IncrementSummaries(m=[0.0], sigma2=[0.01], lam=[0.2],
                                      alpha=[0.2 * np.exp(-0.2)])
    assert not lj.laws.has_mixture_rows(law)
    with pytest.raises(ValueError, match="not a Gaussian mixture"):
        lj.bernoulli_density(summaries, law)
