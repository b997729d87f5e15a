"""Mixture tables: many laws as rows of one table, against one-law
densities, and the convergence sweep they drive, pinned."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj
from lecamjd._gauss import std_pdf
from lecamjd.laws import MixtureTable

#: criterion 6's continuous spec and its oracle_product_bound, with every
#: oracle sum in a fixed order
CONTINUOUS_SPEC = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                               sigma=lj.constant(1.0), epsilon_n=0.2,
                               intensity=lj.constant(0.5),
                               jump_law=lj.gaussian_jumps(7.5, 0.5),
                               horizon=1.0)
PINNED_CONTINUOUS = {
    4: 0.6528839526638637,
    8: 0.5657162868765996,
    16: 0.48169350488112456,
    32: 0.40660069149810857,
    64: 0.3419053341951657,
    128: 0.28709964928320164,
    256: 0.24100477017640695,
}
#: the same spec with uniform jumps on [1, 2]
UNIFORM_SPEC = dataclasses.replace(CONTINUOUS_SPEC,
                                   jump_law=lj.uniform_jumps(1.0, 2.0))
PINNED_UNIFORM = {
    4: 0.652884053173014,
    8: 0.5657162868793577,
    16: 0.48169350488110224,
    32: 0.406600691498779,
    64: 0.341905334196278,
    128: 0.2870996492847696,
    256: 0.2410047701777604,
}

LAWS = {
    "dirac": lj.DiracJump(1.0),
    "dirac2": lj.DiracJump(-2.0),
    "lattice": lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.25, 0.75])),
    "gaussian": lj.gaussian_jumps(2.0, 0.5),
    "uniform": lj.uniform_jumps(1.0, 2.5),
    # no closed form: a grid convolution per distinct variance
    "custom": lj.ContinuousJumps(
        density=lambda y: np.where((y >= 0.0) & (y <= 1.0), 2.0 * y, 0.0),
        support=(0.0, 1.0)),
}
#: laws whose one-jump rows fold (bare Gaussian mixtures); the custom
#: law's rows fold too, but into some 28,000 components, seconds per TV
FOLDING = {"dirac", "dirac2", "lattice", "gaussian"}


@st.composite
def grids(draw, max_rows=5):
    """Random summaries of a few intervals and a jump law."""
    n = draw(st.integers(1, max_rows))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n,  # noqa
                                     max_size=n)
    summaries = lj.IncrementSummaries(
        m=draw(floats(-2.0, 2.0)), sigma2=draw(floats(1e-3, 1.0)),
        lam=draw(floats(0.0, 2.0)))
    return summaries, draw(st.sampled_from(sorted(LAWS)))


def params(sigma2, L=0.5, epsilon=0.5):
    return lj.TruncateResampleParams(L=L, epsilon=epsilon,
                                     sigma_i=np.sqrt(sigma2))


def test_sweep_is_pinned():
    rows = lj.run_convergence(CONTINUOUS_SPEC, list(PINNED_CONTINUOUS),
                              "continuous")
    assert {r.n: r.oracle_product_bound for r in rows} == PINNED_CONTINUOUS


def test_uniform_sweep_is_pinned():
    rows = lj.run_convergence(UNIFORM_SPEC, list(PINNED_UNIFORM),
                              "continuous")
    assert {r.n: r.oracle_product_bound for r in rows} == PINNED_UNIFORM


@given(grid=grids(), x=st.lists(st.floats(-6.0, 8.0), min_size=1,
                                max_size=30))
@settings(max_examples=60, deadline=None)
def test_table_rows_equal_one_law_densities_bitwise(grid, x):
    summaries, name = grid
    law = LAWS[name]
    x = np.array(x + [-0.5, 0.5])

    def laws(s):
        one = lj.bernoulli_density(s, law)
        folded = lj.fold_density_to_lattice_cell
        return [one, lj.gaussian_density(s.m, s.sigma2),
                lj.increment_density_exact(s, law)] + (
                    [folded(one)] if name in FOLDING else [])

    def breakpoints(pts):
        return sorted(set(pts[~np.isnan(pts)].tolist()))

    tables = laws(summaries)
    structures = [many.structure() for many in tables]
    for r in range(summaries.n):
        for many, (lo, hi, pts), alone in zip(
                tables, structures, laws(summaries.interval(r)),
                strict=True):
            assert np.array_equal(many.pdf(x, r), alone.pdf(x))
            (one_lo,), (one_hi,), one_pts = alone.structure()
            assert (lo[r], hi[r]) == (one_lo, one_hi)
            assert breakpoints(pts[r]) == breakpoints(one_pts[0])
            t, one = many.table, alone.table
            k = t.size[r]
            assert k == one.size[0]
            for field in ("means", "sds", "weights"):
                assert np.array_equal(getattr(t, field)[r, :k],
                                      getattr(one, field)[0, :k])
            assert t.boxed[r] == one.boxed[0]
            if t.boxed[r]:
                for field in ("box_weight", "box_lo", "box_hi", "box_sd"):
                    assert getattr(t, field)[r] == getattr(one, field)[0]


@given(grid=grids(), L=st.floats(0.0, 1.0), epsilon=st.floats(0.1, 0.9))
@settings(max_examples=30, deadline=None)
def test_batched_pushforwards_and_tvs_equal_one_law_calls(grid, L, epsilon):
    summaries, name = grid
    law = LAWS[name]
    approx = lj.bernoulli_density(summaries, law)
    target = lj.gaussian_density(summaries.m, summaries.sigma2)
    pushed = lj.truncate_resample_pushforward(
        approx, params(summaries.sigma2, L, epsilon))
    pairs = [(pushed, target)]
    if name in FOLDING:
        pairs.append((lj.fold_density_to_lattice_cell(approx),
                      lj.fold_density_to_lattice_cell(target)))
    many = lj.tv_quadrature_many(pairs)
    mass, one = [], []
    for r in range(summaries.n):
        s = summaries.interval(r)
        alone = lj.bernoulli_density(s, law)
        p = lj.truncate_resample_pushforward(
            alone, lj.TruncateResampleParams(L, epsilon, np.sqrt(s.sigma2)))
        mass.append(p.table.mass[0])
        one.append(lj.tv_quadrature(p, lj.gaussian_density(s.m, s.sigma2)))
    for r in range(summaries.n if name in FOLDING else 0):
        s = summaries.interval(r)
        one.append(lj.tv_quadrature(
            lj.fold_density_to_lattice_cell(lj.bernoulli_density(s, law)),
            lj.fold_density_to_lattice_cell(lj.gaussian_density(s.m,
                                                                s.sigma2))))
    np.testing.assert_array_equal(pushed.table.mass, mass)
    np.testing.assert_array_equal(many, one)


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
    m, sd, w = table.means[0], table.sds[0], table.weights[0]
    dense = ((w / sd) * std_pdf((x[:, None] - m) / sd)).sum(axis=1)
    assert np.all(np.abs(windowed - dense) <= 1e-14 * dense)


@given(tables=st.integers(1, 8), k=st.integers(65, 300),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_wide_rows_are_a_pure_function_of_x(tables, k, seed):
    # narrow peaks spread wide: a block of points shares a window of
    # components, yet each point's value is its own
    gen = np.random.default_rng(seed)
    table = MixtureTable.concat(
        MixtureTable(gen.uniform(-50.0, 50.0, k),
                     gen.uniform(1e-3, 0.05, k), gen.uniform(0.0, 1.0, k) / k)
        for _ in range(tables))
    x = gen.uniform(-55.0, 55.0, 300 * tables)
    rows = np.repeat(np.arange(tables), 300)
    batch = table.values(x, rows)
    assert [table.pdf(v, r) for v, r in zip(x, rows)] == batch.tolist()


def test_points_past_every_component_read_zero():
    # a block of points whose window holds no component
    table = MixtureTable(np.linspace(0.0, 1.0, 100), 0.01, 0.01)
    for x in ([-5.0, -4.0], [9.0, 10.0], [-5.0]):
        np.testing.assert_array_equal(table.pdf(np.array(x)), 0.0)


@pytest.mark.parametrize("build", [lj.bernoulli_density,
                                   lj.increment_density_exact])
def test_grid_convolution_samples_once_per_variance(build):
    calls = []

    def density(y):
        calls.append(y.size)
        return np.where((y >= 0.0) & (y <= 1.0), 2.0 * y, 0.0)

    law = lj.ContinuousJumps(density=density, support=(0.0, 1.0))
    summaries = lj.IncrementSummaries(m=[0.0, 1.0, -1.0],
                                      sigma2=[0.01, 0.01, 0.04],
                                      lam=[0.3, 0.5, 0.4])
    calls.clear()  # the law samples its density when it is made
    d = build(summaries, law)
    assert len(calls) == 2
    for r in range(summaries.n):
        alone = build(summaries.interval(r), law).table
        k = alone.size[0]
        assert d.table.size[r] == k
        assert np.array_equal(d.table.means[r, :k], alone.means[0])


@given(sizes=st.permutations([st.integers(1, 7), st.integers(8, 64),
                               st.integers(65, 150)]).flatmap(
           lambda order: st.tuples(*order)),
       seed=st.integers(0, 2 ** 32 - 1),
       x=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_mixed_width_rows_equal_their_one_row_tables_bitwise(sizes, seed, x):
    # narrow, dense and windowed rows in one table: padding and the other
    # rows change no bit of a row, at one point or at many
    gen = np.random.default_rng(seed)
    alone = [MixtureTable(gen.uniform(-3.0, 3.0, k),
                          np.exp(gen.uniform(np.log(0.05), 0.0, k)),
                          gen.uniform(0.0, 1.0, k) / k) for k in sizes]
    mixed = MixtureTable.concat(alone)
    x = np.array(x)
    rows = np.repeat(np.arange(len(alone)), x.size)
    batch = mixed.values(np.tile(x, len(alone)), rows)
    for r, one in enumerate(alone):
        want = one.values(x, np.zeros(x.size, dtype=np.intp))
        assert np.array_equal(batch[rows == r], want)
        assert [mixed.pdf(v, r) for v in x] == [one.pdf(v) for v in x]


def test_paired_densities_need_the_same_rows():
    summaries = lj.IncrementSummaries(m=[0.0, 0.1], sigma2=[1.0, 1.0],
                                      lam=[0.0, 0.0])
    with pytest.raises(ValueError, match="same rows"):
        lj.tv_quadrature_many([(lj.gaussian_density(summaries.m,
                                                    summaries.sigma2),
                                lj.gaussian_density(0.0, 1.0))])


def test_uniform_grids_give_one_table():
    # the one-jump law of every interval is a row: a Gaussian plus a box
    law = lj.uniform_jumps(-1.0, 1.0)
    summaries = lj.IncrementSummaries(m=[0.0, 0.3, -1.0],
                                      sigma2=[0.01, 0.02, 0.04],
                                      lam=[0.2, 0.0, 0.5])
    d = lj.bernoulli_density(summaries, law)
    assert d.rows == 3
    np.testing.assert_array_equal(d.table.boxed, [True, False, True])
    np.testing.assert_array_equal(d.table.box_lo[[0, 2]], [-1.0, -2.0])
    np.testing.assert_array_equal(d.table.box_hi[[0, 2]], [1.0, 0.0])
    np.testing.assert_array_equal(d.table.box_weight,
                                  [summaries.alpha[0] / 2.0, 0.0,
                                   summaries.alpha[2] / 2.0])


TABLE_FIELDS = [f.name for f in dataclasses.fields(MixtureTable) if f.init]


def test_every_table_field_is_read_only():
    # full arrays of the right dtype take the view path, scalars and lists
    # the broadcast path; both must give the same read-only bytes and
    # leave the caller's arrays writable
    full = {"means": np.array([[0.0, 1.0], [2.0, 3.0]]),
            "sds": np.ones((2, 2)), "weights": np.full((2, 2), 0.5),
            "size": np.array([2, 1], dtype=np.intp),
            "beta": np.array([np.inf, 1.5]), "mass": np.zeros(2),
            "resample_sd": np.array([0.0, 0.3]),
            "fold": np.array([False, True]), "box_weight": np.zeros(2),
            "box_lo": np.zeros(2), "box_hi": np.zeros(2),
            "box_sd": np.ones(2)}
    assert sorted(full) == sorted(TABLE_FIELDS)
    loose = {name: value.tolist() for name, value in full.items()}
    loose.update(sds=1.0, mass=0.0, box_sd=1.0)
    tables = [MixtureTable(**full), MixtureTable(**loose),
              MixtureTable(means=[0.0, 1.0], sds=1.0, weights=0.5),
              lj.bernoulli_density(
                  lj.IncrementSummaries(m=[0.0, 0.1], sigma2=[1.0, 0.5],
                                        lam=[0.2, 0.4]),
                  LAWS["uniform"]).table]
    for table in tables:
        for name in TABLE_FIELDS:
            value = getattr(table, name)
            assert not value.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                value[...] = value
    for name in TABLE_FIELDS:
        assert (getattr(tables[0], name).tobytes()
                == getattr(tables[1], name).tobytes()), name
        assert full[name].flags.writeable, name


@pytest.mark.parametrize("mean, sd", [(np.inf, 1.0), (-np.inf, 1.0),
                                      (np.nan, 1.0), (0.0, np.inf),
                                      (0.0, 0.0), (0.0, -1.0)])
def test_components_need_a_finite_mean_and_a_finite_positive_sd(mean, sd):
    # such a row used to get only NaN panel edges, so the oracle integrated
    # nothing and read its TV and mass as 0 (or 1) without an error
    with pytest.raises(ValueError, match="finite"):
        MixtureTable([[0.0, mean]], [[1.0, sd]], [[0.5, 0.5]])
