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
from lecamjd.oracle import integrate_rows

#: criterion 6's continuous spec and its oracle_product_bound, with every
#: oracle sum in a fixed order and the escaped masses in closed form
CONTINUOUS_SPEC = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                               sigma=lj.constant(1.0), epsilon_n=0.2,
                               intensity=lj.constant(0.5),
                               jump_law=lj.gaussian_jumps(7.5, 0.5),
                               horizon=1.0)
PINNED_CONTINUOUS = {
    4: 0.6528839526638637,
    8: 0.5657162868765993,
    16: 0.48169350488112456,
    32: 0.40660069149810857,
    64: 0.34190533419516567,
    128: 0.2870996492832016,
    256: 0.24100477017640703,
}
#: the same spec with uniform jumps on [1, 2], every k-jump sum a
#: smoothed Irwin-Hall term
UNIFORM_SPEC = dataclasses.replace(CONTINUOUS_SPEC,
                                   jump_law=lj.uniform_jumps(1.0, 2.0))
PINNED_UNIFORM = {
    4: 0.6528840531730141,
    8: 0.5657162868793578,
    16: 0.48169350488110185,
    32: 0.40660069149871797,
    64: 0.34190533419627883,
    128: 0.2870996492843898,
    256: 0.24100477017732821,
}
#: criterion 6's lattice spec: unit Dirac jumps, filtered by folding
LATTICE_SPEC = dataclasses.replace(CONTINUOUS_SPEC, epsilon_n=1.0,
                                   jump_law=lj.DiracJump(1.0))
PINNED_LATTICE = {
    4: 0.2344459430666786,
    8: 0.1727401412992552,
    16: 0.12370245741058766,
    32: 0.08792948611771322,
    64: 0.062337504065916684,
    128: 0.04413667611905153,
    256: 0.03122966074256331,
}

LAWS = {
    "dirac": lj.DiracJump(1.0),
    "dirac2": lj.DiracJump(-2.0),
    "lattice": lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.25, 0.75])),
    "gaussian": lj.gaussian_jumps(2.0, 0.5),
    "uniform": lj.uniform_jumps(1.0, 2.5),
}
#: laws whose one-jump rows fold (bare Gaussian mixtures); a uniform row
#: holds an Irwin-Hall term, which folding refuses
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


def test_lattice_sweep_is_pinned():
    rows = lj.run_convergence(LATTICE_SPEC, list(PINNED_LATTICE), "lattice")
    assert {r.n: r.oracle_product_bound for r in rows} == PINNED_LATTICE


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
                # the row's Irwin-Hall columns, then zero-weight padding
                terms = one.box_weight.shape[1]
                for field in ("box_weight", "box_lo", "box_hi"):
                    assert np.array_equal(getattr(t, field)[r, :terms],
                                          getattr(one, field)[0])
                assert not t.box_weight[r, terms:].any()
                assert t.box_sd[r] == one.box_sd[0]


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
    many = np.concatenate([lj.tv_quadrature(p, q) for p, q in pairs])
    mass, one = [], []
    for r in range(summaries.n):
        s = summaries.interval(r)
        alone = lj.bernoulli_density(s, law)
        p = lj.truncate_resample_pushforward(
            alone, lj.TruncateResampleParams(L, epsilon, np.sqrt(s.sigma2)))
        mass.append(p.table.mass[0])
        one.append(lj.tv_quadrature(p, lj.gaussian_density(s.m,
                                                           s.sigma2))[0])
    for r in range(summaries.n if name in FOLDING else 0):
        s = summaries.interval(r)
        one.append(lj.tv_quadrature(
            lj.fold_density_to_lattice_cell(lj.bernoulli_density(s, law)),
            lj.fold_density_to_lattice_cell(lj.gaussian_density(
                s.m, s.sigma2)))[0])
    np.testing.assert_array_equal(pushed.table.mass, mass)
    np.testing.assert_array_equal(many, one)


def distances(summaries, name):
    """Every per-row distance a grid's tables give: the one-jump step's
    and the filter steps' TVs, a Hellinger distance and a mass."""
    law = LAWS[name]
    one = lj.bernoulli_density(summaries, law)
    gauss = lj.gaussian_density(summaries.m, summaries.sigma2)
    exact = lj.increment_density_exact(summaries, law)
    pushed = lj.truncate_resample_pushforward(one, params(summaries.sigma2))
    fold = lj.fold_density_to_lattice_cell
    return [lj.tv_quadrature(exact, one), lj.tv_quadrature(pushed, gauss),
            lj.hellinger_quadrature(one, gauss), lj.total_mass(exact)] + (
                [lj.tv_quadrature(fold(one), fold(gauss))]
                if name in FOLDING else [])


@given(grid=grids(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_row_of_a_distance_is_its_own(grid, data):
    # a row's value has the same bits alone and at any place in its grid
    summaries, name = grid
    order = np.array(data.draw(st.permutations(range(summaries.n))))
    whole = distances(summaries, name)
    permuted = distances(lj.IncrementSummaries(
        m=summaries.m[order], sigma2=summaries.sigma2[order],
        lam=summaries.lam[order]), name)
    for got, shuffled in zip(whole, permuted, strict=True):
        assert got.shape == (summaries.n,)
        assert shuffled.tobytes() == got[order].tobytes()
    for r in range(summaries.n):
        alone = distances(summaries.interval(r), name)
        assert [d.tobytes() for d in alone] == [d[r:r + 1].tobytes()
                                                for d in whole]


def outside_by_quadrature(t: MixtureTable, beta) -> np.ndarray:
    """Per row, the integral of the table over |x| > beta, by the oracle's
    panels with the ball's edges added."""
    lo, hi, pts = t.structure()
    beta = np.broadcast_to(beta, t.rows)
    return integrate_rows(
        lambda x, rows: np.where(np.abs(x) > beta[rows], t.values(x, rows),
                                 0.0),
        (lo, hi, pts), (lo, hi, np.stack((-beta, beta), axis=1)))


@given(grid=grids(), beta=st.floats(0.0, 3.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_escaped_mass_matches_quadrature(grid, beta):
    # the closed form against an independent witness, the oracle's
    # quadrature, on the one-jump, Gaussian and exact rows of every law
    # (boxes, Irwin-Hall terms, wide lattice rows)
    summaries, name = grid
    law = LAWS[name]
    for d in (lj.bernoulli_density(summaries, law),
              lj.gaussian_density(summaries.m, summaries.sigma2),
              lj.increment_density_exact(summaries, law)):
        got = d.table.escaped_mass(beta)
        want = outside_by_quadrature(d.table, beta)
        assert np.all(np.abs(got - want) <= np.maximum(1e-12, 1e-10 * got))


@given(grid=grids(), beta=st.floats(0.0, 3.0, exclude_min=True))
@settings(max_examples=40, deadline=None)
def test_escaped_mass_of_a_row_does_not_depend_on_its_table(grid, beta):
    # rows of a few or many components, with or without boxes, padded to
    # the widest of them: each keeps the bits it has alone
    summaries, name = grid
    law = LAWS[name]
    radii = beta * (1.0 + np.arange(summaries.n) / summaries.n)
    for build in (lj.bernoulli_density, lj.increment_density_exact):
        got = build(summaries, law).table.escaped_mass(radii)
        for r in range(summaries.n):
            alone = build(summaries.interval(r), law).table
            assert got[r].tobytes() == alone.escaped_mass(radii[r]).tobytes()


@given(k=st.integers(65, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_wide_mixtures_match_a_direct_sum(k, seed):
    gen = np.random.default_rng(seed)
    table = MixtureTable(gen.uniform(-5.0, 5.0, k),
                         np.exp(gen.uniform(np.log(1e-3), 0.0, k)),
                         gen.uniform(0.0, 1.0, k) / k)
    x = np.concatenate((gen.uniform(-8.0, 8.0, 400),
                        table.means[0, :50]))
    rows = np.zeros(x.size, dtype=np.intp)
    got = table.values(x, rows)
    m, sd, w = table.means[0], table.sds[0], table.weights[0]
    want = ((w / sd) * std_pdf((x[:, None] - m) / sd)).sum(axis=1)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@given(tables=st.integers(1, 8), k=st.integers(65, 300),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_wide_rows_are_a_pure_function_of_x(tables, k, seed):
    # narrow peaks spread wide: a block of points shares its components,
    # yet each point's value is its own
    gen = np.random.default_rng(seed)
    table = MixtureTable(gen.uniform(-50.0, 50.0, (tables, k)),
                         gen.uniform(1e-3, 0.05, (tables, k)),
                         gen.uniform(0.0, 1.0, (tables, k)) / k)
    x = gen.uniform(-55.0, 55.0, 300 * tables)
    rows = np.repeat(np.arange(tables), 300)
    batch = table.values(x, rows)
    assert [table.pdf(v, r) for v, r in zip(x, rows)] == batch.tolist()


def _dense_by_loop(table: MixtureTable, x, rows) -> np.ndarray:
    """The component sum as a plain loop: from 0, one component at a
    time."""
    means, sds, scaled = (a.take(rows, axis=1) for a in table._columns)
    out = np.zeros(x.size)
    for term in scaled * std_pdf((x - means) / sds):
        out += term
    return out


@given(k=st.integers(1, 400), tables=st.integers(1, 3),
       points=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_component_sums_equal_a_plain_loop_bitwise(k, tables, points, seed):
    # any width, one point or many; signed weights give -0.0 terms where
    # phi underflows, which a sum from 0 turns into 0.0
    gen = np.random.default_rng(seed)
    size = gen.integers(1, k + 1, tables)
    real = np.arange(k) < size[:, None]
    table = MixtureTable(
        np.where(real, gen.uniform(-20.0, 20.0, (tables, k)), 0.0),
        np.where(real, gen.uniform(1e-2, 2.0, (tables, k)), 1.0),
        np.where(real, gen.uniform(-1.0, 1.0, (tables, k)), 0.0), size)
    x = gen.uniform(-60.0, 60.0, points)
    rows = gen.integers(0, tables, points)
    assert (table._dense(x, rows).tobytes()
            == _dense_by_loop(table, x, rows).tobytes())
    assert all(table._dense(x[i:i + 1], rows[i:i + 1]).tobytes()
               == _dense_by_loop(table, x[i:i + 1], rows[i:i + 1]).tobytes()
               for i in range(points))


def test_points_past_every_component_read_zero():
    # every term underflows to an exact zero
    table = MixtureTable(np.linspace(0.0, 1.0, 100), 0.01, 0.01)
    for x in ([-5.0, -4.0], [9.0, 10.0], [-5.0]):
        np.testing.assert_array_equal(table.pdf(np.array(x)), 0.0)


@given(sizes=st.permutations([st.integers(1, 7), st.integers(8, 64),
                               st.integers(65, 150)]).flatmap(
           lambda order: st.tuples(*order)),
       seed=st.integers(0, 2 ** 32 - 1),
       x=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_mixed_width_rows_equal_their_one_row_tables_bitwise(sizes, seed, x):
    # narrow, dense and wide rows in one table: padding and the other
    # rows change no bit of a row, at one point or at many; so too for
    # pushforward rows (cut plus top-up), whether every row of their table
    # is topped or an untopped row shares it
    gen = np.random.default_rng(seed)
    # means, sds and weights of the three rows, padded with (0, 1, 0)
    fields = np.zeros((3, 3, max(sizes)))
    fields[1] = 1.0
    for r, k in enumerate(sizes):
        fields[:, r, :k] = (gen.uniform(-3.0, 3.0, k),
                            np.exp(gen.uniform(np.log(0.05), 0.0, k)),
                            gen.uniform(0.0, 1.0, k) / k)
    cut = dict(beta=gen.uniform(0.5, 4.0, 3), mass=gen.uniform(0.0, 0.5, 3),
               resample_sd=gen.uniform(0.05, 1.0, 3))
    alone = [MixtureTable(*fields[:, r, :k]) for r, k in enumerate(sizes)]
    pushed = [dataclasses.replace(t, **{f: a[r] for f, a in cut.items()})
              for r, t in enumerate(alone)]

    def table_of(rows, topped):
        """Rows ``rows`` in one table, those where ``topped`` is set cut
        and topped up."""
        return MixtureTable(*fields[:, rows], size=np.take(sizes, rows),
                            **{f: np.where(topped, a[rows], untouched)
                               for (f, a), untouched in zip(
                                   cut.items(), (np.inf, 0.0, 0.0))})

    x = np.array(x)
    for ones, mixed in ((alone, table_of([0, 1, 2], False)),
                        (pushed, table_of([0, 1, 2], True)),
                        (pushed, table_of([0, 1, 2, 0],
                                          [True, True, True, False]))):
        assert mixed._all_topped == (ones is pushed and
                                     mixed.rows == len(pushed))
        rows = np.repeat(np.arange(len(ones)), x.size)
        batch = mixed.values(np.tile(x, len(ones)), rows)
        for r, one in enumerate(ones):
            want = one.values(x, np.zeros(x.size, dtype=np.intp))
            assert np.array_equal(batch[rows == r], want)
            assert [mixed.pdf(v, r) for v in x] == [one.pdf(v) for v in x]


def test_paired_densities_need_the_same_rows():
    summaries = lj.IncrementSummaries(m=[0.0, 0.1], sigma2=[1.0, 1.0],
                                      lam=[0.0, 0.0])
    with pytest.raises(ValueError, match="same rows"):
        lj.tv_quadrature(lj.gaussian_density(summaries.m, summaries.sigma2),
                         lj.gaussian_density(0.0, 1.0))


def test_uniform_grids_give_one_table():
    # the one-jump law of every interval is a row: a Gaussian plus a box
    law = lj.uniform_jumps(-1.0, 1.0)
    summaries = lj.IncrementSummaries(m=[0.0, 0.3, -1.0],
                                      sigma2=[0.01, 0.02, 0.04],
                                      lam=[0.2, 0.0, 0.5])
    d = lj.bernoulli_density(summaries, law)
    assert d.rows == 3
    np.testing.assert_array_equal(d.table.boxed, [True, False, True])
    np.testing.assert_array_equal(d.table.box_lo[[0, 2], 0], [-1.0, -2.0])
    np.testing.assert_array_equal(d.table.box_hi[[0, 2], 0], [1.0, 0.0])
    np.testing.assert_array_equal(d.table.box_weight[:, 0],
                                  [summaries.alpha[0] / 2.0, 0.0,
                                   summaries.alpha[2] / 2.0])


TABLE_FIELDS = [f.name for f in dataclasses.fields(MixtureTable) if f.init]


def test_every_table_field_is_read_only():
    # full arrays of the right dtype take the view path, scalars and lists
    # the broadcast path; both must give the same read-only bytes and
    # leave the caller's arrays writable
    full = {"means": np.array([[0.0, 1.0], [2.0, 0.0]]),
            "sds": np.ones((2, 2)),
            "weights": np.array([[0.5, 0.5], [0.5, 0.0]]),
            "size": np.array([2, 1], dtype=np.intp),
            "beta": np.array([np.inf, 1.5]), "mass": np.zeros(2),
            "resample_sd": np.array([0.0, 0.3]),
            "box_weight": np.array([[0.0, 0.2], [0.0, 0.0]]),
            "box_lo": np.array([[1.0, 2.0], [0.0, 0.0]]),
            "box_hi": np.array([[2.0, 4.0], [0.0, 0.0]]),
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


@pytest.mark.parametrize("entry", [(0.4, 0.3, 0.3), (0.4, 1.0, 0.0),
                                   (0.0, 0.3, 0.0), (0.0, 1.0, 0.3)])
def test_entries_past_a_rows_size_must_be_padding(entry):
    # a row of size 1 with a second entry (0.4, 0.3, 0.3) read TV 0.15
    # against its two-component form alone but 0.0 when batched with the
    # two-component row itself: a wider row brought its entries in
    mean, sd, weight = entry
    with pytest.raises(ValueError, match=r"padding \(0, 1, 0\)"):
        MixtureTable([[0.0, mean]], [[1.0, sd]], [[0.7, weight]], size=[1])



def test_narrow_lattice_peaks_keep_their_mass():
    # an exact lattice row of 136 components of sd 0.032, one unit apart:
    # each peak is a breakpoint of the oracle's panels, however many
    # components the row has
    d = lj.increment_density_exact(
        lj.IncrementSummaries(m=0.0, sigma2=0.001, lam=1.125),
        lj.LatticeJumps([-1, 2], [0.25, 0.75]))
    assert d.table.size[0] == 136
    assert abs(lj.total_mass(d) - d.table.weights.sum()) <= 1e-12
