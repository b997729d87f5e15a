"""Quadrature distances checked against closed-form Gaussian values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj
from lecamjd.oracle import integrate_rows


def l1(p, q):
    """The L1 distance of two one-law densities: twice their TV."""
    (tv,) = lj.tv_quadrature(p, q)
    return 2.0 * tv


class TestL1:
    def test_identical_densities_give_zero(self):
        p = lj.gaussian_density(0.3, 0.5)
        assert l1(p, p) < 1e-12

    def test_disjoint_supports_give_two(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(40.0, 1.0)
        assert abs(l1(p, q) - 2.0) < 1e-10

    def test_unit_gaussians_two_sd_apart(self):
        # 2 (1 - 2 Phi(-1)) for |mu1 - mu2| = 2 sd
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(2.0, 1.0)
        assert abs(l1(p, q) - 1.3653789842741717) < 1e-10

    def test_symmetry(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(0.7, 2.0)
        assert abs(l1(p, q) - l1(q, p)) < 1e-12

    def test_triangle_inequality(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.5)
        r = lj.gaussian_density(-0.5, 0.7)
        assert l1(p, q) <= l1(p, r) + l1(r, q) + 1e-10


class TestTV:
    def test_half_of_l1(self):
        # half the oracle's own integral of |p - q|, to the bit
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.0)
        whole = integrate_rows(
            lambda x, rows: np.abs(p.table.values(x, rows)
                                   - q.table.values(x, rows)),
            p.structure(), q.structure())
        assert lj.tv_quadrature(p, q).tolist() == (0.5 * whole).tolist()

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
        (h,) = lj.hellinger_quadrature(p, q)
        assert abs(h - 0.4847743751796387) < 1e-9
        assert abs(h * h - 0.2350061948308091) < 1e-9

    @given(mu=st.floats(-2.0, 2.0), s2=st.floats(0.25, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_sandwich_against_tv(self, mu, s2):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(mu, s2)
        (h,) = lj.hellinger_quadrature(p, q)
        (tv,) = lj.tv_quadrature(p, q)
        assert h * h / 2.0 <= tv + 1e-9
        assert tv <= h * math.sqrt(max(1.0 - h * h / 4.0, 0.0)) + 1e-9


class TestRows:
    # two laws in one table: N(0, 1) and N(5, 1) against N(0, 1) twice
    P = lj.gaussian_density([0.0, 0.0], [1.0, 1.0])
    Q = lj.gaussian_density([0.0, 5.0], [1.0, 1.0])

    def test_every_distance_gives_one_value_per_row(self):
        # 2 Phi(5/2) - 1 and 2 (1 - exp(-25/8)) in the second row
        tv = lj.tv_quadrature(self.P, self.Q)
        h = lj.hellinger_quadrature(self.P, self.Q)
        mass = lj.total_mass(self.Q)
        assert tv.shape == h.shape == mass.shape == (2,)
        assert tv[0] == 0.0 and abs(tv[1] - 0.9875806693484477) < 1e-10
        assert h[0] == 0.0 and abs(h[1] ** 2 - 1.912126132753185) < 1e-9
        assert np.all(np.abs(mass - 1.0) < 1e-10)


class TestTotalMass:
    def test_gaussian_is_normalized(self):
        assert abs(lj.total_mass(lj.gaussian_density(1.0, 2.0)) - 1.0) < 1e-10

    def test_exact_increment_density_mass(self):
        s = lj.IncrementSummaries(m=0.0, sigma2=0.04, lam=0.2)
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        d = lj.increment_density_exact(s, law)
        assert abs(lj.total_mass(d) - 1.0) < 1e-10

    def test_each_node_evaluates_the_table_once(self, monkeypatch):
        nodes, evaluated = [], []
        values, integrate = lj.MixtureTable.values, lj.oracle.integrate

        def counted_values(table, x, rows):
            evaluated.append(x.size)
            return values(table, x, rows)

        def counted_integrate(fn, *args, **kwargs):
            def counted_fn(x, *rest):
                nodes.append(x.size)
                return fn(x, *rest)
            return integrate(counted_fn, *args, **kwargs)

        monkeypatch.setattr(lj.MixtureTable, "values", counted_values)
        monkeypatch.setattr(lj.oracle, "integrate", counted_integrate)
        s = lj.IncrementSummaries(m=[0.0, 0.3], sigma2=[0.04, 0.01],
                                  lam=[0.2, 0.9])
        mass = lj.total_mass(lj.increment_density_exact(
            s, lj.uniform_jumps(-1.0, 1.5)))
        assert np.all(np.abs(mass - 1.0) < 1e-10)
        assert len(nodes) > 1 and evaluated == nodes

    def test_components_too_narrow_for_the_panel_edges_are_refused(self):
        # a 1e-20-sd spike falls between merged panel edges, where no
        # Kronrod node samples it: its mass would read 0
        with pytest.raises(lj.QuadratureError,
                           match=r"oracle row 0 .*sd down to 1e-20"):
            lj.total_mass(lj.gaussian_density(0.0, 1e-40))
        with pytest.raises(lj.QuadratureError, match="oracle row 1 "):
            lj.tv_quadrature(lj.gaussian_density([0.0, 0.0], [1.0, 1e-40]),
                             lj.gaussian_density([0.0, 0.0], [2.0, 2.0]))
        # up to the absolute tolerance in weight, such spikes may go unseen
        spiked = lj.Density(lj.MixtureTable([0.0, 0.5], [1.0, 1e-20],
                                            [1.0 - 1e-12, 1e-12]))
        assert abs(lj.total_mass(spiked) - 1.0) < 2e-12


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
    #: (mean, variance) of rows compared against N(0, 1)
    ROWS = [(1.0, 1.0), (40.0, 1.0), (-0.3, 0.05), (0.7, 2.0)]

    def test_mixed_batch_matches_closed_forms(self):
        got = np.concatenate([lj.tv_quadrature(p, q) for p, q in self.PAIRS])
        want = [tv for _, tv in MIXED_BATCH]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_batch_equals_one_pair_calls(self):
        mu, s2 = np.array(self.ROWS).T
        got = lj.tv_quadrature(lj.gaussian_density(np.zeros(mu.size),
                                                   np.ones(mu.size)),
                               lj.gaussian_density(mu, s2))
        one = [lj.tv_quadrature(lj.gaussian_density(0.0, 1.0),
                                lj.gaussian_density(m, v))[0]
               for m, v in self.ROWS]
        np.testing.assert_array_equal(got, one)

    @given(rows=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                   st.floats(0.05, 4.0)), min_size=1,
                         max_size=6).flatmap(
               lambda rows: st.tuples(st.just(rows),
                                      st.permutations(range(len(rows))),
                                      st.integers(0, len(rows)))))
    @settings(max_examples=20, deadline=None)
    def test_permuting_or_splitting_changes_nothing(self, rows):
        rows, order, cut = rows
        mu, s2 = np.array(rows).T

        def tv(at):
            return lj.tv_quadrature(lj.gaussian_density(np.zeros(at.size),
                                                        np.ones(at.size)),
                                    lj.gaussian_density(mu[at], s2[at]))

        every = np.arange(mu.size)
        whole = tv(every)
        np.testing.assert_array_equal(tv(np.array(order)), whole[order])
        split = np.concatenate((tv(every[:cut]), tv(every[cut:])))
        np.testing.assert_array_equal(split, whole)

    def test_empty_batch(self):
        # a table of no rows: no distance
        none = lj.gaussian_density(np.empty(0), np.empty(0))
        for got in (lj.tv_quadrature(none, none),
                    lj.hellinger_quadrature(none, none),
                    lj.total_mass(none)):
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_non_finite_pair_names_its_panel(self):
        # the middle row's integrand is NaN on all of [2, 3], whose first
        # panel is [2, 2.25]; the whole call raises, so no row's value is
        # returned
        p = lj.Density(lj.MixtureTable([[0.0], [2.5], [0.0]],
                                       [[1.0], [1.0 / 24.0], [1.0]],
                                       [[1.0], [math.nan], [1.0]]))
        q = lj.Density(lj.MixtureTable([[1.0], [2.5], [40.0]],
                                       [[1.0], [1.0 / 24.0], [1.0]], 1.0))
        with pytest.raises(lj.QuadratureError,
                           match=r"oracle panel over \[2, 2.25\] has a "
                                 r"non-finite integrand value"):
            lj.tv_quadrature(p, q)


#: a row that sets every per-row field, so each can be told apart; its
#: third entry is padding
FULL_ROW = dict(means=[[0.1, 0.4, 0.0]], sds=[[0.2, 0.3, 1.0]],
                weights=[[0.6, 0.3, 0.0]], size=[2], beta=[2.0], mass=[0.05],
                resample_sd=[0.5], box_weight=[[0.05]], box_lo=[[-0.5]],
                box_hi=[[0.5]], box_sd=[0.1])


def _row(rows=1, **change):
    """A fresh table of ``rows`` copies of ``FULL_ROW``, with ``change``
    applied to the last."""
    fields = {k: np.array(v * rows) for k, v in FULL_ROW.items()}
    for name, edit in change.items():
        fields[name][-1:] = edit(fields[name][-1:])
    return lj.Density(lj.MixtureTable(**fields))


def _bump(a):
    """``a`` with its last component (or its one field) one ulp up."""
    a = a.copy()
    at = (0, min(FULL_ROW["size"][0], a.shape[1]) - 1) if a.ndim == 2 else 0
    a[at] = np.nextafter(a[at], np.inf)
    return a


@pytest.fixture
def evaluated_rows(monkeypatch):
    """The set of table rows the oracle evaluates."""
    seen = set()
    values = lj.MixtureTable.values

    def spy(self, x, rows):
        seen.update(np.unique(rows).tolist())
        return values(self, x, rows)

    monkeypatch.setattr(lj.MixtureTable, "values", spy)
    return seen


def _folded_unit_jump_pair(m, s2, lam):
    """The lattice filter step at drift mean ``m``: the folded one-jump law
    of a unit jump and the folded Gaussian."""
    summ = lj.IncrementSummaries(m=m, sigma2=s2, lam=lam)
    return tuple(lj.fold_density_to_lattice_cell(d) for d in (
        lj.bernoulli_density(summ, lj.DiracJump(1.0)),
        lj.gaussian_density(summ.m, summ.sigma2)))


def _assert_same_table(a, b):
    for f in dataclasses.fields(lj.MixtureTable):
        if f.init:
            np.testing.assert_array_equal(getattr(a, f.name),
                                          getattr(b, f.name), err_msg=f.name)


class TestEqualRows:
    """L1 rows whose two sides hold the same finite data read 0.0 without
    quadrature; every other row, and every other integrand, integrates."""

    def test_equal_row_reads_zero_and_is_never_evaluated(
            self, evaluated_rows):
        got = lj.tv_quadrature(_row(2), _row(2, beta=lambda a: a / 2.0))
        assert got[0] == 0.0 and got[1] > 0.0
        assert evaluated_rows == {1}

    def test_a_batch_of_equal_rows_evaluates_nothing(self, evaluated_rows):
        # the lattice filter step: folding erases the unit jump
        p, q = _folded_unit_jump_pair(0.3, 0.01, 0.2)
        assert lj.tv_quadrature(p, q) == 0.0
        assert evaluated_rows == set()

    @pytest.mark.parametrize("field", sorted(FULL_ROW))
    def test_one_changed_field_is_integrated(self, field, evaluated_rows):
        # one ulp in the last component or field, or the padding taken in
        # as a component of weight 0
        edit = {"size": lambda a: a + 1}.get(field, _bump)
        got = lj.tv_quadrature(_row(2), _row(2, **{field: edit}))
        assert evaluated_rows == {1}
        assert got[0] == 0.0
        assert got[1] == lj.tv_quadrature(_row(), _row(**{field: edit}))[0]

    @pytest.mark.parametrize("change", [
        {"weights": lambda a: np.where(a > 0.0, np.inf, 0.0)},
        {"weights": lambda a: np.where(a > 0.0, np.nan, 0.0)},
        {"mass": lambda a: np.full_like(a, np.inf)},
        {"box_weight": lambda a: np.full_like(a, np.inf)},
        # finite fields whose weight / sd or 1 / resample_sd overflows
        {"weights": lambda a: np.where(a > 0.0, 1e308, 0.0)},
        {"resample_sd": lambda a: np.full_like(a, 1e-310)}])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_self_pair_still_raises(self, change):
        p = _row(**change)
        with pytest.raises(lj.QuadratureError, match="non-finite"):
            lj.tv_quadrature(p, p)

    @pytest.mark.parametrize("m", [1.5, 0.5, -0.5, 2.5])
    def test_half_integer_means_fold_to_equal_tables(self, m,
                                                     evaluated_rows):
        # the Gaussian's center and the unit jump's lie at opposite ends
        # of the cell, +1/2 and -1/2, and still merge
        p, q = _folded_unit_jump_pair(m, 0.25, 0.3)
        assert p.table.size[0] == q.table.size[0] == 15
        _assert_same_table(p.table, q.table)
        assert lj.tv_quadrature(p, q) == 0.0
        assert evaluated_rows == set()

    @given(k=st.integers(-4, 4), s2=st.floats(0.001, 1.0),
           lam=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_half_integer_means_need_no_quadrature(self, k, s2, lam):
        p, q = _folded_unit_jump_pair(k + 0.5, s2, lam)
        _assert_same_table(p.table, q.table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lj.MixtureTable, "values", None)
            assert lj.tv_quadrature(p, q) == 0.0

    def test_mass_and_hellinger_still_integrate(self, evaluated_rows):
        p = lj.gaussian_density(0.3, 0.5)
        assert abs(lj.total_mass(p) - 1.0) < 1e-10
        assert evaluated_rows == {0}
        evaluated_rows.clear()
        assert lj.hellinger_quadrature(p, p) == 0.0
        assert evaluated_rows == {0}

    @given(rows=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                   st.floats(0.01, 0.25),
                                   st.sampled_from(["same", "ulp",
                                                    "moved"])),
                         min_size=1, max_size=6),
           folded=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_mixed_batch_equals_one_pair_calls(self, rows, folded):
        # each row's p against q = N(m, s2): the same law, one ulp more
        # variance or moved by 0.1; folded, p is the one-jump law of a
        # unit jump, which folding erases (the lattice filter step)
        m, s2, kinds = (np.array(a) for a in zip(*rows))
        pm = np.where(kinds == "moved", m + 0.1, m)
        ps2 = np.where(kinds == "ulp", np.nextafter(s2, 1.0), s2)

        def tv(at):
            q = lj.gaussian_density(m[at], s2[at])
            if not folded:
                return lj.tv_quadrature(lj.gaussian_density(pm[at], ps2[at]),
                                        q)
            fold = lj.fold_density_to_lattice_cell
            p = lj.bernoulli_density(lj.IncrementSummaries(
                m=pm[at], sigma2=ps2[at], lam=np.full(m[at].size, 0.3)),
                lj.DiracJump(1.0))
            return lj.tv_quadrature(fold(p), fold(q))

        got = tv(np.arange(m.size))
        np.testing.assert_array_equal(
            got, [tv(np.array([r]))[0] for r in range(m.size)])
        assert (got[kinds == "same"] == 0.0).all()
        assert (got[kinds == "moved"] > 0.0).all()
