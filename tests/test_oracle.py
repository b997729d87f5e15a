"""Quadrature distances checked against closed-form Gaussian values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lecamjd as lj


class TestL1:
    def test_identical_densities_give_zero(self):
        p = lj.gaussian_density(0.3, 0.5)
        assert lj.l1_quadrature(p, p) < 1e-12

    def test_disjoint_supports_give_two(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(40.0, 1.0)
        assert abs(lj.l1_quadrature(p, q) - 2.0) < 1e-10

    def test_unit_gaussians_two_sd_apart(self):
        # 2 (1 - 2 Phi(-1)) for |mu1 - mu2| = 2 sd
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(2.0, 1.0)
        got = lj.l1_quadrature(p, q)
        assert abs(got - 1.3653789842741717) < 1e-10

    def test_symmetry(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(0.7, 2.0)
        assert abs(lj.l1_quadrature(p, q) - lj.l1_quadrature(q, p)) < 1e-12

    def test_triangle_inequality(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.5)
        r = lj.gaussian_density(-0.5, 0.7)
        assert (lj.l1_quadrature(p, q)
                <= lj.l1_quadrature(p, r) + lj.l1_quadrature(r, q) + 1e-10)


class TestTV:
    def test_half_of_l1(self):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(1.0, 1.0)
        assert lj.tv_quadrature(p, q) == 0.5 * lj.l1_quadrature(p, q)

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
        h = lj.hellinger_quadrature(p, q)
        assert abs(h - 0.4847743751796387) < 1e-9
        assert abs(h * h - 0.2350061948308091) < 1e-9

    @given(mu=st.floats(-2.0, 2.0), s2=st.floats(0.25, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_sandwich_against_tv(self, mu, s2):
        p = lj.gaussian_density(0.0, 1.0)
        q = lj.gaussian_density(mu, s2)
        h = lj.hellinger_quadrature(p, q)
        tv = lj.tv_quadrature(p, q)
        assert h * h / 2.0 <= tv + 1e-9
        assert tv <= h * math.sqrt(max(1.0 - h * h / 4.0, 0.0)) + 1e-9


class TestOneLaw:
    # two laws in one table: N(0, 1) and N(5, 1) against N(0, 1) twice;
    # tv_quadrature_many compares them row by row
    P = lj.gaussian_density([0.0, 0.0], [1.0, 1.0])
    Q = lj.gaussian_density([0.0, 5.0], [1.0, 1.0])

    @pytest.mark.parametrize("distance", [lj.tv_quadrature, lj.l1_quadrature,
                                          lj.hellinger_quadrature])
    def test_one_pair_distances_refuse_many_rows(self, distance):
        with pytest.raises(ValueError, match="tv_quadrature_many"):
            distance(self.P, self.Q)
        with pytest.raises(ValueError, match="tv_quadrature_many"):
            distance(lj.gaussian_density(0.0, 1.0), self.Q)

    def test_total_mass_refuses_many_rows(self):
        with pytest.raises(ValueError, match="tv_quadrature_many"):
            lj.total_mass(self.Q)


class TestTotalMass:
    def test_gaussian_is_normalized(self):
        assert abs(lj.total_mass(lj.gaussian_density(1.0, 2.0)) - 1.0) < 1e-10

    def test_exact_increment_density_mass(self):
        s = lj.IncrementSummaries(m=0.0, sigma2=0.04, lam=0.2)
        law = lj.LatticeJumps(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        d = lj.increment_density_exact(s, law)
        assert abs(lj.total_mass(d) - 1.0) < 1e-10


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

    def test_mixed_batch_matches_closed_forms(self):
        got = lj.tv_quadrature_many(self.PAIRS)
        want = [tv for _, tv in MIXED_BATCH]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_batch_equals_one_pair_calls(self):
        got = lj.tv_quadrature_many(self.PAIRS)
        one = [lj.tv_quadrature(p, q) for p, q in self.PAIRS]
        np.testing.assert_array_equal(got, one)

    @given(order=st.permutations(range(len(MIXED_BATCH))),
           cut=st.integers(0, len(MIXED_BATCH)),
           extra=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                    st.floats(0.05, 4.0)), max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_permuting_or_splitting_changes_nothing(self, order, cut, extra):
        pairs = self.PAIRS + [(lj.gaussian_density(0.0, 1.0),
                               lj.gaussian_density(mu, s2))
                              for mu, s2 in extra]
        whole = lj.tv_quadrature_many(pairs)
        order = list(order) + list(range(len(MIXED_BATCH), len(pairs)))
        permuted = lj.tv_quadrature_many([pairs[k] for k in order])
        np.testing.assert_array_equal(permuted, whole[order])
        split = np.concatenate((lj.tv_quadrature_many(pairs[:cut]),
                                lj.tv_quadrature_many(pairs[cut:])))
        np.testing.assert_array_equal(split, whole)

    def test_empty_batch(self):
        got = lj.tv_quadrature_many([])
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_non_finite_pair_names_its_panel(self):
        # the middle pair's integrand is NaN on all of [2, 3], whose first
        # panel is [2, 2.25]; the whole batch raises, so no pair's value is
        # returned
        flat = lj.Density(lj.MixtureTable([2.5], [1.0 / 24.0], [1.0]))
        broken = lj.Density(lj.MixtureTable([2.5], [1.0 / 24.0], [math.nan]))
        pairs = [self.PAIRS[0], (broken, flat), self.PAIRS[1]]
        with pytest.raises(lj.QuadratureError,
                           match=r"oracle panel over \[2, 2.25\] has a "
                                 r"non-finite integrand value"):
            lj.tv_quadrature_many(pairs)


#: a row that sets every per-row field, so each can be told apart; its
#: third entry is padding
FULL_ROW = dict(means=[[0.1, 0.4, 0.0]], sds=[[0.2, 0.3, 1.0]],
                weights=[[0.6, 0.3, 0.0]], size=[2], beta=[2.0], mass=[0.05],
                resample_sd=[0.5], fold=[False], box_weight=[0.05],
                box_lo=[-0.5], box_hi=[0.5], box_sd=[0.1])


def _row(**change):
    """A fresh copy of ``FULL_ROW``'s table with ``change`` applied."""
    fields = {k: np.array(v) for k, v in FULL_ROW.items()}
    for name, edit in change.items():
        fields[name] = edit(fields[name])
    return lj.Density(lj.MixtureTable(**fields))


def _bump(a):
    """``a`` with its last component (or its one field) one ulp up."""
    a = a.copy()
    at = (0, FULL_ROW["size"][0] - 1) if a.ndim == 2 else 0
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


class TestEqualRows:
    """L1 rows whose two sides hold the same finite data read 0.0 without
    quadrature; every other row, and every other integrand, integrates."""

    def test_equal_row_reads_zero_and_is_never_evaluated(
            self, evaluated_rows):
        got = lj.tv_quadrature_many([(_row(), _row()),
                                     MIXED_BATCH[0][0]])
        assert got[0] == 0.0 and got[1] > 0.0
        assert evaluated_rows == {1}

    def test_a_batch_of_equal_rows_evaluates_nothing(self, evaluated_rows):
        # the lattice filter step: folding erases the unit jump
        summ = lj.IncrementSummaries(m=0.3, sigma2=0.01, lam=0.2)
        p, q = (lj.fold_density_to_lattice_cell(d) for d in (
            lj.bernoulli_density(summ, lj.DiracJump(1.0)),
            lj.gaussian_density(summ.m, summ.sigma2)))
        assert lj.tv_quadrature(p, q) == 0.0
        assert evaluated_rows == set()

    @pytest.mark.parametrize("field", sorted(FULL_ROW))
    def test_one_changed_field_is_integrated(self, field, evaluated_rows):
        # one ulp in the last component or field, a flipped fold, or the
        # padding taken in as a component of weight 0
        edit = {"fold": np.logical_not,
                "size": lambda a: a + 1}.get(field, _bump)
        p, q = _row(), _row(**{field: edit})
        got = lj.tv_quadrature_many([(p, p), (p, q)])
        assert evaluated_rows == {1}
        assert got[0] == 0.0 and got[1] == lj.tv_quadrature(p, q)

    @pytest.mark.parametrize("change", [
        {"weights": lambda a: np.full_like(a, np.inf)},
        {"weights": lambda a: np.full_like(a, np.nan)},
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

    def test_mass_and_hellinger_still_integrate(self, evaluated_rows):
        p = lj.gaussian_density(0.3, 0.5)
        assert abs(lj.total_mass(p) - 1.0) < 1e-10
        assert evaluated_rows == {0}
        evaluated_rows.clear()
        assert lj.hellinger_quadrature(p, p) == 0.0
        assert evaluated_rows == {0}

    @given(pairs=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                    st.floats(0.01, 0.25),
                                    st.sampled_from(["same", "folded",
                                                     "ulp", "moved"])),
                          min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_mixed_batch_equals_one_pair_calls(self, pairs):
        fold = lj.fold_density_to_lattice_cell
        batch = []
        for m, s2, kind in pairs:
            q = lj.gaussian_density(m, s2)
            p = {"same": lambda: lj.gaussian_density(m, s2),
                 "ulp": lambda: lj.gaussian_density(m, np.nextafter(s2, 1.0)),
                 "moved": lambda: lj.gaussian_density(m + 0.1, s2),
                 # the lattice filter step: folding erases the unit jump
                 "folded": lambda: fold(lj.bernoulli_density(
                     lj.IncrementSummaries(m=m, sigma2=s2, lam=0.3),
                     lj.DiracJump(1.0)))}[kind]()
            batch.append((p, fold(q) if kind == "folded" else q))
        got = lj.tv_quadrature_many(batch)
        np.testing.assert_array_equal(
            got, [lj.tv_quadrature(p, q) for p, q in batch])
        kinds = np.array([kind for _, _, kind in pairs])
        assert (got[kinds == "same"] == 0.0).all()
        assert (got[kinds == "moved"] > 0.0).all()
