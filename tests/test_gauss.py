"""The Gaussian cdf helpers: erfc accuracy deep into the tail, special
values, and the scalar/array contract of ``norm_cdf`` and ``std_cdf``.

``std_cdf(z)`` is ``erfc(-z / sqrt(2)) / 2``.  The erfc checks read it
back as ``2 std_cdf(-x sqrt(2))``, for erfc arguments x that the scaling
by sqrt(2) and back reproduces exactly, so each value is the erfc of x.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from lecamjd import _gauss

SQRT2 = math.sqrt(2.0)

#: (x, erfc(x)) for the exact binary value of x, to 32 significant digits,
#: computed offline with mpmath 1.3.0 at mp.dps = 60.  10.606601717798211
#: is 15 / sqrt(2), where erfc / 2 is Phi(-15); from 26.6 on the values
#: are subnormal doubles.
ERFC = [
    (-30.0, 2.0),
    (-4.0, 1.9999999845827420997199811478403),
    (-1.0, 1.8427007929497148693412206350826),
    (-0.3, 1.3286267594591274161896179853182),
    (0.0, 1.0),
    (1e-09, 9.9999999887162083290448735620272e-1),
    (0.125, 8.5968379519866618260697055347838e-1),
    (0.5, 4.7950012218695346231725334610804e-1),
    (0.75, 2.8884436634648486840106216540859e-1),
    (1.0, 1.5729920705028513065877936491739e-1),
    (2.0, 4.6777349810472658379307436327471e-3),
    (3.7, 1.6715105790914597512934858827083e-7),
    (5.0, 1.5374597944280348501883434853834e-12),
    (10.606601717798211, 7.3419323986257183325190122740965e-51),
    (12.0, 1.3562611692059042127803061565904e-64),
    (17.5, 3.1988638123434809881934691952969e-135),
    (20.0, 5.3958656116079009289349991679053e-176),
    (23.0, 4.4412659480880572440748844289467e-232),
    (26.000000000000004, 5.6631924088550958493224799118436e-296),
    (26.6, 1.0885125885442265331717558475457e-309),
    (26.900000000000002, 1.1522405672637015007676086922796e-316),
    (27.0, 5.2370489237892556850160676828495e-319),
    (27.2, 1.0189049142703155395142337567077e-323),
]


def erfc_via_std_cdf(x):
    z = -x * SQRT2
    assert np.all(-z / SQRT2 == x)  # std_cdf hands erfc exactly x
    return 2.0 * _gauss.std_cdf(z)


@pytest.mark.parametrize("x, want", ERFC)
def test_erfc_within_three_ulp_of_mpmath(x, want):
    got = float(erfc_via_std_cdf(x))
    assert abs(got - want) <= 3 * math.ulp(want)


def test_array_erfc_matches_each_scalar():
    xs = np.array([x for x, _ in ERFC])
    got = erfc_via_std_cdf(xs)
    assert got.shape == xs.shape
    assert got.tolist() == [float(erfc_via_std_cdf(x)) for x in xs]


@given(st.lists(st.floats(-30.0, 26.0), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_erfc_agrees_with_scipy(xs):
    z = -np.array(xs) * SQRT2
    got = 2.0 * _gauss.std_cdf(z)
    want = special.erfc(-z / SQRT2)
    np.testing.assert_allclose(got, want, rtol=2e-13, atol=0.0)


def test_infinities_and_nan():
    got = _gauss.std_cdf([-np.inf, np.nan, np.inf])
    assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == 1.0
    assert math.isnan(_gauss.norm_cdf(np.nan))
    assert _gauss.norm_cdf(np.inf, 1.0, 2.0) == 1.0


@pytest.mark.parametrize("cdf", [_gauss.std_cdf,
                                 lambda x: _gauss.norm_cdf(x, 0.5, 2.0)])
def test_scalar_in_scalar_out_and_shapes_kept(cdf):
    for scalar in (0.3, np.float64(0.3), np.array(0.3), 2):
        out = cdf(scalar)
        assert isinstance(out, np.float64) and not isinstance(out,
                                                              np.ndarray)
    grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    out = cdf(grid.T)  # a non-contiguous view keeps its element order
    assert out.shape == (4, 3) and out.dtype == np.float64
    assert out.tolist() == [[float(cdf(v)) for v in row] for row in grid.T]
    assert cdf(np.empty((0, 2))).shape == (0, 2)
    assert cdf([[0.1, 0.2]]).shape == (1, 2)


def test_norm_cdf_is_std_cdf_of_the_standardized_point():
    x = np.array([-40.0, -7.5, -1.0, 0.0, 2.5, 9.0])
    assert (_gauss.norm_cdf(x, 1.5, 0.25)
            == _gauss.std_cdf((x - 1.5) / 0.25)).all()
    # Phi(-16) from mpmath.ncdf; rounding -z / sqrt(2) alone costs a
    # relative 2 z^2 ulp, about 3e-14 here
    assert _gauss.norm_cdf(-16.0) == pytest.approx(6.388754400538087e-58,
                                                   rel=1e-13)
