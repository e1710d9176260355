"""Integration engine: closed forms, matrix exponential, refinement.

The e - 2 value is the hand antiderivative of (1-x)e^x on [0,1]; other
references are scipy quadrature, scipy expm, and rejection-sampling MC.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy.linalg import expm as scipy_expm

from gcdeg import (DegreeCapExceeded, InconsistentInputs, McConfig,
                   RootSystemSpec, build_polytope, build_root_system,
                   dh_density, get_engine, h_vector, integrate_region,
                   integrate_simplex, mc_integrate, region_moments,
                   subdivide_simplex)
from gcdeg._poly import Polynomial
from gcdeg.expint import _dd_exp_many, _expm_stack

UNIT_TRIANGLE = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                 (Fraction(0), Fraction(1)))

small = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)


def _poly_const(dim, c=1):
    return Polynomial.constant(dim, c)


def test_e_minus_2_triangle():
    val = integrate_simplex(_poly_const(2), (1.0, 0.0), UNIT_TRIANGLE)
    assert abs(val - (math.e - 2)) <= 1e-13


def test_standard_simplex_volume():
    for n in (1, 2, 3):
        simplex = tuple([tuple(Fraction(int(i == j - 1)) for i in range(n))
                         for j in range(n + 1)])
        val = integrate_simplex(_poly_const(n), (0.0,) * n, simplex)
        assert val == pytest.approx(1.0 / math.factorial(n), rel=1e-14)


def test_divided_difference_small_cases():
    a, b = 0.7, -0.3
    dd, conf, single = _dd_exp_many([(a, b), (a, a), (a,)])
    assert dd == pytest.approx((math.exp(a) - math.exp(b)) / (a - b), rel=1e-14)
    assert conf == pytest.approx(math.exp(a), rel=1e-14)
    assert single == pytest.approx(math.exp(a), rel=1e-15)


def test_expm_stack_matches_scipy():
    rng = np.random.default_rng(7)
    mats = []
    for scale in (0.1, 1.0, 8.0, 40.0):
        m = np.triu(rng.normal(size=(6, 6)) * scale)
        mats.append(m)
    ours = _expm_stack(np.array(mats))
    for m, o in zip(mats, ours):
        ref = scipy_expm(m)
        denom = max(1.0, float(np.abs(ref).max()))
        assert float(np.abs(o - ref).max()) / denom <= 1e-12


def test_tiny_and_negative_exponents_stable():
    # near the removable singularity of the closed form
    for c in (0.0, 1e-16, 1e-9, -1e-9, 2.5, -2.5):
        val = integrate_simplex(_poly_const(1), (c,), ((Fraction(0),), (Fraction(1),)))
        ref = (math.expm1(c) / c) if c != 0 else 1.0
        assert val == pytest.approx(ref, rel=2e-14)


def test_monomial_exponential_1d():
    # int_0^1 y^k e^{cy} dy against scipy
    mono = Polynomial.coordinate(1, 0)
    p = mono
    for k in (1, 3, 6):
        pk = p
        for _ in range(k - 1):
            pk = pk * mono
        for c in (-2.0, 1e-8, 1.7):
            val = integrate_simplex(pk, (c,), ((Fraction(0),), (Fraction(1),)))
            ref, _ = scipy_integrate.quad(lambda y: y ** k * math.exp(c * y), 0, 1)
            assert val == pytest.approx(ref, rel=1e-11)


def test_mixed_monomial_2d():
    x = Polynomial.coordinate(2, 0)
    y = Polynomial.coordinate(2, 1)
    p = x * x * y
    val = integrate_simplex(p, (0.5, -0.25), UNIT_TRIANGLE)
    ref, _ = scipy_integrate.dblquad(
        lambda yy, xx: xx * xx * yy * math.exp(0.5 * xx - 0.25 * yy),
        0, 1, lambda xx: 0, lambda xx: 1 - xx)
    assert val == pytest.approx(ref, rel=1e-11)


def test_region_moments_sl2(rs_a1, seg3):
    m = region_moments(seg3, dh_density(rs_a1), (0.0,))
    assert m.z == pytest.approx(36.0, rel=1e-14)
    assert m.first[0] == pytest.approx(81.0, rel=1e-14)
    assert m.barycenter()[0] == pytest.approx(2.25, rel=1e-14)


def test_region_moments_unit_square():
    sq = build_polytope(vertices=[[0, 0], [1, 0], [0, 1], [1, 1]])
    one = _poly_const(2)
    m = region_moments(sq, one, (0.0, 0.0))
    assert m.z == pytest.approx(1.0, rel=1e-14)
    b = m.barycenter()
    assert b[0] == pytest.approx(0.5, abs=1e-14)
    assert b[1] == pytest.approx(0.5, abs=1e-14)
    cov = m.covariance()
    assert cov[0][0] == pytest.approx(1.0 / 12, rel=1e-12)
    assert cov[1][1] == pytest.approx(1.0 / 12, rel=1e-12)
    assert abs(cov[0][1]) <= 1e-14


def test_covariance_cholesky(case1_poly, rs_so4):
    pi = dh_density(rs_so4)
    for lam in ((0.0, 0.0), (0.3, -0.2), (1.0, 0.5)):
        m = region_moments(case1_poly, pi, lam)
        np.linalg.cholesky(np.array(m.covariance()))


def test_subdivision_consistency(case1_poly, rs_so4):
    pi = dh_density(rs_so4)
    for lam in ((0.0, 0.0), (0.5, -0.5)):
        v0 = integrate_region(case1_poly, pi, lam, subdivisions=0)
        v2 = integrate_region(case1_poly, pi, lam, subdivisions=2)
        assert abs(v2 - v0) / abs(v0) <= 1e-10


def test_subdivide_partitions_volume():
    children = subdivide_simplex(UNIT_TRIANGLE)
    assert len(children) == 4
    one = _poly_const(2)
    whole = integrate_simplex(one, (0.7, 0.3), UNIT_TRIANGLE)
    parts = sum(integrate_simplex(one, (0.7, 0.3), c) for c in children)
    assert parts == pytest.approx(whole, rel=1e-13)


def test_mc_agreement_case1(case1_poly, rs_so4):
    pi = dh_density(rs_so4)
    est, err = mc_integrate(case1_poly, pi, (0.5, -0.5),
                            config=McConfig(samples=10 ** 6))
    ref = get_engine(case1_poly, pi).z((0.5, -0.5))
    assert abs(est - ref) <= 3 * err


def test_degree_cap():
    mono = Polynomial.coordinate(1, 0)
    p = _poly_const(1)
    for _ in range(25):
        p = p * mono
    with pytest.raises(DegreeCapExceeded):
        integrate_simplex(p, (1.0,), ((Fraction(0),), (Fraction(1),)))


@settings(max_examples=30, deadline=None)
@given(small, small, st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2))
def test_translation_covariance(c1, c2, t1, t2):
    """Shifting the simplex multiplies the integral of e^<lam, y> by
    e^<lam, t>, an exact identity."""
    lam = (c1, c2)
    t = (Fraction(t1), Fraction(t2))
    shifted = tuple(tuple(v[i] + t[i] for i in range(2)) for v in UNIT_TRIANGLE)
    base = integrate_simplex(_poly_const(2), lam, UNIT_TRIANGLE)
    moved = integrate_simplex(_poly_const(2), lam, shifted)
    factor = math.exp(c1 * float(t[0]) + c2 * float(t[1]))
    assert moved == pytest.approx(base * factor, rel=1e-11)


@settings(max_examples=20, deadline=None)
@given(small, small)
def test_split_additivity(c1, c2):
    """Splitting at the centroid and summing reproduces the whole."""
    lam = (c1, c2)
    v0, v1, v2 = UNIT_TRIANGLE
    g = tuple((v0[i] + v1[i] + v2[i]) / 3 for i in range(2))
    whole = integrate_simplex(_poly_const(2), lam, UNIT_TRIANGLE)
    parts = (integrate_simplex(_poly_const(2), lam, (g, v1, v2))
             + integrate_simplex(_poly_const(2), lam, (v0, g, v2))
             + integrate_simplex(_poly_const(2), lam, (v0, v1, g)))
    assert parts == pytest.approx(whole, rel=1e-10)


def test_engine_cache_and_moments(case1_poly, rs_so4):
    pi = dh_density(rs_so4)
    eng1 = get_engine(case1_poly, pi)
    eng2 = get_engine(case1_poly, pi)
    assert eng1 is eng2
    mm = eng1.moments((0.2, -0.1), orders=2)
    m = region_moments(case1_poly, pi, (0.2, -0.1))
    assert mm.z == pytest.approx(m.z, rel=1e-13)
    assert mm.first[0] == pytest.approx(m.first[0], rel=1e-12)
    assert mm.second[1][1] == pytest.approx(m.second[1][1], rel=1e-12)


@pytest.mark.parametrize("lam", [(0.1,), (0.1, -0.1, 5.0)])
def test_wrong_length_slope_raises(rs_so4, case1_poly, lam):
    # A too-long slope used to be truncated silently; a too-short one raised
    # IndexError.
    with pytest.raises(InconsistentInputs):
        region_moments(case1_poly, dh_density(rs_so4), lam)
    with pytest.raises(InconsistentInputs):
        h_vector(rs_so4, case1_poly, lam)
