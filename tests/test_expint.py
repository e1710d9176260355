"""Integration engine: closed forms, matrix exponential, refinement.

The e - 2 value is the hand antiderivative of (1-x)e^x on [0,1]; other
references are scipy quadrature, scipy expm, rejection-sampling MC, the
60-digit divided differences of `dd_exp_reference` (conftest.py) and, for
rank-4 product boxes, the moments of their rank-1 and rank-2 factors.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy.linalg import expm as scipy_expm

from gcdeg import (DegreeCapExceeded, InconsistentInputs, McConfig, PrecisionLoss,
                   RootSystemSpec, build_polytope, build_root_system,
                   dh_density, get_engine, h_vector, integrate_region,
                   integrate_simplex, mc_integrate, region_moments,
                   subdivide_simplex)
from gcdeg._poly import Polynomial
from gcdeg.cli import build_from_doc
from gcdeg.expint import _expm_stack, _opitz_exp
from gcdeg.polytope import _simplex_volume
from gcdeg.presets import get_preset

from conftest import dd_exp_reference, dd_exp_windows

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
    dd, conf = _opitz_exp(np.array([(a, b), (a, a)]))[:, 0, 1]
    single = _opitz_exp(np.array([(a,)]))[0, 0, 0]
    assert dd == pytest.approx((math.exp(a) - math.exp(b)) / (a - b), rel=1e-14)
    assert conf == pytest.approx(math.exp(a), rel=1e-14)
    assert single == pytest.approx(math.exp(a), rel=1e-15)


def _window_chains():
    """(id, chain) pairs. Chains of m = 2..40 nodes at scales 0.5, 3, 10 and
    30, half of them spread over [-scale, scale] and half clustered or
    confluent (a few centres, each node on one of them or 1e-9 to 1e-5
    times the scale off it); then single nodes at +-0.5, +-3, +-5 and +-30,
    and chains of m = 2 and 3 at scale 30, spread or confluent at +-30.
    A kernel scaled for the norm alone misses the single nodes above its
    Taylor bound; a series of fixed degree misses the long chains."""
    rng = np.random.default_rng(8)
    for m in range(2, 41):
        scale = (0.5, 3.0, 10.0, 30.0)[m // 2 % 4]
        if m % 2:
            yield f"m{m}", rng.uniform(-scale, scale, m)
        else:
            centres = rng.uniform(-scale, scale, rng.integers(1, 4))
            offsets = rng.choice([0.0, 1e-9, 1e-7, 1e-5], m) * rng.normal(size=m) * scale
            yield f"m{m}", rng.choice(centres, m) + offsets
    for x in (0.5, 3.0, 5.0, 30.0):
        for sign in (1, -1):
            yield f"m1-x{sign * x:g}", np.array([sign * x])
    for m in (2, 3):
        yield f"m{m}-spread30", rng.uniform(-30.0, 30.0, m)
        for x in (30.0, -30.0):
            yield f"m{m}-x{x:g}", np.full(m, x)


# A chain of the B2xB2 box [0,4]^4 at slope (0.3, 0.1, 0.2, 0.05): Pade-13
# at full norm theta_13 was off by 2.3e-5 on its corner.
B2XB2_CHAIN = [0.0, 1.2] + [2.0] * 4 + [2.4] * 3 + [2.6] * 14


@pytest.mark.parametrize("chain", [pytest.param(c, id=name) for name, c in _window_chains()]
                         + [pytest.param(np.array(B2XB2_CHAIN), id="b2xb2")])
def test_every_window_against_reference(chain):
    """Entry (i, j) of the exponential of a chain's Opitz matrix is the
    divided difference exp[x_i, ..., x_j], to 1e-13 relative."""
    got = _opitz_exp(chain[None])[0]
    for i, row in enumerate(dd_exp_windows(list(chain))):
        ref = np.array([float(v) for v in row])
        err = np.abs(got[i, i:] - ref) / ref
        assert err.max() <= 1e-13, (i, int(err.argmax()) + i, err.max())


@pytest.mark.parametrize("name", ["m2", "m7", "m20", "m40", "m3-spread30", "m3-x-30"])
def test_windows_match_per_start_series(name):
    """The windows of one pass by recurrence agree with the series summed
    afresh from each start node, to 1e-55 relative."""
    chain = list(dict(_window_chains())[name])
    for i, row in enumerate(dd_exp_windows(chain)):
        ref = dd_exp_reference(chain[i:])
        assert max(abs(a - b) / b for a, b in zip(row, ref)) <= 1e-55, i


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


def test_region_moments_overflow_is_typed_error():
    # at lambda = 400 on [0, 3] z is about e^1200: the kernel's squarings
    # overflow, and region_moments once returned z = inf, first = (nan,)
    # with a raw overflow warning
    rs, region, _ = build_from_doc(get_preset("sl2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PrecisionLoss) as err:
            region_moments(region, dh_density(rs), (400.0,))
    assert err.value.exit_code == 5
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_subdivide_4d_simplex():
    """Edgewise refinement works past dimension 3: 16 children of equal
    exact volume inside the parent, and one refinement level leaves the
    integral unchanged."""
    verts = [[0, 0, 0, 0], [3, 0, 0, 0], [1, 2, 0, 0], [0, 1, "5/2", 0], [1, 0, 1, 2]]
    region = build_polytope(vertices=verts)
    simplex = tuple(tuple(Fraction(x) for x in v) for v in verts)
    children = subdivide_simplex(simplex)
    assert len(children) == 16
    vols = [_simplex_volume(c) for c in children]
    assert set(vols) == {_simplex_volume(simplex) / 16}
    assert sum(vols) == region.volume()
    assert all(region.contains(v) for c in children for v in c)
    y = [Polynomial.coordinate(4, i) for i in range(4)]
    p = y[0] * y[1] + y[2] * y[3] * y[3] + _poly_const(4, 1)
    lam = (0.4, -0.3, 0.2, 0.1)
    v0 = integrate_region(region, p, lam, subdivisions=0)
    v1 = integrate_region(region, p, lam, subdivisions=1)
    assert abs(v1 - v0) / abs(v0) <= 1e-10


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


def _box(catalog, h, dim):
    """The box [0, h]^dim cut to the dominant chamber, and pi."""
    verts = [list(v) for v in itertools.product([0, h], repeat=dim)]
    rs, p, _ = build_from_doc({"root_system": {"catalog": catalog},
                               "polytope": {"vertices": verts, "restrict_to_chamber": True}})
    return p, dh_density(rs)


@pytest.mark.parametrize("lam", [("3/10", "1/10", "1/5", "1/20"),
                                 ("41/50", "33/100", "79/100", "9/20"),
                                 ("81/100", "2/25", "9/50", "23/100")])
@pytest.mark.parametrize("catalog, factor, h", [("B2xB2", "B2", "4"),
                                                ("A1xA1xA1xA1", "A1", "3")])
def test_rank4_moments_match_factors(catalog, factor, h, lam):
    """On a product box with a product density the moments factor: z is
    the product of the factors' z, the barycenter their concatenation and
    the covariance block diagonal."""
    lam = [float(Fraction(x)) for x in lam]
    got = region_moments(*_box(catalog, h, 4), lam)
    d = 2 if factor == "B2" else 1
    parts = [region_moments(*_box(factor, h, d), lam[k:k + d]) for k in range(0, 4, d)]
    cov = np.zeros((4, 4))
    for k, part in zip(range(0, 4, d), parts):
        cov[k:k + d, k:k + d] = part.covariance()
    assert got.z / math.prod(p.z for p in parts) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(np.subtract(got.barycenter(), [x for p in parts for x in p.barycenter()])).max() <= 1e-12
    assert np.abs(got.covariance() - cov).max() <= 1e-12
