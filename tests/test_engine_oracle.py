"""The planned moment engine against the per-block loop engine it replaced
(engine_oracle.py): every z, first and second moment agrees to 1e-12
relative, and PrecisionLoss is raised in the same cases.

The two engines read the same divided differences in different ways: the
planned one as windows of one matrix exponential per node chain, the
oracle as the corner of one matrix exponential per integral. So their
doubles differ in the last digits, and the difference is measured against
the sum of the absolute values of a moment's terms: that is the scale of
rounding in a sum, and it equals |moment| unless the terms cancel (an
off-diagonal moment that is exactly 0 comes out as 0 in one engine and
-1e-17 in the other).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
from gcdeg import DegenerateSimplex, PrecisionLoss, dh_density, list_presets, triangulate
from gcdeg._poly import Polynomial
from gcdeg.cli import build_from_doc
from gcdeg.expint import MomentEngine
from gcdeg.presets import get_preset

REL = 1e-12


def outcome(engine, lam, orders, **kw):
    """Every moment, or the name of the error raised."""
    try:
        m = engine.moments(lam, orders, **kw)
    except PrecisionLoss:
        return "PrecisionLoss"
    return [m.z, *m.first, *itertools.chain(*m.second)]


def assert_agree(new, old, lam, orders):
    got, want = outcome(new, lam, orders), outcome(old, lam, orders)
    if "PrecisionLoss" in (got, want):
        assert got == want, (lam, orders)
        return
    scale = outcome(old, lam, orders, magnitude=True)
    assert all(abs(a - b) <= REL * m for a, b, m in zip(got, want, scale)), (lam, orders, got, want)


def assert_engines_agree(simplices, pi, lams, orders=(0, 1, 2)):
    new, old = MomentEngine(simplices, pi), engine_oracle.OracleEngine(simplices, pi)
    for lam, k in itertools.product(lams, orders):
        assert_agree(new, old, lam, k)


def box_region(catalog, box):
    verts = [list(v) for v in itertools.product(*[[0, h] for h in box])]
    rs, p, _ = build_from_doc({"root_system": {"catalog": catalog},
                               "polytope": {"vertices": verts, "restrict_to_chamber": True}})
    return triangulate(p), dh_density(rs)


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_presets(name):
    rs, p, _ = build_from_doc(get_preset(name))
    lams = [(0.0,) * rs.dim, (0.3,) + (-0.1,) * (rs.dim - 1), (1.7,) * rs.dim,
            (-2.5,) + (0.8,) * (rs.dim - 1)]
    assert_engines_agree(triangulate(p), dh_density(rs), lams)


@pytest.mark.parametrize("catalog, box", [
    ("B2", ("4", "2")),
    ("A1xB2", ("5/2", "4", "4")),
    ("A1xA1xA1", ("9/4", "5/2", "4")),
    ("A1xA1xA1", ("5/2", "3", "7/2")),
])
def test_ladder_boxes(catalog, box):
    simplices, pi = box_region(catalog, box)
    dim = len(box)
    lams = [(0.0,) * dim, tuple(0.1 * (i + 1) for i in range(dim)),
            tuple(0.7 - 0.4 * i for i in range(dim))]
    assert_engines_agree(simplices, pi, lams)


def test_a1_fourth_power_box():
    simplices, pi = box_region("A1xA1xA1xA1", ("3", "3", "3", "3"))
    assert_engines_agree(simplices, pi, [(0.3, 0.1, 0.2, 0.05), (0.0,) * 4], orders=(1, 2))


def test_b2_squared_box_order0():
    simplices, pi = box_region("B2xB2", ("4", "4", "4", "4"))
    assert_engines_agree(simplices, pi, [(0.3, 0.1, 0.2, 0.05), (0.403, 0.134, 0.262, 0.203)],
                         orders=(0,))


def test_cancellation_raises_in_both():
    # int_0^1 (y - 1/2) dy = 0: the z-moment cancels on the second block
    pi = Polynomial.linear_form([1], Fraction(-1, 2))
    simplices = [((Fraction(2),), (Fraction(3),)), ((Fraction(0),), (Fraction(1),))]
    assert outcome(MomentEngine(simplices, pi), (0.0,), 0) == "PrecisionLoss"
    assert_engines_agree(simplices, pi, [(0.0,), (1e-3,)])


coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeff = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                  st.floats(min_value=-5, max_value=5, allow_nan=False).map(Fraction))


@st.composite
def simplex_density_lam(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    simplex = tuple(tuple(draw(coord) for _ in range(dim)) for _ in range(dim + 1))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * dim)
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=6))
    lam = tuple(draw(st.floats(min_value=-3, max_value=3, allow_nan=False)) for _ in range(dim))
    return simplex, Polynomial(dim, terms), lam


@settings(max_examples=60, deadline=None)
@given(simplex_density_lam(), st.integers(min_value=0, max_value=2))
def test_random_simplices_and_densities(case, orders):
    simplex, pi, lam = case
    try:
        old = engine_oracle.OracleEngine([simplex], pi)
    except DegenerateSimplex:
        with pytest.raises(DegenerateSimplex):
            MomentEngine([simplex], pi)
        return
    assert_agree(MomentEngine([simplex], pi), old, lam, orders)
