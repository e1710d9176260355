"""Root system construction, reflection closure, and the density."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdeg import (InvalidCartanDatum, RootSystemSpec, UnknownCatalogName,
                   build_root_system, chamber_rays, dh_density, dominant_representative)
from gcdeg._numeric import dot

rationals = st.fractions(min_value=-8, max_value=8,
                         max_denominator=12)


def _norm2(v):
    return sum(Fraction(x) * Fraction(x) for x in v)


def test_a1_catalog():
    rs = build_root_system(RootSystemSpec(catalog="A1"))
    assert rs.dim == 1 and rs.rank == 1
    assert rs.simple_roots == ((Fraction(2),),)
    assert set(rs.positive_roots) == {(Fraction(2),)}
    assert rs.two_rho == (Fraction(2),)
    pi = dh_density(rs)
    assert pi.eval_exact((Fraction(3),)) == 36          # 4 y^2 at y = 3


def test_a1xa1_catalog():
    rs = build_root_system(RootSystemSpec(catalog="A1xA1"))
    assert rs.dim == 2 and rs.rank == 2
    assert set(rs.positive_roots) == {(1, -1), (1, 1)}
    assert rs.two_rho == (2, 0)
    pi = dh_density(rs)
    # (x - y)^2 (x + y)^2 at (3, 1)
    assert pi.eval_exact((Fraction(3), Fraction(1))) == 4 * 16


def test_b2_catalog():
    rs = build_root_system(RootSystemSpec(catalog="B2"))
    assert len(rs.positive_roots) == 4
    assert rs.two_rho == (3, 1)


def test_a2_g2_closures():
    a2 = build_root_system(RootSystemSpec(catalog="A2"))
    assert len(a2.positive_roots) == 3
    g2 = build_root_system(RootSystemSpec(catalog="G2"))
    assert len(g2.positive_roots) == 6
    # 2rho = 2 (w1 + w2) in fundamental-weight coordinates
    assert a2.two_rho == g2.two_rho == (2, 2)
    # A Q A^T is the Cartan Gram matrix; each Q alpha_i is a multiple of e_i
    for rs, gram in ((a2, [[2, -1], [-1, 2]]), (g2, [[2, -3], [-3, 6]])):
        assert [[rs.pair(a, b) for b in rs.simple_roots] for a in rs.simple_roots] == gram
        assert [rs.functional(a)[1 - i] for i, a in enumerate(rs.simple_roots)] == [0, 0]


def test_composite_catalog_names():
    rs = build_root_system(RootSystemSpec(catalog="A1xA1xA1"))
    assert rs.dim == 3 and rs.rank == 3
    assert len(rs.positive_roots) == 3


def test_central_rank_padding():
    rs = build_root_system(RootSystemSpec(catalog="A1", central_rank=1))
    assert rs.dim == 2 and rs.rank == 1 and rs.central_rank == 1
    assert rs.simple_roots == ((2, 0),)
    assert rs.two_rho == (2, 0)


def test_unknown_catalog():
    with pytest.raises(UnknownCatalogName):
        build_root_system(RootSystemSpec(catalog="E9"))


def test_invalid_cartan_data():
    # pair of roots with non-integer Cartan number
    with pytest.raises(InvalidCartanDatum):
        build_root_system(RootSystemSpec(simple_roots=[[1, 0], [0.3, 1.1]]))
    # dependent roots
    with pytest.raises(InvalidCartanDatum):
        build_root_system(RootSystemSpec(simple_roots=[[1, 0], [2, 0]]))


def test_spec_requires_exactly_one_source():
    with pytest.raises(Exception):
        build_root_system(RootSystemSpec())


def test_reflection_involution(rs_so4):
    v = (Fraction(5, 2), Fraction(-1, 3))
    w = rs_so4.reflect(0, rs_so4.reflect(0, v))
    assert tuple(w) == v


def test_pairing_table(rs_so4):
    a1, a2 = rs_so4.simple_roots
    assert rs_so4.pair(a1, a1) == 2
    assert rs_so4.pair(a1, a2) == 0


def test_root_coefficients_exact(rs_so4):
    coeffs, resid = rs_so4.root_coefficients((3, 1))
    # (3,1) = 1*(1,-1) + 2*(1,1)
    assert list(coeffs) == [1, 2]
    assert resid == 0


def test_dominant_representative_word(rs_so4):
    y = (Fraction(-3), Fraction(1))
    rep, word = dominant_representative(rs_so4, y)
    assert rs_so4.is_dominant(rep)
    cur = y
    for i in word:
        cur = rs_so4.reflect(i, cur)
    assert tuple(cur) == tuple(rep)


@settings(max_examples=60, deadline=None)
@given(st.tuples(rationals, rationals))
def test_dominant_representative_properties(v):
    rs = build_root_system(RootSystemSpec(catalog="A1xA1"))
    rep, word = dominant_representative(rs, v)
    assert rs.is_dominant(rep)
    assert _norm2(rep) == _norm2(v)      # Weyl orbit preserves the norm
    cur = tuple(Fraction(x) for x in v)
    for i in word:
        cur = tuple(rs.reflect(i, cur))
    assert cur == tuple(rep)


CATALOG_CASES = [("A1", 0), ("A1xA1", 0), ("A2", 0), ("B2", 0), ("G2", 0),
                 ("A1xB2", 0), ("A2xA1", 0), ("A1", 1)]


@pytest.mark.parametrize("name, central", CATALOG_CASES,
                         ids=[f"{n}+{c}" if c else n for n, c in CATALOG_CASES])
@settings(max_examples=40, deadline=None)
@given(v=st.tuples(rationals, rationals, rationals))
def test_reflections_permute_roots(name, central, v):
    """Simple reflections permute the roots and fix the density exactly;
    the chamber rays are dual to the simple roots."""
    rs = build_root_system(RootSystemSpec(catalog=name, central_rank=central))
    y = v[:rs.dim]
    roots = set(rs.positive_roots) | {tuple(-x for x in a)
                                      for a in rs.positive_roots}
    pi = dh_density(rs)
    for i in range(rs.rank):
        for a in roots:
            assert tuple(rs.reflect(i, a)) in roots
        assert pi.eval_exact(rs.reflect(i, y)) == pi.eval_exact(y)
    rays, _ = chamber_rays(rs)
    assert [[dot(a, w) for w in rays] for a in rs.simple_roots] == \
        [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]


def test_float_simple_roots_read_exactly():
    # exact binary floats give B2; an orthonormal A2 frame has sqrt 3 in it
    rs = build_root_system(RootSystemSpec(simple_roots=[[1.0, -1.0], [0.0, 1.0]]))
    assert rs.cartan_matrix == ((2, -2), (-1, 2))
    with pytest.raises(InvalidCartanDatum):
        build_root_system(RootSystemSpec(simple_roots=[[1.0, 0.0], [-0.5, math.sqrt(3) / 2]]))


def test_density_degree(rs_so4):
    pi = dh_density(rs_so4)
    assert pi.degree() == 4
    # vanishes to second order on each wall
    assert pi.eval_exact((Fraction(1), Fraction(1))) == 0
    assert pi.eval_exact((Fraction(1), Fraction(-1))) == 0
