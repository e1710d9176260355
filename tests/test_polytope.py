"""Exact polytope construction, triangulation, and lattice points."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcdeg import (Empty, GeometryError, InconsistentInputs, LowerDimensional,
                   Polytope, Unbounded, build_polytope, lattice_points,
                   triangulate, try_build)

coords = st.integers(min_value=-6, max_value=6)
points2 = st.lists(st.tuples(coords, coords), min_size=3, max_size=8)


def test_case1_halfspaces(case1_poly):
    hs = {(tuple(n), b) for n, b in case1_poly.halfspaces}
    assert hs == {((-1, -1), 0), ((-1, 1), 0), ((1, -1), 3), ((1, 0), 3)}
    assert case1_poly.redundant == ()
    assert case1_poly.volume() == Fraction(27, 4)


def test_case1_vertices_roundtrip(case1_poly):
    rebuilt = build_polytope(halfspaces=case1_poly.halfspaces)
    assert set(rebuilt.vertices) == set(case1_poly.vertices)


def test_redundant_inequalities_flagged():
    # index 3 is slack everywhere (min y = -3/2 > -2); index 5 is tight only
    # at the single vertex (2,-1), not on a facet
    hs = [([-1, -1], 0), ([-1, 1], 0), ([1, 0], 2), ([0, -1], 2),
          ([1, -1], 3), ([2, -1], 5)]
    p = build_polytope(halfspaces=hs)
    assert p.redundant == (3, 5)
    q = build_polytope(halfspaces=[h for i, h in enumerate(hs)
                                   if i not in (3, 5)])
    assert set(p.vertices) == set(q.vertices)



def test_coincident_halfspaces_one_facet():
    # x <= 3 and (1/4) x <= 3/4 are one facet of the 3x3 square; keeping both
    # made triangulate fan over it twice (volume 27/2)
    hs = [([1, 0], 3), (["1/4", 0], "3/4"), ([-1, 0], 0), ([0, 1], 3),
          ([0, -1], 0)]
    p = build_polytope(halfspaces=hs)
    assert p.redundant == (1,)
    assert len(p.facets()) == 4
    assert p.volume() == 9

def test_empty_unbounded_lowdim():
    with pytest.raises(Empty):
        build_polytope(halfspaces=[([1], 0), ([-1], -1)])
    with pytest.raises(Unbounded):
        build_polytope(halfspaces=[([1, 0], 1), ([0, 1], 1), ([-1, 0], 0)])
    with pytest.raises(LowerDimensional):
        build_polytope(vertices=[[0, 0], [1, 1]])


def test_try_build_statuses():
    assert try_build([((1,), 0), ((-1,), -1)])[0] == "empty"
    assert try_build([((1, 0), 1), ((0, 1), 1), ((-1, 0), 0)])[0] == "unbounded"
    # the segment x = 1, 0 <= y <= 1
    assert try_build([((1, 0), 1), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)])[0] \
        == "lower-dimensional"
    st_, p = try_build([((1,), 2), ((-1,), 0)])
    assert st_ == "ok" and p.vertices == ((Fraction(0),), (Fraction(2),))


def test_unbounded_set_far_from_offsets_is_not_empty():
    # y >= 1 and x >= 3y: the feasible point (3, 1) lies outside the box of
    # side sum|b| + 1 = 2 that once decided emptiness
    hs = [((0, -1), -1), ((-1, 3), 0)]
    assert try_build(hs) == ("unbounded", None)
    assert all(sum(a * b for a, b in zip(n, (3, 1))) <= b for n, b in hs)
    with pytest.raises(Unbounded):
        build_polytope(halfspaces=hs)


def test_empty_lists_are_inconsistent():
    for kw in ({"halfspaces": []}, {"vertices": []}):
        with pytest.raises(InconsistentInputs, match="empty list"):
            build_polytope(**kw)
    with pytest.raises(InconsistentInputs, match="empty list"):
        try_build([])


def test_contains_boundary(case1_poly):
    assert case1_poly.contains((Fraction(2), Fraction(0)))
    assert case1_poly.contains((3, 0))
    assert not case1_poly.contains((3, 0), strict=True)
    assert not case1_poly.contains((4, 0))


def test_triangulation_volume(case1_poly, case2_poly):
    for p in (case1_poly, case2_poly):
        tris = triangulate(p)
        assert all(len(s) == p.dim + 1 for s in tris)
        total = Fraction(0)
        for (a, b, c) in tris:
            d1 = (b[0] - a[0], b[1] - a[1])
            d2 = (c[0] - a[0], c[1] - a[1])
            total += abs(d1[0] * d2[1] - d1[1] * d2[0]) / Fraction(2)
        assert total == p.volume()


def test_triangulation_deterministic(case2_poly):
    assert triangulate(case2_poly) == triangulate(case2_poly)


def test_cube_3d():
    verts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    cube = build_polytope(vertices=verts)
    assert cube.volume() == 1
    assert len(cube.halfspaces) == 6
    assert len(triangulate(cube)) >= 5


def test_hypercube_4d():
    verts = [[a, b, c, d] for a in (0, 1) for b in (0, 1)
             for c in (0, 1) for d in (0, 1)]
    h = build_polytope(vertices=verts)
    assert h.volume() == 1
    assert len(h.halfspaces) == 8


def test_lattice_points_segment(seg3):
    pts = lattice_points(seg3, 2)
    assert [p[0] for p in pts] == [0, 1, 2, 3, 4, 5, 6]


def test_lattice_points_quad(case1_poly):
    pts = lattice_points(case1_poly, 1)
    assert (Fraction(0), Fraction(0)) in pts
    assert (Fraction(3), Fraction(3)) in pts
    assert all(case1_poly.contains(p) for p in pts)
    # interior integer points of the dilate match a direct scan
    direct = [(x, y) for x in range(-2, 8) for y in range(-5, 8)
              if case1_poly.contains((x, y))]
    assert len(pts) == len(direct)


def test_lattice_points_custom_lattice(seg3, case1_poly):
    pts = lattice_points(seg3, 1, lattice=[[Fraction(1, 2)]])
    assert [p[0] for p in pts] == [Fraction(k, 2) for k in range(7)]
    # a skewed 2-D basis against a direct Fraction scan; the coefficients of
    # points of 2 P stay within 18 in absolute value
    basis = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]
    for k in (1, 2):
        scan = (tuple(a * u + b * v for u, v in zip(*basis))
                for a, b in itertools.product(range(-30, 31), repeat=2))
        direct = sorted(y for y in scan if case1_poly.contains(tuple(c / k for c in y)))
        assert len(direct) >= 17
        assert lattice_points(case1_poly, k, lattice=basis) == direct


@settings(max_examples=60, deadline=None)
@given(points2)
def test_hull_contains_inputs(pts):
    try:
        p = build_polytope(vertices=pts)
    except GeometryError:
        assume(False)
    for q in pts:
        assert p.contains(q)
    assert set(p.vertices) <= {tuple(Fraction(c) for c in q) for q in pts}
    assert p.volume() > 0


@settings(max_examples=40, deadline=None)
@given(points2)
def test_hull_halfspace_roundtrip(pts):
    try:
        p = build_polytope(vertices=pts)
    except GeometryError:
        assume(False)
    rebuilt = build_polytope(halfspaces=p.halfspaces)
    assert set(rebuilt.vertices) == set(p.vertices)
    assert rebuilt.volume() == p.volume()


@settings(max_examples=40, deadline=None)
@given(points2, st.integers(min_value=1, max_value=3))
def test_lattice_points_dilation(pts, k):
    try:
        p = build_polytope(vertices=pts)
    except GeometryError:
        assume(False)
    pk = lattice_points(p, k)
    for q in pk:
        assert p.contains(tuple(c / k for c in q))
    # monotone under dilation: k*p contains the k-fold sums of p's points
    p1 = lattice_points(p, 1)
    assert len(pk) >= len(p1)
