"""The double-description polytope layer against the subset-enumeration
oracle in polytope_oracle.py.

Besides these inputs, conftest.py checks every polytope the other tests
build in the same way.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polytope_oracle as oracle
from gcdeg import (RootSystemSpec, build_polytope, build_root_system,
                   coercivity_check, try_build)
from gcdeg._numeric import vec_exact
from gcdeg.cli import build_from_doc
from gcdeg.presets import PRESETS, get_preset

# [0, h_1] x ... x [0, h_n] cut to the dominant chamber
BOXES = [("B2", ("3", "2")), ("A1xB2", ("3", "3", "2")),
         ("A1xA1xA1", ("9/4", "5/2", "4")), ("A1xA1xA1", ("5/2", "3", "7/2")),
         ("A1xA1xA1xA1", ("3", "3", "3", "3")), ("B2xB2", ("4", "4", "4", "4"))]


def _check_certificate(rs, p):
    expected = oracle.coercivity_certificate(rs, p.vertices)
    rep = coercivity_check(rs, p)
    assert rep.coercive == (expected is None)
    assert rep.certificate == (None if expected is None else tuple(map(float, expected)))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_match_oracle(name):
    doc = get_preset(name)["polytope"]
    if "vertices" in doc:
        vs = tuple(vec_exact(v) for v in doc["vertices"])
        hs = oracle.hull_halfspaces(vs, len(vs[0]))
    else:
        hs = [(item["normal"], item["offset"]) for item in doc["inequalities"]]
    status, p = try_build(hs)
    oracle.check_build(hs, status, p)
    rs, p_doc, _ = build_from_doc(get_preset(name))
    assert p_doc.halfspaces == p.halfspaces and p_doc.redundant == p.redundant
    _check_certificate(rs, p)


@pytest.mark.parametrize("catalog,box", BOXES)
def test_chamber_boxes_match_oracle(catalog, box):
    rs = build_root_system(RootSystemSpec(catalog=catalog))
    vs = tuple(vec_exact(v) for v in itertools.product(*[[0, h] for h in box]))
    chamber = [oracle.normalize_halfspace(tuple(-x for x in a), Fraction(0))
               for a in map(vec_exact, rs.simple_roots)]
    hs = oracle.hull_halfspaces(vs, len(box)) + chamber
    p = build_polytope(vertices=vs, rs=rs, append_chamber=True)
    assert p.halfspaces == tuple(hs)
    oracle.check_build(hs, "ok", p)
    if rs.rank < 4:      # the oracle's certificate takes seconds at rank 4
        _check_certificate(rs, p)


def test_certificate_is_lexicographically_smallest_ray(rs_so4):
    # the whole chamber fails; its rays (1, -1) and (1, 1) have root
    # coordinates q = (2, 0) and (0, 2)
    tri = build_polytope(vertices=[[0, 0], [1, 1], [1, -1]])
    assert coercivity_check(rs_so4, tri).certificate == (0.5, 0.5)
    _check_certificate(rs_so4, tri)


@st.composite
def halfspace_sets(draw):
    dim = draw(st.integers(1, 3))
    coef = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(st.tuples(*[coef] * dim), st.integers(-4, 4)),
                         min_size=1, max_size=6))
    # duplicates, as copies and as multiples; a negative multiple makes an
    # equality, so the set may be lower-dimensional
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        k = draw(st.sampled_from([1, 2, 3, -1]))
        rows.append((tuple(k * x for x in rows[i][0]), k * rows[i][1]))
    # zero normals with offsets of either sign
    rows += [((0,) * dim, b) for b in draw(st.lists(st.integers(-1, 1), max_size=1))]
    if draw(st.booleans()):
        rows += [(tuple(s * int(i == j) for j in range(dim)), 5)
                 for i in range(dim) for s in (1, -1)]
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(halfspace_sets())
def test_random_halfspace_sets_match_oracle(hs):
    status, p = try_build(hs)
    oracle.check_build(hs, status, p)
