"""The dual basis of a root system and the one chamber test.

The coweights, the central basis and the root coefficients come from
`RootSystem`; every chamber decision goes through `RootSystem.in_chamber`.
Oracles: Levi partitions against an exact span test, and frame covariance,
where an isomorphism of root systems must carry every minimizer report leaf
to the other frame's.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from gcdeg import (NotDominant, NotDominantPiece, RootSystemSpec, build_polytope,
                   build_root_system, central_fibre_report, from_vector, h_plfunction,
                   h_vector, minimize_h, pl_concave, stability_verdict)
from gcdeg._numeric import dot, mat_rank, solve_exact
from gcdeg.cli import build_from_doc
from gcdeg.minimize import MinimizerReport, MinimizeOptions, CoercivityReport

from conftest import run_cli

CATALOG = ["A1", "A1xA1", "A2", "B2", "G2", "A1xB2", "A2xA1", "B2xB2",
           "A1xA1xA1xA1", "G2xA2"]
SPECS = [RootSystemSpec(catalog=c) for c in CATALOG] + [
    RootSystemSpec(catalog="A1", central_rank=1),
    RootSystemSpec(catalog="A2", central_rank=2),
    RootSystemSpec(simple_roots=[[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]]),
    RootSystemSpec(simple_roots=[[1, -1], [0, 2]]),
    RootSystemSpec(simple_roots=[[1, -1, 0], [0, 1, -1]]),
]
SPEC_IDS = CATALOG + ["A1+T1", "A2+T2", "D4", "C2", "A2-in-Q3"]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_dual_basis(spec):
    rs = build_root_system(spec)
    simple = rs.simple_roots
    assert [[dot(a, w) for w in rs.coweights] for a in simple] == \
        [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    # coweights lie in the root span; the central basis completes it
    assert mat_rank(list(simple) + list(rs.coweights)) == rs.rank
    assert len(rs.central_basis) == rs.dim - rs.rank
    assert all(dot(a, u) == 0 for a in simple for u in rs.central_basis)
    assert mat_rank(list(rs.coweights) + list(rs.central_basis)) == rs.dim
    assert len(rs.positive_coefficients) == len(rs.positive_roots)
    for root, coeffs in zip(rs.positive_roots, rs.positive_coefficients):
        assert all(isinstance(c, int) and c >= 0 for c in coeffs)
        assert root == tuple(sum(c * a[t] for c, a in zip(coeffs, simple)) for t in range(rs.dim))
        assert rs.root_coefficients(root) == (coeffs, 0.0)


def test_root_coefficients_residual_is_central():
    rs = build_root_system(RootSystemSpec(catalog="A1", central_rank=1))
    coeffs, res = rs.root_coefficients((Fraction(3), Fraction(4)))
    assert coeffs == (Fraction(3, 2),) and res == 4.0


# -- the chamber test ---------------------------------------------------------

def test_in_chamber_exact_and_float(rs_so4):
    tiny = Fraction(1, 10 ** 8)
    assert rs_so4.in_chamber((20, -20))                     # on the alpha2 wall
    assert not rs_so4.in_chamber((20, -20 - tiny))
    assert not rs_so4.in_chamber(("20", "-20.00000001"))
    # floats: t = (40.00000001, -1e-8) is within 1e-9 max(1, max |t|)
    assert rs_so4.in_chamber((20.0, -20.00000001))
    assert not rs_so4.in_chamber((20.0, -20.0001))
    assert not rs_so4.in_chamber((0.0, -2e-9))


def test_in_chamber_tolerance_reads_root_coordinates():
    """The float tolerance scales with the t_i, not with the coordinates:
    a large central component does not widen it."""
    rs = build_root_system(RootSystemSpec(catalog="A1", central_rank=1))
    assert rs.in_chamber((-0.25e-9, 1e6))
    assert not rs.in_chamber((-2e-9, 1e6))


def test_is_dominant_is_in_chamber_of_the_functional():
    rs = build_root_system(RootSystemSpec(catalog="A2"))
    for y in itertools.product(range(-3, 4), repeat=2):
        assert rs.is_dominant(y) == rs.in_chamber(rs.functional(y)) == (min(y) >= 0)


def test_float_slope_gets_one_answer(rs_so4, case1_poly):
    lam = (20.0, -20.00000001)
    hb = h_vector(rs_so4, case1_poly, lam)
    f = from_vector(rs_so4, case1_poly, lam)
    assert np.isfinite(hb.h) and f.pieces[0][1] == tuple(map(Fraction, lam))
    # h_plfunction keeps the datum's decision, though the stored slope is
    # the exact binary value, just outside the chamber
    assert not rs_so4.in_chamber(f.pieces[0][1])
    assert np.isfinite(h_plfunction(rs_so4, case1_poly, from_vector(rs_so4, case1_poly, lam, 1)).h)
    g = pl_concave(rs_so4, case1_poly, [(0, lam), (1, (1.0, 0.5))])
    assert g.nondominant_pieces == () and np.isfinite(h_plfunction(rs_so4, case1_poly, g).h)
    lam = (20.0, -20.0001)
    with pytest.raises(NotDominant):
        h_vector(rs_so4, case1_poly, lam)
    with pytest.raises(NotDominant):
        from_vector(rs_so4, case1_poly, lam)


def test_h_plfunction_rejects_a_flagged_piece(rs_so4, case1_poly):
    f = pl_concave(rs_so4, case1_poly, [(0, (20, -20 - Fraction(1, 10 ** 8)))], strict=False)
    assert f.nondominant_pieces == (0,)
    with pytest.raises(NotDominantPiece):
        h_plfunction(rs_so4, case1_poly, f)


def test_not_dominant_messages_print_no_reprs(rs_so4, case1_poly):
    lam = (Fraction(20), -20 - Fraction(1, 10 ** 8))
    msgs = []
    for call in (lambda: from_vector(rs_so4, case1_poly, lam),
                 lambda: h_vector(rs_so4, case1_poly, lam),
                 lambda: h_vector(rs_so4, case1_poly, np.array([-0.5, 0.0])),
                 lambda: h_plfunction(rs_so4, case1_poly,
                                      pl_concave(rs_so4, case1_poly, [(0, lam)], strict=False)),
                 lambda: pl_concave(rs_so4, case1_poly, [(0, lam)])):
        with pytest.raises((NotDominant, NotDominantPiece)) as e:
            call()
        msgs.append(str(e.value))
    assert not any("Fraction(" in m for m in msgs), msgs
    assert msgs[0] == "(20, -2000000001/100000000) is outside the closed dominant chamber"
    assert msgs[2] == "(-0.5, 0) is outside the closed dominant chamber"
    assert msgs[3] == \
        "piece slope (20, -2000000001/100000000) is outside the closed dominant chamber"


def test_cli_chamber_decision():
    code, out, err = run_cli(["h-eval", "--preset", "so4-case1", "--f", "linear:20.0,-20.00000001"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "NotDominant"
    assert error["message"] == "(20, -2000000001/100000000) is outside the closed dominant chamber"
    assert "Fraction(" not in out + err
    code, _, _ = run_cli(["h-eval", "--preset", "so4-case1", "--f", "linear:20,-20"])
    assert code == 0


# -- Levi partition against an exact span test -------------------------------

def _in_span(alpha, basis) -> bool:
    """alpha in span(basis), exact rational test."""
    if not basis:
        return all(x == 0 for x in alpha)
    rows = [[b[i] for b in basis] for i in range(len(alpha))]
    return solve_exact(rows, alpha) is not None


def _report_on(active, dim):
    return MinimizerReport(
        lambda0=(0.0,) * dim, h_min=0.0, active_set=active, active_roots=(),
        multipliers=(1.0,) * len(active), b_lambda0=(0.0,) * dim, grad_norm=0.0,
        kkt_residual=0.0, iterations=0, face_visits=(), accepted_face=active,
        coercivity=CoercivityReport(True, (), None), converged=True,
        options=MinimizeOptions())


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_levi_partition_matches_span_test(spec):
    rs = build_root_system(spec)
    for k in range(rs.rank + 1):
        for active in itertools.combinations(range(rs.rank), k):
            cf = central_fibre_report(rs, _report_on(active, rs.dim))
            basis = [rs.simple_roots[i] for i in active]
            levi = [a for a in rs.positive_roots if _in_span(a, basis)]
            split = [a for a in rs.positive_roots if not _in_span(a, basis)]
            assert cf.levi_positive_roots == tuple(tuple(float(x) for x in a) for a in levi)
            assert cf.split_positive_roots == tuple(tuple(float(x) for x in a) for a in split)


# -- frame covariance ----------------------------------------------------------
# An isomorphism of root systems is a rational map M on weights with
# M alpha_i = alpha_sigma(i). Slopes map by M^-T, the density by a constant
# factor, so h is invariant and every report leaf maps.

def _box(rs_doc, lo, hi):
    n = len(lo)
    rows = [{"normal": [int(j == i) for j in range(n)], "offset": hi[i]} for i in range(n)]
    rows += [{"normal": [-int(j == i) for j in range(n)], "offset": str(-Fraction(lo[i]))}
             for i in range(n)]
    return {"root_system": rs_doc, "polytope": {"inequalities": rows, "restrict_to_chamber": True}}


def _pipeline(rs, poly):
    rep = minimize_h(rs, poly)
    return rep, stability_verdict(rs, rep, central_fibre_report(rs, rep))


PAIRS = {
    # B2 (alpha1 long) and C2 as custom roots (e1 - e2, 2 e2)
    "B2-C2": ({"catalog": "B2"}, {"simple_roots": [[1, -1], [0, 2]]}, [[1, 1], [1, -1]], (1, 0)),
    # the diagram swap varpi1 <-> varpi2 of A2
    "A2-swap": ({"catalog": "A2"}, {"catalog": "A2"}, [[0, 1], [1, 0]], (1, 0)),
    # the SO4 frame and the coordinate frame (e1, e2)
    "A1xA1-frames": ({"catalog": "A1xA1"}, {"simple_roots": [[1, 0], [0, 1]]},
                     [["1/2", "-1/2"], ["1/2", "1/2"]], (0, 1)),
    "A1xB2-B2xA1": ({"catalog": "A1xB2"}, {"catalog": "B2xA1"},
                    [[0, 1, 0], [0, 0, 1], [1, 0, 0]], (2, 0, 1)),
}
# Known faults, kept visible: on these A2 boxes Newton's free face runs out
# to |lambda| ~ 355, where the moments overflow and NumPy warns (the warnings
# are errors here); and Newton stops at |g| <= grad_tol = 1e-10, which on a
# flat face leaves lambda0 off by 8e-10 (ROADMAP item 19).
WARNS = pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                          reason="free-face Newton overflows the moments and NumPy warns")
WARNS_AND_STOP = pytest.mark.xfail(
    strict=True, reason="NumPy warns on the free face; past that, the Newton stop "
    "leaves lambda0 off by 8e-10 in one frame")
BOXES = [
    ("B2-C2", (0, 0), ("31/10", 3)),           # minimizer on the alpha2 wall
    ("B2-C2", (0, 0), ("33/10", "5/4")),       # on the alpha1 wall
    ("B2-C2", (0, 0), (4, 4)),                 # at the apex
    ("A2-swap", (0, 0), (4, 4)),               # at the apex
    ("A2-swap", (0, 0), (3, "13/2")),          # at the apex
    pytest.param("A2-swap", (0, 0), ("7/2", 2), marks=WARNS),
    pytest.param("A2-swap", (1, 0), (2, 3), marks=WARNS),
    pytest.param("A2-swap", (0, 0), (2, 3), marks=WARNS_AND_STOP),
    ("A1xA1-frames", (0, "-3/2"), (3, 3)),     # at the apex
    ("A1xA1-frames", (0, 0), (3, 3)),          # on the alpha2 wall
    ("A1xB2-B2xA1", (0, 0, 0), (3, "31/10", 3)),  # on the A1 and the B2 alpha2 walls
]


@pytest.mark.parametrize("pair, lo, hi", BOXES)
def test_frame_covariance(pair, lo, hi):
    src, dst, M, sigma = PAIRS[pair]
    rs, poly, _ = build_from_doc(_box(src, lo, hi))
    rs2 = build_root_system(RootSystemSpec(catalog=dst.get("catalog"),
                                           simple_roots=dst.get("simple_roots")))
    M = [[Fraction(x) for x in row] for row in M]
    assert [tuple(dot(row, a) for row in M) for a in rs.simple_roots] == \
        [rs2.simple_roots[sigma[i]] for i in range(rs.rank)]
    poly2 = build_polytope(vertices=[[dot(row, v) for row in M] for v in poly.vertices])
    rep, verdict = _pipeline(rs, poly)
    rep2, verdict2 = _pipeline(rs2, poly2)

    assert abs(rep.h_min - rep2.h_min) <= 1e-12
    lam = np.linalg.solve(np.array(M, dtype=float).T, rep.lambda0)      # M^-T lambda0
    assert np.abs(lam - np.array(rep2.lambda0)).max() <= 1e-10
    assert sorted(sigma[i] for i in rep.active_set) == list(rep2.active_set)
    mults2 = dict(zip(rep2.active_set, rep2.multipliers))
    assert all(abs(m - mults2[sigma[i]]) <= 1e-10 for i, m in zip(rep.active_set, rep.multipliers))
    assert verdict.kind == verdict2.kind
