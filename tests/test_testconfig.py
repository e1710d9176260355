"""PL data: filtration tables, semivaluations, rational approximation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdeg import (ComponentOutsidePolytope, InconsistentInputs, NotDominant,
                   NotDominantPiece, RootSystemSpec, WeightedElement, approximate_p,
                   build_polytope, build_root_system, check_superadditive,
                   check_table, filtration_table, from_vector, lattice_points,
                   pl_concave, semivaluation_eval, table_from_values)
from gcdeg._numeric import int_matmul, int_points, mat_rank, solve_exact, to_exact
from gcdeg.testconfig import piece_minima

# slope coefficients in chamber coordinates: lam = (s + t, t - s)/2 is
# dominant for s, t >= 0
chamber_coeff = st.fractions(min_value=0, max_value=2, max_denominator=4)
offsets = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _dominant_slope(s, t):
    return ((s + t) / 2, (t - s) / 2)


def random_pl(rs, poly, data):
    pieces = [(c, _dominant_slope(s, t)) for c, s, t in data]
    return pl_concave(rs, poly, pieces)


def test_sl2_filtration_values(rs_a1, seg3):
    f = from_vector(rs_a1, seg3, [Fraction(1, 2)])
    t2 = filtration_table(f, 2)
    assert [p[0] for p in t2.points] == list(range(7))
    assert list(t2.values) == [Fraction(-k, 2) for k in range(7)]
    assert t2.rational
    assert t2.gamma_rank == 1 and t2.gamma_rank_mode == "exact"
    assert max(t2.gamma_shifted) == 0
    assert t2.violations["ok"]


def test_superadditivity_sl2(rs_a1, seg3):
    f = from_vector(rs_a1, seg3, [Fraction(1, 2)])
    t1 = filtration_table(f, 1)
    t2 = filtration_table(f, 2)
    t3 = filtration_table(f, 3)
    assert check_superadditive(t1, t1, t2)["ok"]
    assert check_superadditive(t1, t2, t3)["ok"]
    with pytest.raises(InconsistentInputs):
        check_superadditive(t1, t1, t3)


def test_non_concave_values_flagged(rs_a1, seg3):
    table = table_from_values(rs_a1, seg3, 1, [1, 0, 1, 0])
    assert not table.violations["ok"]
    assert ((Fraction(0),), (Fraction(2),), (Fraction(1),)) \
        in table.violations["concavity"]
    assert ((Fraction(1),), (Fraction(2),)) in table.violations["dominance"]


def test_gamma_rank_modes(rs_a1, seg3):
    const = table_from_values(rs_a1, seg3, 1, [2, 2, 2, 2])
    assert const.gamma_rank == 0
    floats = table_from_values(rs_a1, seg3, 1, [0.0, -0.5, -1.0, -1.5])
    assert floats.gamma_rank == 1 and floats.gamma_rank_mode == "numeric"
    irr = table_from_values(rs_a1, seg3, 1, [0.0, -1.0, -math.sqrt(2), -3.0])
    assert irr.gamma_rank == 2 and irr.gamma_rank_mode == "numeric"


def test_float_slope_table_is_not_rational(rs_so4, case1_poly):
    # the values are exact Fractions of the binary slopes, but the datum is not
    f = from_vector(rs_so4, case1_poly, [0.33, 0.25])
    assert not f.rational
    t = filtration_table(f, 4)
    assert not t.rational and t.gamma_rank_mode == "numeric"


@pytest.mark.parametrize("slope", [(Fraction(1, 3), Fraction(1, 4)), ("33/100", "1/4")])
def test_exact_slope_table_equals_table_from_values(rs_so4, case1_poly, slope):
    f = from_vector(rs_so4, case1_poly, slope)
    t = filtration_table(f, 4)
    assert t.rational and t.gamma_rank_mode == "exact"
    assert t == table_from_values(rs_so4, case1_poly, 4, t.values, points=t.points)


def test_semivaluation_min_rule(rs_a1, seg3):
    f = from_vector(rs_a1, seg3, [Fraction(1, 2)])
    sigma = WeightedElement.of([((1,), 1), ((4,), 2)])
    assert semivaluation_eval(f, sigma) == Fraction(-2)
    with pytest.raises(ComponentOutsidePolytope):
        semivaluation_eval(f, WeightedElement.of([((7,), 2)]))


def test_weighted_element_validation():
    with pytest.raises(InconsistentInputs):
        WeightedElement.of([])
    with pytest.raises(InconsistentInputs):
        WeightedElement.of([((1,), 0)])


def test_from_vector_requires_dominant(rs_so4, case1_poly):
    with pytest.raises(NotDominant):
        from_vector(rs_so4, case1_poly, [0, 1])


def test_strict_flagging(rs_so4, case1_poly):
    with pytest.raises(NotDominantPiece):
        pl_concave(rs_so4, case1_poly, [(0, (0, 1))])
    f = pl_concave(rs_so4, case1_poly, [(0, (0, 1))], strict=False)
    assert f.nondominant_pieces == (0,)


def test_approximation_sandwich_1d(rs_a1, seg3):
    f = from_vector(rs_a1, seg3, [Fraction(1, 2)])
    for p in (1, 5):
        fp = approximate_p(f, p)
        q = 4 * p
        for pt in lattice_points(seg3, q):
            x = (pt[0] / q,)
            gap = fp.eval(x) - f.eval(x)
            assert 0 <= gap <= Fraction(1, p)


def test_approximation_sandwich_2d(rs_so4, case1_poly):
    f = pl_concave(rs_so4, case1_poly,
                   [(Fraction(2), (Fraction(1, 2), Fraction(1, 2))),
                    (Fraction(3), (Fraction(1), Fraction(1)))])
    fp = approximate_p(f, 4, q=8)
    for pt in lattice_points(case1_poly, 8):
        x = tuple(c / 8 for c in pt)
        gap = fp.eval(x) - f.eval(x)
        assert 0 <= gap <= Fraction(1, 4)


def test_approximation_is_rational(rs_so4, case1_poly):
    f = from_vector(rs_so4, case1_poly, [0.33, 0.25])
    fp = approximate_p(f, 3, q=6)
    assert fp.rational


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(offsets, chamber_coeff, chamber_coeff),
                min_size=1, max_size=4))
def test_tables_of_pl_functions_are_admissible(data):
    from gcdeg import RootSystemSpec, build_polytope, build_root_system
    rs = build_root_system(RootSystemSpec(catalog="A1xA1"))
    poly = build_polytope(vertices=[[0, 0], [3, 3], [3, 0],
                                    [Fraction(3, 2), Fraction(-3, 2)]])
    f = random_pl(rs, poly, data)
    t1 = filtration_table(f, 1)
    t2 = filtration_table(f, 2)
    assert t1.violations["ok"], t1.violations
    assert t2.violations["ok"], t2.violations
    assert check_superadditive(t1, t1, t2)["ok"]


@settings(max_examples=25, deadline=None)
@given(st.tuples(offsets, chamber_coeff, chamber_coeff),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=4))
def test_semivaluation_matches_table(piece, mu, k):
    from gcdeg import RootSystemSpec, build_polytope, build_root_system
    rs = build_root_system(RootSystemSpec(catalog="A1"))
    poly = build_polytope(vertices=[[0], [3]])
    c, s, _ = piece
    f = pl_concave(rs, poly, [(c, (s,))])
    if not poly.contains((Fraction(mu, k),)):
        return
    table = filtration_table(f, k)
    val = semivaluation_eval(f, WeightedElement.of([((mu,), k)]))
    assert val == dict(zip(table.points, table.values))[(Fraction(mu),)]


# -- brute-force Fraction oracles for the integer table checks ---------------

def _root_coords_oracle(rs, points):
    """Simple-root coordinates and off-span residual per point, one exact
    Gram solve each on the exact (binary, for float data) roots."""
    roots = [tuple(to_exact(x) for x in a) for a in rs.simple_roots]
    gram = [[sum(x * y for x, y in zip(a, b)) for b in roots] for a in roots]
    coords = []
    for p in points:
        p = tuple(to_exact(x) for x in p)
        c = solve_exact(gram, [sum(x * y for x, y in zip(a, p)) for a in roots])
        recon = tuple(sum(c[j] * roots[j][i] for j in range(rs.rank)) for i in range(rs.dim))
        coords.append((tuple(c), tuple(p[i] - recon[i] for i in range(rs.dim))))
    return coords


def check_table_oracle(rs, table):
    """All-pairs Fraction version of check_table."""
    pts = table.points
    vals = table.values
    index = {p: i for i, p in enumerate(pts)}
    coords = _root_coords_oracle(rs, pts)
    dominance = []
    concavity = []
    n = len(pts)
    for i in range(n):
        ci, ri = coords[i]
        for j in range(n):
            if i == j:
                continue
            cj, rj = coords[j]
            if ri != rj:
                continue
            if all(cj[t] - ci[t] >= 0 for t in range(rs.rank)) and vals[i] < vals[j]:
                dominance.append((pts[i], pts[j]))
        for j in range(i + 1, n):
            mid = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
            m = index.get(mid)
            if m is not None and 2 * vals[m] < vals[i] + vals[j]:
                concavity.append((pts[i], pts[j], mid))
    return {"dominance": dominance, "concavity": concavity,
            "ok": not dominance and not concavity}


def check_superadditive_oracle(t1, t2, t12):
    """All-pairs Fraction version of check_superadditive."""
    lookup = t12.as_dict()
    violations = []
    missing = []
    for p1, v1 in zip(t1.points, t1.values):
        for p2, v2 in zip(t2.points, t2.values):
            s = tuple(a + b for a, b in zip(p1, p2))
            v12 = lookup.get(s)
            if v12 is None:
                missing.append(s)
            elif v12 < v1 + v2:
                violations.append((p1, p2, s))
    return {"violations": violations, "missing": missing,
            "ok": not violations and not missing}


def _random_table(rs, poly, k, rng, lattice=None, denominator=4):
    pts = lattice_points(poly, k, lattice)
    vals = [Fraction(int(v), denominator) for v in rng.integers(-12, 13, len(pts))]
    return table_from_values(rs, poly, k, vals, points=pts)


def _assert_checks_match(rs, tables):
    for t in tables:
        assert t.violations == check_table_oracle(rs, t)
    for t1 in tables:
        for t2 in tables:
            for t12 in tables:
                if t1.k + t2.k == t12.k:
                    assert check_superadditive(t1, t2, t12) == \
                        check_superadditive_oracle(t1, t2, t12)


def test_check_table_matches_oracle_so4(rs_so4, case1_poly):
    rng = np.random.default_rng(5)
    tables = [_random_table(rs_so4, case1_poly, k, rng) for k in (1, 2, 3)]
    assert tables[2].violations["dominance"] and tables[2].violations["concavity"]
    assert not check_superadditive(tables[0], tables[1], tables[2])["ok"]
    _assert_checks_match(rs_so4, tables)
    # a level-3 table missing some sums
    half = table_from_values(rs_so4, case1_poly, 3, tables[2].values[::2],
                             points=tables[2].points[::2])
    got = check_superadditive(tables[0], tables[1], half)
    assert got["missing"] and got == check_superadditive_oracle(tables[0], tables[1], half)


def test_check_table_matches_oracle_a2():
    rs = build_root_system(RootSystemSpec(catalog="A2"))
    poly = build_polytope(vertices=[[0, 0], [4, 0], [4, 4], [0, 4]])
    rng = np.random.default_rng(6)
    tables = [_random_table(rs, poly, k, rng) for k in (1, 2, 3)]
    assert tables[2].violations["dominance"]
    _assert_checks_match(rs, tables)
    f = from_vector(rs, poly, [0.5, 0.9])
    concave = [filtration_table(f, k) for k in (1, 2)]
    _assert_checks_match(rs, concave)
    for t in concave:
        assert t.values == tuple(t.k * f.eval(tuple(x / t.k for x in p)) for p in t.points)
        assert t.violations["ok"]


def test_check_table_matches_oracle_custom_lattice(rs_so4, case1_poly):
    lattice = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1, 3)]]
    rng = np.random.default_rng(7)
    tables = [_random_table(rs_so4, case1_poly, k, rng, lattice) for k in (1, 2)]
    assert any(x.denominator > 1 for p in tables[1].points for x in p)
    assert tables[1].violations["dominance"] and tables[1].violations["concavity"]
    _assert_checks_match(rs_so4, tables)


def test_check_table_repeated_points_match_oracle(rs_so4, case1_poly):
    """Points listed twice: the later entry wins the midpoint and sum
    lookups, as in a dict."""
    rng = np.random.default_rng(9)

    def repeated(k):
        pts = lattice_points(case1_poly, k)
        pts = pts + pts[::3]
        vals = [Fraction(int(v)) for v in rng.integers(-6, 7, len(pts))]
        return table_from_values(rs_so4, case1_poly, k, vals, points=pts)

    t1, t2 = repeated(1), repeated(2)
    for t in (t1, t2):
        assert t.violations == check_table_oracle(rs_so4, t)
    assert check_superadditive(t1, t1, t2) == check_superadditive_oracle(t1, t1, t2)


def test_check_table_central_torus_residuals():
    """Points off the root span are compared only along the span."""
    rs = build_root_system(RootSystemSpec(catalog="A1", central_rank=1))
    poly = build_polytope(vertices=[[0, 0], [3, 0], [3, 2], [0, 2]])
    rng = np.random.default_rng(8)
    tables = [_random_table(rs, poly, k, rng) for k in (1, 2)]
    assert tables[1].violations["dominance"]
    _assert_checks_match(rs, tables)


# -- int64 bound and the Python-int fallback ---------------------------------

_HUGE = 10 ** 20


def _huge_pl(rs, poly):
    pieces = [(Fraction(1, _HUGE + 7), _dominant_slope(Fraction(1, _HUGE + 3), Fraction(5, _HUGE + 9))),
              (Fraction(-3, _HUGE + 1), _dominant_slope(Fraction(7, _HUGE + 11), Fraction(2, _HUGE + 13)))]
    return pl_concave(rs, poly, pieces)


def test_piece_minima_int64_on_benchmark_data(rs_so4, case1_poly):
    """The criterion-7 style data (quarter-grid slopes) stays on int64."""
    f = random_pl(rs_so4, case1_poly, [(Fraction(-7, 4), Fraction(2), Fraction(3, 4)),
                                       (Fraction(2), Fraction(1, 4), Fraction(0))])
    for k in (10, 40):
        P, _ = int_points(lattice_points(case1_poly, k), 2)
        n, scale = piece_minima(f.pieces, P, k)
        assert n.dtype == np.int64
    P, _ = int_points(lattice_points(case1_poly, 2), 2)
    n, scale = piece_minima(_huge_pl(rs_so4, case1_poly).pieces, P, 2)
    assert n.dtype == object


def test_python_int_fallback_is_exact(rs_so4, case1_poly):
    f = _huge_pl(rs_so4, case1_poly)
    t = filtration_table(f, 3)
    assert t.values == tuple(3 * f.eval(tuple(x / 3 for x in p)) for p in t.points)
    assert t.violations == check_table_oracle(rs_so4, t)
    p, q = 2, 6
    fp = approximate_p(f, p, q)
    for pt in lattice_points(case1_poly, q):
        x = tuple(c / q for c in pt)
        assert 0 <= fp.eval(x) - f.eval(x) <= Fraction(1, p)


def test_exact_chamber_test_rejects_tiny_negative_slopes(rs_a1, seg3):
    tiny = Fraction(-1, 10 ** 10)
    with pytest.raises(NotDominant):
        from_vector(rs_a1, seg3, [tiny])
    with pytest.raises(NotDominant):
        from_vector(rs_a1, seg3, ["-1/10000000000"])
    with pytest.raises(NotDominantPiece):
        pl_concave(rs_a1, seg3, [(0, (Fraction(1),)), (1, (tiny,))])
    f = pl_concave(rs_a1, seg3, [(0, (Fraction(1),)), (1, (tiny,))], strict=False)
    assert f.nondominant_pieces == (1,)
    # float data keeps its rounding tolerance
    assert from_vector(rs_a1, seg3, [-1e-12]).pieces[0][1] == (Fraction(-1e-12),)
    assert pl_concave(rs_a1, seg3, [(0, (-1e-12,))]).nondominant_pieces == ()


# -- the exact envelope hull against Qhull -----------------------------------

def _qhull_pieces(P, G, q, p):
    """Upper envelope pieces of the lifted points (P_i/q, G_i/p) from
    scipy's Qhull: each upper facet's exact plane through its vertices,
    offsets snapped to the exact maximum over all points; one affine plane
    when the lifted points are flat."""
    from scipy.spatial import ConvexHull, QhullError
    dim = P.shape[1]
    xs = [tuple(Fraction(int(x), q) for x in row) for row in P]
    gs = [Fraction(int(g), p) for g in G]

    def plane(idx):
        rows = [[xs[i][c] - xs[idx[0]][c] for c in range(dim)] for i in idx[1:]]
        if mat_rank(rows) < dim:
            return None
        return solve_exact(rows, [gs[i] - gs[idx[0]] for i in idx[1:]])

    slopes = set()
    try:
        hull = ConvexHull([[float(x) for x in x_] + [float(g)] for x_, g in zip(xs, gs)],
                          qhull_options="Qt")
        for simplex, eq in zip(hull.simplices, hull.equations):
            s = plane(simplex.tolist()) if eq[dim] > 1e-12 else None
            if s is not None:
                slopes.add(tuple(s))
    except QhullError:
        for idx in itertools.combinations(range(len(xs)), dim + 1):
            s = plane(idx)
            if s is not None:
                assert all(g - gs[0] == sum(a * (x[c] - xs[0][c]) for c, a in enumerate(s))
                           for x, g in zip(xs, gs)), "flat data must be affine"
                slopes.add(tuple(s))
                break
    return [(max(g - sum(a * b for a, b in zip(s, x)) for x, g in zip(xs, gs)),
             tuple(-a for a in s)) for s in sorted(slopes)]


def _hull_cases(rng):
    """(name, integer points, heights, q, p) on 2-D and 3-D grids."""
    tri = build_polytope(vertices=[[0, 0], [2, 0], [0, 1]])
    case1 = build_polytope(vertices=[[0, 0], [3, 3], [3, 0], [Fraction(3, 2), Fraction(-3, 2)]])
    box3 = build_polytope(vertices=[[a, b, c] for a in (0, 2) for b in (0, 1) for c in (0, 2)])
    for poly, ks in ((tri, (1, 2, 3)), (case1, (1, 2)), (box3, (1, 2))):
        for k in ks:
            P, d = int_points(lattice_points(poly, k), poly.dim)
            assert d == 1
            n = len(P)
            q, p = k, int(rng.integers(1, 4))
            yield "random", P, rng.integers(-5, 6, n), q, p
            yield "wide", P, rng.integers(-1000, 1001, n), q, p
            a = rng.integers(-3, 4, poly.dim)
            yield "affine", P, P @ a + 2, q, p
            yield "plateau", P, np.minimum(P @ a + 1, 3), q, p
            yield "constant", P, np.full(n, 4), q, p
            yield "coplanar", P, -(P[:, 0] - 1) ** 2 - 2 * np.abs(P[:, 1] - P[:, -1]), q, p


def test_upper_hull_planes_match_qhull():
    """The exact cone envelope returns the same pieces as Qhull with exact
    snapping on random, wide-range, affine, plateau, constant and
    coplanar-rich heights over 2-D and 3-D grids."""
    from gcdeg.testconfig import _upper_hull_planes
    rng = np.random.default_rng(11)
    seen = set()
    for name, P, G, q, p in _hull_cases(rng):
        G = np.asarray(G, dtype=np.int64)
        assert _upper_hull_planes(P, G, q, p) == _qhull_pieces(P, G, q, p), (name, P.shape)
        seen.add((name, P.shape[1]))
    assert {d for _, d in seen} == {2, 3}


def test_upper_hull_planes_collinear_grid_raises():
    from gcdeg.testconfig import _upper_hull_planes
    grids = [([[0, 0], [1, 1], [2, 2], [3, 3]], [0, 2, 1, 0]),
             ([[0]], [5])]                         # a single point on a line
    for P, G in grids:
        with pytest.raises(InconsistentInputs):
            _upper_hull_planes(np.array(P, dtype=np.int64), np.array(G, dtype=np.int64), 1, 1)


def test_approximation_sandwich_3d():
    """0 <= f_p - f <= 1/p on the grid of a 3-D box under A1xA1xA1."""
    rs = build_root_system(RootSystemSpec(catalog="A1xA1xA1"))
    box3 = build_polytope(vertices=[[a, b, c] for a in (0, 2) for b in (0, 1) for c in (0, 2)])
    rng = np.random.default_rng(12)
    for _ in range(3):
        pieces = [(Fraction(int(rng.integers(-8, 9)), 4),
                   tuple(Fraction(int(x), 4) for x in rng.integers(0, 9, 3)))
                  for _ in range(int(rng.integers(2, 5)))]
        f = pl_concave(rs, box3, pieces)
        for p, q in ((2, 2), (3, 3)):
            fp = approximate_p(f, p, q)
            for pt in lattice_points(box3, q):
                x = tuple(c / q for c in pt)
                assert 0 <= fp.eval(x) - f.eval(x) <= Fraction(1, p)


def _brute_force_pieces(P, G, q, p):
    """Upper envelope pieces by brute force in Fractions: every plane
    through dim+1 affinely independent lifted points that no point lies
    above."""
    dim = P.shape[1]
    xs = [tuple(Fraction(int(x), q) for x in row) for row in P]
    gs = [Fraction(int(g), p) for g in G]
    pieces = set()
    for idx in itertools.combinations(range(len(xs)), dim + 1):
        rows = [[xs[i][c] - xs[idx[0]][c] for c in range(dim)] for i in idx[1:]]
        if mat_rank(rows) < dim:
            continue
        s = solve_exact(rows, [gs[i] - gs[idx[0]] for i in idx[1:]])
        c = gs[idx[0]] - sum(a * b for a, b in zip(s, xs[idx[0]]))
        if all(g <= c + sum(a * b for a, b in zip(s, x)) for x, g in zip(xs, gs)):
            pieces.add((c, tuple(-a for a in s)))
    return sorted(pieces, key=lambda piece: tuple(-a for a in piece[1]))


def test_upper_hull_planes_near_ties_match_brute_force():
    """Heights 10**12 times an affine function plus small noise give
    supporting planes whose slopes agree to about 12 digits; only exact
    integer arithmetic tells them apart. Checked against a brute force."""
    from gcdeg.testconfig import _upper_hull_planes
    rng = np.random.default_rng(13)
    tri = build_polytope(vertices=[[0, 0], [2, 0], [0, 2]])
    box3 = build_polytope(vertices=[[a, b, c] for a in (0, 2) for b in (0, 1) for c in (0, 2)])
    for poly, k in ((tri, 1), (tri, 2), (box3, 1)):
        P, _ = int_points(lattice_points(poly, k), poly.dim)
        for _ in range(3):
            a = rng.integers(1, 9, poly.dim)
            G = 10 ** 12 * (P @ a) + rng.integers(-3, 4, len(P))
            assert _upper_hull_planes(P, G, k, 2) == _brute_force_pieces(P, G, k, 2)


def _hull_cases_1d(rng):
    """(name, integer points, heights, q, p) on 1-D grids."""
    seg = build_polytope(vertices=[[0], [3]])
    for k in (1, 3, 5):
        P, _ = int_points(lattice_points(seg, k), 1)
        n, x = len(P), P[:, 0]
        q, p = k, int(rng.integers(1, 4))
        a = int(rng.integers(-3, 4))
        yield "random", P, rng.integers(-5, 6, n), q, p
        yield "affine", P, a * x + 2, q, p
        yield "plateau", P, np.minimum(a * x + 1, 3), q, p
        yield "constant", P, np.full(n, 4), q, p
        yield "near-tie", P, 10 ** 12 * (abs(a) + 1) * x + rng.integers(-3, 4, n), q, p


def test_upper_hull_planes_1d_match_brute_force():
    """1-D grids take the same cone path as higher dimensions; random,
    affine, plateau, constant and near-tie heights against the brute force."""
    from gcdeg.testconfig import _upper_hull_planes
    rng = np.random.default_rng(14)
    for name, P, G, q, p in _hull_cases_1d(rng):
        assert _upper_hull_planes(P, G, q, p) == _brute_force_pieces(P, G, q, p), (name, len(P))


def test_upper_hull_planes_python_int_path_matches_brute_force(monkeypatch):
    """Heights near 2**62 push the cone rows past int64: every generator
    evaluation runs on Python ints and the pieces stay exact."""
    import gcdeg.testconfig as tc
    dtypes = []

    def spy(a, rows):
        out = int_matmul(a, rows)
        dtypes.append(out.dtype)
        return out
    monkeypatch.setattr(tc, "int_matmul", spy)
    rng = np.random.default_rng(15)
    seg = build_polytope(vertices=[[0], [3]])
    tri = build_polytope(vertices=[[0, 0], [2, 0], [0, 2]])
    for poly, k in ((seg, 2), (tri, 2)):
        P, _ = int_points(lattice_points(poly, k), poly.dim)
        slope = rng.integers(1, 9, poly.dim)
        G = np.array([2 ** 62 - 2 ** 40 * int(h) + int(e)
                      for h, e in zip(P @ slope, rng.integers(-3, 4, len(P)))], dtype=object)
        assert tc._upper_hull_planes(P, G, k, 2) == _brute_force_pieces(P, G, k, 2)
    assert dtypes and all(d == object for d in dtypes)
