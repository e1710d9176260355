"""Subset-enumeration oracle for the exact polytope layer.

The library's earlier dual descriptions, kept as an independent reference:
vertices are the feasible basic solutions of every dim-subset of the
halfspaces, facets of a vertex set are the hyperplanes through every
dim-subset of the vertices, and the triangulation fans from the smallest
vertex over facets charted and re-hulled one dimension down. All of it is
exact (basic solutions on integer rows, the rest on Fractions) and
exponential in the input size, so it is only fit for the small inputs the
tests use.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from gcdeg._numeric import (dot, int_det, mat_rank, nullspace, scaled_ints, solve_exact,
                            to_exact, vec_exact)
from gcdeg.minimize import chamber_rays


def affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return mat_rank([[p[i] - base[i] for i in range(len(base))] for p in points[1:]])


def _basic_solutions(halfspaces, dim):
    """The feasible basic solution of every dim-subset of the halfspaces
    with a unique one, in subset order (a point may repeat). Denominators
    are cleared once for the whole set, so each solution is Cramer's rule
    on integers, x = num / den with den > 0, and feasibility compares
    integer numerators: <N, num> <= B den."""
    rows, _ = scaled_ints([list(n) + [b] for n, b in halfspaces])
    for subset in itertools.combinations(rows, dim):
        mat = [r[:dim] for r in subset]
        den = int_det(mat)
        if den == 0:
            continue
        num = [int_det([r[:i] + [r[dim]] + r[i + 1:dim] for r in subset]) for i in range(dim)]
        if den < 0:
            den, num = -den, [-x for x in num]
        if all(sum(a * x for a, x in zip(r, num)) <= r[dim] * den for r in rows):
            yield tuple(Fraction(x, den) for x in num)


def basic_feasible_points(halfspaces, dim):
    """All feasible basic solutions (extreme point candidates), sorted."""
    return sorted(set(_basic_solutions(halfspaces, dim)))


def _unit(i, dim, sign=1):
    return tuple(Fraction(sign * int(i == j)) for j in range(dim))


def recession_nonzero(halfspaces, dim):
    hs = [(n, Fraction(0)) for n, _ in halfspaces]
    box = [(_unit(i, dim, s), Fraction(1)) for i in range(dim) for s in (1, -1)]
    return any(any(p) for p in _basic_solutions(hs + box, dim))


def normalize_halfspace(n, b):
    den = math.lcm(*(c.denominator for c in n))
    g = math.gcd(*((c * den).numerator for c in n))
    if g:
        scale = Fraction(den, g)
        return tuple(c * scale for c in n), b * scale
    return n, b


@lru_cache(maxsize=None)
def hull_halfspaces(vertices, dim):
    """Facets of conv(vertices) (a tuple of exact tuples) by hyperplane
    enumeration, sorted."""
    if dim == 1:
        lo = min(v[0] for v in vertices)
        hi = max(v[0] for v in vertices)
        return [((Fraction(1),), hi), ((Fraction(-1),), -lo)]
    found = {}
    for subset in itertools.combinations(range(len(vertices)), dim):
        pts = [vertices[i] for i in subset]
        if affine_rank(pts) != dim - 1:
            continue
        base = pts[0]
        ns = nullspace([[p[i] - base[i] for i in range(dim)] for p in pts[1:]], dim)
        if len(ns) != 1:
            continue
        n = ns[0]
        b = dot(n, base)
        side_hi = any(dot(n, v) > b for v in vertices)
        if side_hi and any(dot(n, v) < b for v in vertices):
            continue
        if side_hi:
            n, b = tuple(-x for x in n), -b
        found[normalize_halfspace(n, b)] = True
    return sorted(found)


def try_build(halfspaces):
    """(status, vertices, redundant) of the halfspace list; status as in
    gcdeg.try_build. The empty-vs-unbounded test searches a box of side
    sum|b| + 1, so it calls a nonempty set that misses the box empty."""
    return _try_build(tuple((vec_exact(n), to_exact(b)) for n, b in halfspaces))


@lru_cache(maxsize=None)
def _try_build(hs):
    dim = len(hs[0][0])
    if recession_nonzero(hs, dim):
        big = sum(abs(b) for _, b in hs) + 1
        box = [(_unit(i, dim, s), big) for i in range(dim) for s in (1, -1)]
        if not basic_feasible_points(list(hs) + box, dim):
            return "empty", None, None
        return "unbounded", None, None
    verts = basic_feasible_points(hs, dim)
    if not verts:
        return "empty", None, None
    if affine_rank(verts) < dim:
        return "lower-dimensional", None, None
    redundant, seen = [], set()
    for idx, (n, b) in enumerate(hs):
        tight = [v for v in verts if dot(n, v) == b]
        key = normalize_halfspace(n, b)
        if not tight or affine_rank(tight) != dim - 1 or key in seen:
            redundant.append(idx)
        else:
            seen.add(key)
    return "ok", tuple(verts), tuple(redundant)


def triangulate(vertices, dim, facets):
    """Fan from the smallest vertex over the facets (sorted), each facet
    triangulated in an exact chart one dimension down."""
    verts = sorted(vertices)
    apex = verts[0]
    if dim == 1:
        return [(verts[0], verts[-1])]
    out = []
    for n, b in sorted(facets):
        if dot(n, apex) == b:
            continue
        for sub in _triangulate_facet([v for v in verts if dot(n, v) == b], dim):
            if simplex_volume((apex,) + sub) > 0:
                out.append((apex,) + sub)
    return out


def simplex_volume(simplex):
    """|det| / d! by Fraction elimination."""
    d = len(simplex) - 1
    m = [[simplex[i + 1][j] - simplex[0][j] for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for c in range(d):
        pr = next((r for r in range(c, d) if m[r][c] != 0), None)
        if pr is None:
            return Fraction(0)
        m[c], m[pr] = m[pr], m[c]
        det *= m[c][c]
        for r in range(c + 1, d):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return abs(det) / math.factorial(d)


def _triangulate_facet(fverts, dim):
    fverts = sorted(fverts)
    if dim == 2:
        return [(fverts[0], fverts[-1])]
    if dim == 3:
        ordered = _order_polygon(fverts)
        return [(ordered[0], ordered[i], ordered[i + 1]) for i in range(1, len(ordered) - 1)]
    base = fverts[0]
    basis = []
    for v in fverts[1:]:
        d = tuple(v[i] - base[i] for i in range(dim))
        if mat_rank(basis + [d]) > len(basis):
            basis.append(d)
    gram = [[dot(a, b) for b in basis] for a in basis]
    chart = {}
    for v in fverts:
        rel = tuple(v[i] - base[i] for i in range(dim))
        chart[solve_exact(gram, [dot(b, rel) for b in basis])] = v
    cverts = tuple(sorted(chart))
    sub = triangulate(cverts, dim - 1, hull_halfspaces(cverts, dim - 1))
    return [tuple(chart[c] for c in s) for s in sub]


def _order_polygon(pts):
    """The points of a convex polygon in R^3 in angular order (float atan2)."""
    base = pts[0]
    dirs = [tuple(p[i] - base[i] for i in range(len(base))) for p in pts[1:]]
    u = next(d for d in dirs if any(d))
    v = None
    for d in dirs:
        proj = dot(d, u) / dot(u, u)
        w = tuple(d[i] - proj * u[i] for i in range(len(d)))
        if any(w):
            v = w
            break
    if v is None:
        return sorted(pts)
    cen = tuple(sum(p[i] for p in pts) / len(pts) for i in range(len(base)))

    def angle(p):
        rel = tuple(p[i] - cen[i] for i in range(len(p)))
        return math.atan2(float(dot(rel, v)), float(dot(rel, u)))

    return sorted(pts, key=angle)


def coercivity_certificate(rs, vertices):
    """Escape direction of h, or None when h is coercive: the smallest
    basic solution q >= 0, sum q = 1, of <sum_g q_g g, v - 2rho> <= 0 over
    chamber generators g, trying the central sign patterns in turn."""
    rays, central = chamber_rays(rs)
    two_rho = vec_exact(rs.two_rho)
    diffs = [tuple(v[i] - two_rho[i] for i in range(rs.dim)) for v in vertices]
    nvar = len(rays) + len(central)
    for signs in itertools.product((1, -1), repeat=len(central)):
        gens = list(rays) + [tuple(s * x for x in u) for s, u in zip(signs, central)]
        hs = [(tuple(dot(g, diff) for g in gens), Fraction(0)) for diff in diffs]
        hs += [(_unit(i, nvar, -1), Fraction(0)) for i in range(nvar)]
        ones = tuple(Fraction(1) for _ in range(nvar))
        hs += [(ones, Fraction(1)), (tuple(-x for x in ones), Fraction(-1))]
        pts = basic_feasible_points(hs, nvar)
        if pts:
            q = pts[0]
            return tuple(sum(q[g] * gens[g][i] for g in range(nvar)) for i in range(rs.dim))
    return None


# -- comparisons against the library -----------------------------------------

def feasible_point(halfspaces):
    """An exact point of {<n, y> <= b}, read off a ray with t > 0 of the
    homogenized cone, or None."""
    from gcdeg.polytope import cone_generators
    hs = [(vec_exact(n), to_exact(b)) for n, b in halfspaces]
    dim = len(hs[0][0])
    rows = [tuple(-x for x in n) + (b,) for n, b in hs] + [(0,) * dim + (1,)]
    rays, _ = cone_generators(rows)
    for r in rays:
        if r[-1] > 0:
            y = tuple(Fraction(x, r[-1]) for x in r[:-1])
            assert all(dot(n, y) <= b for n, b in hs)
            return y
    return None


def check_build(halfspaces, status, p):
    """gcdeg.try_build's answer (status, p) against the oracle's. The one
    allowed difference is the oracle's "empty" on a set that has a point."""
    ostatus, overts, ored = try_build(halfspaces)
    if (ostatus, status) == ("empty", "unbounded"):
        assert feasible_point(halfspaces) is not None
        return
    assert status == ostatus, (halfspaces, status, ostatus)
    if status == "ok":
        assert p.halfspaces == tuple((vec_exact(n), to_exact(b)) for n, b in halfspaces)
        assert p.vertices == overts
        assert p.redundant == ored
        check_triangulation(p)


def check_hull(vertices, dim, halfspaces):
    """The facet list the library derived from vertices, against the
    hyperplane enumeration (None: the library found them lower-dimensional)."""
    vs = [vec_exact(v) for v in vertices]
    if halfspaces is None:
        assert affine_rank(vs) < dim
    else:
        assert affine_rank(vs) == dim
        assert halfspaces == hull_halfspaces(tuple(vs), dim)


def _barycentric(simplex, y):
    d = len(y)
    rows = [[simplex[j][i] for j in range(d + 1)] for i in range(d)] + [[Fraction(1)] * (d + 1)]
    return solve_exact(rows, list(y) + [Fraction(1)])


def check_triangulation(p):
    """Identical simplices in 1-D and 2-D. In higher dimensions: the same
    exact volume, full-dimensional simplices, and each simplex's barycenter
    interior to exactly one simplex."""
    from gcdeg import triangulate as lib_triangulate
    tri = lib_triangulate(p)
    old = triangulate(p.vertices, p.dim, [h for h, _ in p.facets()])
    if p.dim <= 2:
        assert tri == old
        return
    vols = [simplex_volume(s) for s in tri]
    assert all(v > 0 for v in vols)
    assert sum(vols) == sum(simplex_volume(s) for s in old)
    for s in tri:
        c = tuple(sum(v[i] for v in s) / len(s) for i in range(p.dim))
        assert sum(all(x > 0 for x in _barycentric(t, c)) for t in tri) == 1
