"""Exact rational polytopes: dual descriptions, triangulation, lattice points.

All geometry is done over Fraction. Halfspaces are pairs (normal, offset)
meaning <normal, y> <= offset. Vertex enumeration walks dim-subsets of the
constraints (basic solutions), which is exact and fast at the sizes this
package targets (dim <= 6, a couple dozen constraints).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._numeric import (dot, int_array, int_matmul, mat_rank, max_abs, solve_exact,
                       to_exact, vec_exact)
from .errors import Empty, InconsistentInputs, LowerDimensional, Unbounded

Vector = Tuple[Fraction, ...]
Halfspace = Tuple[Vector, Fraction]


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: Tuple[Vector, ...]          # sorted, exact
    halfspaces: Tuple[Halfspace, ...]     # includes redundant ones
    redundant: Tuple[int, ...]            # indices into halfspaces

    def contains(self, y: Sequence, strict: bool = False) -> bool:
        yq = vec_exact(y)
        for n, b in self.halfspaces:
            v = dot(n, yq)
            if v > b or (strict and v == b):
                return False
        return True

    def facets(self) -> List[Tuple[Halfspace, Tuple[int, ...]]]:
        """Non-redundant halfspaces with the indices of their tight vertices."""
        out = []
        for idx, (n, b) in enumerate(self.halfspaces):
            if idx in self.redundant:
                continue
            tight = tuple(i for i, v in enumerate(self.vertices) if dot(n, v) == b)
            out.append(((n, b), tight))
        return out

    def bbox(self) -> Tuple[Vector, Vector]:
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.dim))
        return lo, hi

    def volume(self) -> Fraction:
        return sum((_simplex_volume(s) for s in triangulate(self)), Fraction(0))

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices


def _affine_rank(points: Sequence[Vector]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return mat_rank(rows)


def _basic_feasible_points(halfspaces: Sequence[Halfspace], dim: int) -> List[Vector]:
    """All feasible basic solutions (extreme point candidates), exact."""
    pts = {}
    idxs = range(len(halfspaces))
    for subset in itertools.combinations(idxs, dim):
        rows = [list(halfspaces[i][0]) for i in subset]
        rhs = [halfspaces[i][1] for i in subset]
        if mat_rank(rows) != dim:
            continue
        x = solve_exact(rows, rhs)
        if x is None:
            continue
        if all(dot(n, x) <= b for n, b in halfspaces):
            pts[x] = True
    return sorted(pts)


def _recession_nonzero(halfspaces: Sequence[Halfspace], dim: int) -> bool:
    """True when {d : <n,d> <= 0 for all halfspaces} contains a nonzero vector."""
    hs = [(n, Fraction(0)) for n, _ in halfspaces]
    box = []
    for i in range(dim):
        e = tuple(Fraction(int(i == j)) for j in range(dim))
        box.append((e, Fraction(1)))
        box.append((tuple(-x for x in e), Fraction(1)))
    pts = _basic_feasible_points(list(hs) + box, dim)
    zero = tuple([Fraction(0)] * dim)
    return any(p != zero for p in pts)


def _hull_halfspaces(vertices: Sequence[Vector], dim: int) -> List[Halfspace]:
    """Facet description of conv(vertices), exact, by hyperplane enumeration."""
    if dim == 1:
        lo = min(v[0] for v in vertices)
        hi = max(v[0] for v in vertices)
        return [((Fraction(1),), hi), ((Fraction(-1),), -lo)]
    found = {}
    for subset in itertools.combinations(range(len(vertices)), dim):
        pts = [vertices[i] for i in subset]
        if _affine_rank(pts) != dim - 1:
            continue
        # Hyperplane through pts: normal spans the 1-D nullspace of the
        # difference matrix.
        base = pts[0]
        rows = [[p[i] - base[i] for i in range(dim)] for p in pts[1:]]
        from ._numeric import nullspace
        ns = nullspace(rows, dim)
        if len(ns) != 1:
            continue
        n = ns[0]
        b = dot(n, base)
        side_hi = any(dot(n, v) > b for v in vertices)
        side_lo = any(dot(n, v) < b for v in vertices)
        if side_hi and side_lo:
            continue
        if side_hi:       # flip outward
            n = tuple(-x for x in n)
            b = -b
        n, b = _normalize_halfspace(n, b)
        found[(n, b)] = True
    return sorted(found)


def _normalize_halfspace(n: Vector, b: Fraction) -> Halfspace:
    """Scale so the normal has coprime integer entries (sign preserved)."""
    den = lcm(*(c.denominator for c in n))
    g = gcd(*((c * den).numerator for c in n))
    if g:
        scale = Fraction(den, g)
        return tuple(c * scale for c in n), b * scale
    return n, b


def try_build(halfspaces: Sequence[Tuple[Sequence, object]]) -> Tuple[str, Optional[Polytope]]:
    """Build from halfspaces without raising.

    Returns (status, polytope-or-None) with status in
    {"ok", "empty", "lower-dimensional", "unbounded"}.
    """
    hs = [(vec_exact(n), to_exact(b)) for n, b in halfspaces]
    dim = len(hs[0][0])
    for n, _ in hs:
        if len(n) != dim:
            raise InconsistentInputs("ragged halfspace normals")
    if _recession_nonzero(hs, dim):
        # Distinguish empty from unbounded: an empty set is bounded by
        # convention but has no feasible point at all.
        if not _basic_feasible_points(hs + _unit_box(dim, hs), dim):
            return "empty", None
        return "unbounded", None
    verts = _basic_feasible_points(hs, dim)
    if not verts:
        return "empty", None
    if _affine_rank(verts) < dim:
        return "lower-dimensional", None
    redundant = _find_redundant(hs, verts, dim)
    return "ok", Polytope(dim=dim, vertices=tuple(verts), halfspaces=tuple(hs),
                          redundant=tuple(redundant))


def _unit_box(dim, hs):
    # Large box around anything representable by the offsets, used only for
    # the empty-vs-unbounded distinction.
    big = sum(abs(b) for _, b in hs) + 1
    out = []
    for i in range(dim):
        e = tuple(Fraction(int(i == j)) for j in range(dim))
        out.append((e, big))
        out.append((tuple(-x for x in e), big))
    return out


def _find_redundant(hs, verts, dim) -> List[int]:
    """A halfspace is a facet iff its tight vertex set has affine rank dim-1
    and no earlier facet is the same halfspace up to positive scaling."""
    out = []
    seen = set()
    for idx, (n, b) in enumerate(hs):
        tight = [v for v in verts if dot(n, v) == b]
        key = _normalize_halfspace(n, b)
        if not tight or _affine_rank(tight) != dim - 1 or key in seen:
            out.append(idx)
        else:
            seen.add(key)
    return out


def build_polytope(halfspaces: Optional[Sequence] = None,
                   vertices: Optional[Sequence] = None,
                   rs=None,
                   append_chamber: bool = False) -> Polytope:
    """Construct a full-dimensional bounded polytope, exactly.

    Provide halfspaces (pairs (normal, offset) for <normal,y> <= offset) or
    vertices, not both. With append_chamber=True the dominant-chamber
    inequalities <alpha_i, y> >= 0 of the root system rs are appended, which
    cuts a W-invariant polytope down to its dominant part P+.
    """
    if (halfspaces is None) == (vertices is None):
        raise InconsistentInputs("specify exactly one of halfspaces or vertices")
    if append_chamber:
        if rs is None:
            raise InconsistentInputs("append_chamber requires a root system")
        if not rs.exact:
            raise InconsistentInputs("chamber cuts need rational simple roots")

    if vertices is not None:
        vs = [vec_exact(v) for v in vertices]
        if len({len(v) for v in vs}) != 1:
            raise InconsistentInputs("ragged vertices")
        dim = len(vs[0])
        if _affine_rank(vs) < dim:
            raise LowerDimensional("vertex set is not full-dimensional")
        hs = _hull_halfspaces(vs, dim)
    else:
        hs = [(vec_exact(n), to_exact(b)) for n, b in halfspaces]
        dim = len(hs[0][0])

    if append_chamber:
        for a in rs.simple_roots:
            n, b = _normalize_halfspace(tuple(-to_exact(x) for x in a), Fraction(0))
            hs.append((n, b))

    status, p = try_build(hs)
    if status == "empty":
        raise Empty("polytope is empty")
    if status == "unbounded":
        raise Unbounded("polytope is unbounded")
    if status == "lower-dimensional":
        raise LowerDimensional("polytope is not full-dimensional")
    return p


# -- triangulation -----------------------------------------------------------

def _simplex_volume(simplex: Sequence[Vector]) -> Fraction:
    d = len(simplex) - 1
    base = simplex[0]
    rows = [[simplex[i + 1][j] - base[j] for j in range(d)] for i in range(d)]
    det = _det_exact(rows)
    return abs(det) / factorial(d)


def _det_exact(rows) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = None
        for r in range(c, n):
            if m[r][c] != 0:
                pr = r
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        pv = m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / pv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def triangulate(p: Polytope) -> List[Tuple[Vector, ...]]:
    """Fan triangulation from the lexicographically smallest vertex.

    Deterministic: facets and their sub-simplices are visited in sorted
    order. Every returned simplex is full-dimensional.
    """
    return _triangulate_points(list(p.vertices), p.dim, [h for h, _ in p.facets()])


def _triangulate_points(verts: List[Vector], dim: int,
                        facets: List[Halfspace]) -> List[Tuple[Vector, ...]]:
    verts = sorted(verts)
    apex = verts[0]
    if dim == 1:
        return [(verts[0], verts[-1])]
    out = []
    for n, b in sorted(facets):
        if dot(n, apex) == b:
            continue  # apex lies on this facet; cone over it is flat
        fverts = [v for v in verts if dot(n, v) == b]
        for sub in _triangulate_facet(fverts, dim):
            simplex = (apex,) + sub
            if _simplex_volume(simplex) > 0:
                out.append(simplex)
    return out


def _triangulate_facet(fverts: List[Vector], dim: int) -> List[Tuple[Vector, ...]]:
    """Triangulate a (dim-1)-face embedded in R^dim into (dim-1)-simplices."""
    fverts = sorted(fverts)
    if dim == 2:
        # Facet is a segment (or should be); take its extreme points.
        lo, hi = fverts[0], fverts[-1]
        return [(lo, hi)]
    if dim == 3:
        # Polygonal facet: order vertices around their plane and fan.
        ordered = _order_polygon(fverts)
        a = ordered[0]
        return [(a, ordered[i], ordered[i + 1]) for i in range(1, len(ordered) - 1)]
    # Higher dimensions: chart the facet into R^(dim-1) exactly, triangulate
    # there, and map the simplices back.
    base = fverts[0]
    diffs = [tuple(v[i] - base[i] for i in range(dim)) for v in fverts[1:]]
    basis = []
    for d in diffs:
        if mat_rank(basis + [d]) > len(basis):
            basis.append(d)
        if len(basis) == dim - 1:
            break
    gram = [[dot(a, b) for b in basis] for a in basis]
    chart = {}
    for v in fverts:
        rel = tuple(v[i] - base[i] for i in range(dim))
        rhs = [dot(b, rel) for b in basis]
        coords = solve_exact(gram, rhs)
        chart[coords] = v
    cverts = sorted(chart)
    sub_hs = _hull_halfspaces(cverts, dim - 1)
    out = []
    for s in _triangulate_points(cverts, dim - 1, sub_hs):
        out.append(tuple(chart[c] for c in s))
    return out


def _order_polygon(pts: List[Vector]) -> List[Vector]:
    import math
    base = pts[0]
    # Two independent directions in the plane of the polygon.
    dirs = [tuple(p[i] - base[i] for i in range(len(base))) for p in pts[1:]]
    u = next(d for d in dirs if any(x != 0 for x in d))
    # Gram-Schmidt a second direction.
    v = None
    for d in dirs:
        proj = dot(d, u) / dot(u, u)
        w = tuple(d[i] - proj * u[i] for i in range(len(d)))
        if any(x != 0 for x in w):
            v = w
            break
    if v is None:
        return sorted(pts)
    cen = tuple(sum(p[i] for p in pts) / len(pts) for i in range(len(base)))

    def angle(p):
        rel = tuple(p[i] - cen[i] for i in range(len(p)))
        return math.atan2(float(dot(rel, v)), float(dot(rel, u)))

    return sorted(pts, key=angle)


# -- lattice points ----------------------------------------------------------

def lattice_points(p: Polytope, k: int = 1,
                   lattice: Optional[Sequence[Sequence]] = None) -> List[Vector]:
    """Exact lattice points of the dilate k*p.

    lattice is a basis matrix (rows are generators); default Z^dim. Points are
    returned in lexicographic order as exact coordinate vectors in R^dim.
    """
    if k < 0:
        raise InconsistentInputs("dilation factor must be >= 0")
    if lattice is None:
        key = None
    else:
        key = tuple(vec_exact(row) for row in lattice)
        if len(key) != p.dim or mat_rank(key) != p.dim:
            raise InconsistentInputs("lattice basis must be a full-rank dim x dim matrix")
    return list(_lattice_points_cached(p, int(k), key))


@lru_cache(maxsize=64)
def _lattice_points_cached(p: Polytope, k: int,
                           basis_key: Optional[Tuple[Vector, ...]]) -> Tuple[Vector, ...]:
    dim = p.dim
    if basis_key is None:
        basis = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    else:
        basis = list(basis_key)
    # Coefficient bounds: solve v = B^T m for each dilated vertex, take the box.
    rows = [[basis[j][i] for j in range(dim)] for i in range(dim)]  # columns are generators
    coeff_verts = []
    for v in p.vertices:
        target = [k * x for x in v]
        m = solve_exact(rows, target)
        coeff_verts.append(m)
    import math as _m
    lo = [int(_m.floor(min(cv[i] for cv in coeff_verts))) for i in range(dim)]
    hi = [int(_m.ceil(max(cv[i] for cv in coeff_verts))) for i in range(dim)]
    if basis_key is None:
        # Clear denominators once; the box test is one integer A @ box <= b.
        rows, rhs = [], []
        for n, b in p.halfspaces:
            kb = k * b
            den = lcm(kb.denominator, *(x.denominator for x in n))
            rows.append([int(x * den) for x in n])
            rhs.append([int(kb * den)])
        # lexicographic order, as itertools.product walks the box
        axes = np.meshgrid(*[np.arange(lo[i], hi[i] + 1) for i in range(dim)], indexing="ij")
        box = np.stack(axes, axis=-1).reshape(-1, dim)
        b = int_array(rhs, 1, max_abs(rhs))[:, 0]
        box = box[np.all(int_matmul(box, rows) <= b, axis=1)]
        coord = {c: Fraction(c) for c in np.unique(box).tolist()}   # shared, immutable
        return tuple(tuple(map(coord.__getitem__, row)) for row in box.tolist())
    box = itertools.product(*[range(lo[i], hi[i] + 1) for i in range(dim)])
    out = []
    khs = [(n, k * b) for n, b in p.halfspaces]
    for combo in box:
        y = tuple(sum(Fraction(combo[j]) * basis[j][i] for j in range(dim))
                  for i in range(dim))
        if all(dot(n, y) <= b for n, b in khs):
            out.append(y)
    out.sort()
    return tuple(out)
