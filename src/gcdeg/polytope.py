"""Exact rational polytopes: dual descriptions, triangulation, lattice points.

Halfspaces are pairs (normal, offset) of Fractions meaning
<normal, y> <= offset. Both dual descriptions come from one exact pass of
Motzkin's double description on primitive integer rows: halfspaces are
homogenized to the cone {(y, t) : <n, y> <= b t, t >= 0}, whose rays with
t > 0 are the vertices, and vertices give the cone of valid inequalities
{(a, beta) : <a, v> <= beta}, whose rays are the facets. Each ray carries
the rows it makes tight as an int bitmask; redundancy and the faces the
triangulation recurses over are read off those masks.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, floor, gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._numeric import (dot, int_array, int_det, int_matmul, mat_rank, max_abs,
                       scaled_ints, solve_exact, to_exact, vec_exact)
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


def _primitive(v: Sequence[int]) -> Tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _int_row(row: Sequence[Fraction]) -> Tuple[int, ...]:
    """row times a positive scale, as primitive integers."""
    d = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (d // x.denominator) for x in row])


def _combine(s: int, u: Sequence[int], t: int, w: Sequence[int]) -> Tuple[int, ...]:
    return _primitive([s * a + t * b for a, b in zip(u, w)])


def _double_description(rows: Sequence[Sequence[int]]):
    """Motzkin's double description of {x in R^m : <a, x> >= 0 for all rows a}.

    rows are integer vectors of length m. Returns (rays, lineality, masks): the extreme
    rays modulo the lineality space and a basis of that space, as primitive
    integer tuples, and per ray the bitmask of the rows it makes tight. Rows
    are added one at a time; two rays on opposite sides of the new row are
    combined only when they are adjacent, i.e. when no third ray is tight on
    every row the two share.
    """
    m = len(rows[0])
    lin = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    rays, masks = [], []
    for k, a in enumerate(rows):
        bit = 1 << k
        lv = [dot(a, u) for u in lin]
        piv = next((i for i, v in enumerate(lv) if v), None)
        if piv is not None:
            # a is not constant on the lineality space: its pivot direction
            # leaves it and becomes a ray, tight on every earlier row.
            u, s = lin.pop(piv), lv.pop(piv)
            if s < 0:
                u, s = tuple(-x for x in u), -s
            lin = [_combine(s, w, -v, u) for w, v in zip(lin, lv)]
            rays = [_combine(s, r, -dot(a, r), u) for r in rays] + [u]
            masks = [mk | bit for mk in masks] + [bit - 1]
            continue
        rv = [dot(a, r) for r in rays]
        need = m - len(lin) - 2          # adjacent rays share this many tight rows
        new_rays = [r for r, v in zip(rays, rv) if v >= 0]
        new_masks = [mk | bit if v == 0 else mk for mk, v in zip(masks, rv) if v >= 0]
        for i, vi in enumerate(rv):
            if vi <= 0:
                continue
            for j, vj in enumerate(rv):
                if vj >= 0:
                    continue
                common = masks[i] & masks[j]
                if common.bit_count() < need or any(
                        mk & common == common for t, mk in enumerate(masks) if t != i and t != j):
                    continue
                new_rays.append(_combine(vi, rays[j], -vj, rays[i]))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return rays, lin, masks


def cone_generators(rows: Sequence[Sequence]) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Extreme rays and a lineality basis of {x : <a, x> >= 0 for all rows a}.

    rows hold ints, Fractions or exact strings, all of one length; the
    generators are primitive integer vectors.
    """
    rays, lin, _ = _double_description([_int_row(vec_exact(a)) for a in rows])
    return rays, lin


def _check_dims(vectors: Sequence[Vector], what: str) -> int:
    if not vectors:
        raise InconsistentInputs(f"empty list of {what}")
    if len({len(v) for v in vectors}) != 1:
        raise InconsistentInputs(f"ragged {what}")
    return len(vectors[0])


def _facet_halfspaces(vertices: Sequence[Vector], dim: int) -> List[Halfspace]:
    """Facets of conv(vertices): the rays of the cone of valid inequalities
    {(a, beta) : <a, v> <= beta for all v}, with coprime integer normals."""
    rays, lin, _ = _double_description(
        [_int_row(tuple(-x for x in v) + (Fraction(1),)) for v in vertices])
    if lin:
        raise LowerDimensional("vertex set is not full-dimensional")
    out = []
    for r in rays:
        g = gcd(*r[:-1])
        out.append((tuple(Fraction(x // g) for x in r[:-1]), Fraction(r[-1], g)))
    # A segment lists its upper bound first.
    return sorted(out, reverse=dim == 1)


def try_build(halfspaces: Sequence[Tuple[Sequence, object]]) -> Tuple[str, Optional[Polytope]]:
    """Build from halfspaces without raising.

    Returns (status, polytope-or-None) with status in
    {"ok", "empty", "lower-dimensional", "unbounded"}. The vertices are the
    rays with t > 0 of the cone {(y, t) : <n, y> <= b t, t >= 0}; the set is
    empty without such a ray and unbounded with a ray at t = 0 or a
    lineality direction.
    """
    hs = [(vec_exact(n), to_exact(b)) for n, b in halfspaces]
    dim = _check_dims([n for n, _ in hs], "halfspaces")
    rows = [_int_row(tuple(-x for x in n) + (b,)) for n, b in hs]
    rays, lin, masks = _double_description(rows + [(0,) * dim + (1,)])
    found = sorted((tuple(Fraction(x, r[-1]) for x in r[:-1]), mk)
                   for r, mk in zip(rays, masks) if r[-1] > 0)
    if not found:
        return "empty", None
    if lin or len(found) < len(rays):
        return "unbounded", None
    # tight[i]: bitmask of the vertices on halfspace i
    tight = [sum(1 << j for j, (_, mk) in enumerate(found) if mk >> i & 1)
             for i in range(len(hs))]
    everywhere = (1 << len(found)) - 1
    if any(t == everywhere and any(n) for t, (n, _) in zip(tight, hs)):
        return "lower-dimensional", None
    # A facet's mask is a maximal proper one; later copies are redundant.
    proper = {t for t in tight if 0 < t < everywhere}
    facets = {t for t in proper if not any(u != t and u & t == t for u in proper)}
    redundant = []
    for idx, t in enumerate(tight):
        if t in facets:
            facets.discard(t)
        else:
            redundant.append(idx)
    return "ok", Polytope(dim=dim, vertices=tuple(v for v, _ in found), halfspaces=tuple(hs),
                          redundant=tuple(redundant))


def build_polytope(halfspaces: Optional[Sequence] = None,
                   vertices: Optional[Sequence] = None,
                   rs=None,
                   append_chamber: bool = False) -> Polytope:
    """Construct a full-dimensional bounded polytope, exactly.

    Provide halfspaces (pairs (normal, offset) for <normal,y> <= offset) or
    vertices, not both. With append_chamber=True the dominant-chamber
    inequalities (alpha_i, y) = <Q alpha_i, y> >= 0 of the root system rs
    (Q its Killing-form Gram matrix) are appended, which
    cuts a W-invariant polytope down to its dominant part P+.
    """
    if (halfspaces is None) == (vertices is None):
        raise InconsistentInputs("specify exactly one of halfspaces or vertices")
    if append_chamber:
        if rs is None:
            raise InconsistentInputs("append_chamber requires a root system")

    if vertices is not None:
        vs = [vec_exact(v) for v in vertices]
        hs = _facet_halfspaces(vs, _check_dims(vs, "vertices"))
    else:
        hs = [(vec_exact(n), to_exact(b)) for n, b in halfspaces]
        _check_dims([n for n, _ in hs], "halfspaces")

    if append_chamber:
        for a in rs.simple_roots:
            n = _int_row(tuple(-x for x in rs.functional(a)))
            hs.append((tuple(map(Fraction, n)), Fraction(0)))

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
    rows, scale = scaled_ints(simplex)
    det = int_det([[r[j] - rows[0][j] for j in range(d)] for r in rows[1:]])
    return Fraction(abs(det), scale ** d * factorial(d))


def triangulate(p: Polytope) -> List[Tuple[Vector, ...]]:
    """Pulling triangulation from the lexicographically smallest vertex.

    Each face is coned from its smallest vertex over its own facets that
    miss that vertex, recursively. Faces are vertex bitmasks: the facets of
    a face are among its intersections with the facets of p, taken in
    sorted halfspace order. Every returned simplex is full-dimensional.
    """
    facets = [sum(1 << i for i in tight) for _, tight in sorted(p.facets())]
    return [tuple(p.vertices[i] for i in s)
            for s in _pull((1 << len(p.vertices)) - 1, p.dim, facets)]


def _pull(face: int, dim: int, facets: List[int]) -> List[Tuple[int, ...]]:
    apex = (face & -face).bit_length() - 1
    if dim == 0:
        return [(apex,)]
    out, seen = [], set()
    for f in facets:
        # A face of `face` that misses the apex. One below a facet of `face`
        # shrinks to a single vertex before dim reaches 0 and adds nothing.
        g = face & f
        if g and not g >> apex & 1 and g not in seen:
            seen.add(g)
            out.extend((apex,) + s for s in _pull(g, dim - 1, facets))
    return out


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
    """Points y = m B over a box of integer coefficient rows m, B the basis
    (identity by default). A halfspace <n, y> <= k b reads <B n, m> <= k b,
    so one integer product filters the box; y is formed on B's common
    denominator and sorted as integer rows."""
    dim = p.dim
    basis = basis_key or tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
    # Coefficient bounds: solve v = B^T m for each dilated vertex, take the box.
    cols = [[basis[j][i] for j in range(dim)] for i in range(dim)]
    coeff_verts = [solve_exact(cols, [k * x for x in v]) for v in p.vertices]
    lo = [floor(min(cv[i] for cv in coeff_verts)) for i in range(dim)]
    hi = [ceil(max(cv[i] for cv in coeff_verts)) for i in range(dim)]
    # one integer row (B n, k b) per halfspace
    rows = [scaled_ints([[dot(g, n) for g in basis] + [k * off]])[0][0] for n, off in p.halfspaces]
    rhs = [r[-1:] for r in rows]
    b = int_array(rhs, 1, max_abs(rhs))[:, 0]
    axes = np.meshgrid(*[np.arange(lo[i], hi[i] + 1) for i in range(dim)], indexing="ij")
    box = np.stack(axes, axis=-1).reshape(-1, dim)
    box = box[np.all(int_matmul(box, [r[:-1] for r in rows]) <= b, axis=1)]
    B, d = scaled_ints(basis)
    Y = int_matmul(box, [list(c) for c in zip(*B)])
    Y = Y[np.lexsort(Y.T[::-1])]
    coord = {c: Fraction(c, d) for c in np.unique(Y).tolist()}   # shared, immutable
    return tuple(tuple(map(coord.__getitem__, row)) for row in Y.tolist())
