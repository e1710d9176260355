"""Independent exact geometry for output checks, in 1-D and 2-D.

Nothing here calls gcdeg. Polytopes are rebuilt from the input document
(vertices or inequalities) in exact rationals, lattice points are enumerated
by an integer box scan, and polynomial moments of the Duistermaat-Heckman
density prod_{alpha>0} <alpha, y>^2 are integrated in closed form over a fan
triangulation, using int_{standard simplex} x^beta = prod(beta_i!) /
(n + |beta|)!.
"""

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Vec = Tuple[Fraction, ...]
Poly = Dict[Tuple[int, ...], Fraction]

# Positive roots per catalog name, as documented for gcdeg's catalog: A1 in
# the SL2 normalization, the literal name A1xA1 in the SO(4) frame.
POSITIVE_ROOTS = {
    "A1": ((Fraction(2),),),
    "A1xA1": ((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))),
}


def q(x) -> Fraction:
    return Fraction(x) if not isinstance(x, str) else Fraction(x.strip())


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def two_rho(catalog: str) -> Vec:
    roots = POSITIVE_ROOTS[catalog]
    return tuple(sum(r[i] for r in roots) for i in range(len(roots[0])))


class ExactPolytope:
    """Convex polytope in dimension 1 or 2: ordered vertices and the
    halfspaces <n, y> <= b of its edges."""

    def __init__(self, vertices: Sequence[Vec]):
        pts = sorted(set(tuple(q(x) for x in v) for v in vertices))
        self.dim = len(pts[0])
        if self.dim == 1:
            self.vertices = [pts[0], pts[-1]]
            self.halfspaces = [((Fraction(-1),), -pts[0][0]), ((Fraction(1),), pts[-1][0])]
        elif self.dim == 2:
            self.vertices = _hull_ccw(pts)
            self.halfspaces = []
            for a, b in zip(self.vertices, self.vertices[1:] + self.vertices[:1]):
                n = (b[1] - a[1], a[0] - b[0])      # outward for a ccw boundary
                self.halfspaces.append((n, dot(n, a)))
        else:
            raise ValueError("exact references cover dimensions 1 and 2")

    @classmethod
    def from_doc(cls, poly_doc: Dict) -> "ExactPolytope":
        if "vertices" in poly_doc:
            return cls([tuple(q(x) for x in v) for v in poly_doc["vertices"]])
        hs = [(tuple(q(x) for x in h["normal"]), q(h["offset"]))
              for h in poly_doc["inequalities"]]
        return cls(_vertices_of(hs))

    def lattice_points(self, k: int) -> List[Tuple[int, ...]]:
        """Integer points of k*P in lexicographic order."""
        lo = [math.floor(min(k * v[i] for v in self.vertices)) for i in range(self.dim)]
        hi = [math.ceil(max(k * v[i] for v in self.vertices)) for i in range(self.dim)]
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        return [m for m in box if all(dot(n, m) <= k * b for n, b in self.halfspaces)]

    def simplices(self) -> List[Tuple[Vec, ...]]:
        if self.dim == 1:
            return [tuple(self.vertices)]
        v0 = self.vertices[0]
        return [(v0, a, b) for a, b in zip(self.vertices[1:-1], self.vertices[2:])]

    def dh_moment(self, roots: Sequence[Vec], extra: Sequence[int] = ()) -> Fraction:
        """int_P prod_{alpha in roots} <alpha, y>^2 * prod_{i in extra} y_i dy."""
        total = Fraction(0)
        for simplex in self.simplices():
            v0 = simplex[0]
            edges = [tuple(v[i] - v0[i] for i in range(self.dim)) for v in simplex[1:]]
            poly: Poly = {(0,) * self.dim: Fraction(1)}
            forms = [a for a in roots for _ in (0, 1)]
            forms += [tuple(Fraction(int(i == j)) for j in range(self.dim)) for i in extra]
            for a in forms:
                poly = _mul(poly, _affine(a, v0, edges))
            total += abs(_det(edges)) * sum(
                c * _std_simplex_monomial(beta) for beta, c in poly.items())
        return total

    def dh_barycenter(self, roots) -> Tuple[Fraction, Vec]:
        """(V, b0): DH volume and barycenter at lambda = 0."""
        vol = self.dh_moment(roots)
        return vol, tuple(self.dh_moment(roots, (i,)) / vol for i in range(self.dim))


def _hull_ccw(pts: List[Vec]) -> List[Vec]:
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _vertices_of(hs) -> List[Vec]:
    """Feasible pairwise intersections of 2-D halfspace boundaries (or the
    two endpoints in 1-D)."""
    dim = len(hs[0][0])
    if dim == 1:
        lo = max(b / n[0] for n, b in hs if n[0] < 0)
        hi = min(b / n[0] for n, b in hs if n[0] > 0)
        return [(lo,), (hi,)]
    out = set()
    for (n1, b1), (n2, b2) in itertools.combinations(hs, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det == 0:
            continue
        y = ((b1 * n2[1] - b2 * n1[1]) / det, (n1[0] * b2 - n2[0] * b1) / det)
        if all(dot(n, y) <= b for n, b in hs):
            out.add(y)
    return sorted(out)


def _affine(alpha, v0, edges) -> Poly:
    """<alpha, v0 + sum_j x_j edges_j> as a polynomial in the chart x."""
    dim = len(v0)
    p = {(0,) * dim: dot(alpha, v0)}
    for j, e in enumerate(edges):
        key = tuple(int(i == j) for i in range(dim))
        p[key] = p.get(key, Fraction(0)) + dot(alpha, e)
    return p


def _mul(p: Poly, r: Poly) -> Poly:
    out: Poly = {}
    for a, ca in p.items():
        for b, cb in r.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def _std_simplex_monomial(beta) -> Fraction:
    return Fraction(math.prod(math.factorial(b) for b in beta),
                    math.factorial(len(beta) + sum(beta)))


def _det(edges) -> Fraction:
    if len(edges) == 1:
        return edges[0][0]
    (a, b), (c, d) = edges
    return a * d - b * c


def pl_min(pieces, y) -> Fraction:
    """f(y) = min_a (C_a - <Lambda_a, y>), exact."""
    return min(c - dot(lam, y) for c, lam in pieces)


def scaled_piece_coeffs(pieces, qden: int):
    """Per piece (D, c0, coeffs): its value at m/qden equals
    (c0 - sum_k coeffs[k] m[k]) / D with all entries integers."""
    out = []
    for c, lam in pieces:
        d = c.denominator
        for x in lam:
            d = math.lcm(d, x.denominator * qden)
        out.append((d, int(c * d), [int(x * d / qden) for x in lam]))
    return out


def pl_values_scaled(pieces, points, qden: int, den: int) -> List[int]:
    """den * f(m/qden) at every integer point m, as exact integers; den must
    be a multiple of every piece denominator from scaled_piece_coeffs."""
    coeffs = scaled_piece_coeffs(pieces, qden)
    return [min((c0 - dot(cs, m)) * (den // d) for d, c0, cs in coeffs) for m in points]


def common_denominator(*piece_lists, qden: int) -> int:
    den = 1
    for pieces in piece_lists:
        for d, _, _ in scaled_piece_coeffs(pieces, qden):
            den = math.lcm(den, d)
    return den
