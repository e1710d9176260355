"""Root systems with an exact Killing form.

A root system is a catalog name (A1, A1xA1, A2, B2, G2, or "x"-joined direct
sums such as A1xB2) or explicit simple roots, plus an optional central torus
rank appended as trailing coordinates.

Weights (roots, 2rho, the moment polytope) are coordinates in a basis of a*
and slopes Lambda in the dual basis of a, so <Lambda, y> is the plain dot
product. The Killing form is (x, y) = x^T Q y with Q the rational Gram matrix
of the weight basis; it enters through `pair`, `reflect`, `is_dominant` and
`functional` (x -> Q x, the slope pairing like (x, .)). A1 (positive root 2),
A1xA1 (the SO4 frame (1,-1), (1,1)) and B2 ((1,-1), (0,1)) are orthonormal,
Q = I, stored as None. A2 and G2 have no rational orthonormal frame and use
fundamental-weight coordinates (Bourbaki, Lie Groups ch. VI, plates I and
IX): A2 has (2,-1), (-1,2) with Q = (1/3)[[2,1],[1,2]], G2 (alpha_1 short)
has (2,-1), (-3,2) with Q = [[2,3],[3,6]]. Sums take a block-diagonal Q,
central coordinates an identity block.

Every coordinate is an exact rational: floats in custom simple roots are read
as their exact binary values (with Q = I), so an irrational frame fails the
Cartan test with InvalidCartanDatum.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._numeric import dot, mat_rank, solve_exact, vec_exact
from ._poly import Polynomial
from .errors import InvalidCartanDatum, UnknownCatalogName

Vector = Tuple[Fraction, ...]
Gram = Optional[Tuple[Vector, ...]]     # None: the identity


def _q(rows) -> Tuple[Vector, ...]:
    return tuple(vec_exact(r) for r in rows)


# Catalog simple roots and Gram matrices.
_CATALOG = {
    "A1": (_q([[2]]), None),
    "A1xA1": (_q([[1, -1], [1, 1]]), None),
    "A2": (_q([[2, -1], [-1, 2]]), _q([["2/3", "1/3"], ["1/3", "2/3"]])),
    "B2": (_q([[1, -1], [0, 1]]), None),
    "G2": (_q([[2, -1], [-3, 2]]), _q([[2, 3], [3, 6]])),
}


def _apply(gram: Gram, v: Sequence) -> tuple:
    """Q v; v itself when Q is the identity."""
    return tuple(v) if gram is None else tuple(dot(row, v) for row in gram)


@dataclass(frozen=True)
class RootSystemSpec:
    """Input datum: catalog name or explicit simple roots, plus central rank."""
    catalog: Optional[str] = None
    simple_roots: Optional[Sequence[Sequence]] = None
    central_rank: int = 0


@dataclass(frozen=True)
class RootSystem:
    name: str
    dim: int
    rank: int
    central_rank: int
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    two_rho: Vector
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    gram: Gram = None
    # 2 Q alpha_i / (alpha_i, alpha_i): s_i y = y - <coroot_i, y> alpha_i
    _coroots: Tuple[Vector, ...] = field(default=(), compare=False, repr=False)
    _dh: List = field(default_factory=list, compare=False, repr=False)

    # -- basic geometry --

    def functional(self, v: Sequence) -> tuple:
        """Q v: the slope whose dot product with y is the Killing form (v, y)."""
        return _apply(self.gram, v)

    def pair(self, alpha: Sequence, y: Sequence):
        """Killing form (alpha, y)."""
        return dot(self.functional(alpha), y)

    def is_dominant(self, y: Sequence, tol: float = 1e-12) -> bool:
        return all(float(self.pair(a, y)) >= -tol for a in self.simple_roots)

    def reflect(self, i: int, y: Sequence) -> tuple:
        c = dot(self._coroots[i], y)
        return tuple(x - c * ax for x, ax in zip(y, self.simple_roots[i]))

    def root_coefficients(self, v: Sequence):
        """Write v = sum c_i alpha_i over the simple roots, exactly.

        Returns (coeffs, residual_norm): residual is the part of v outside the
        root span (a central vector, where Q is the identity).
        """
        cols = self.simple_roots
        v = vec_exact(v)
        gram = [[dot(a, b) for b in cols] for a in cols]
        sol = solve_exact(gram, [dot(a, v) for a in cols])
        if sol is None:
            raise InvalidCartanDatum("degenerate simple-root Gram matrix")
        recon = [sum(c * a[i] for c, a in zip(sol, cols)) for i in range(self.dim)]
        res = math.sqrt(sum(float(v[i] - recon[i]) ** 2 for i in range(self.dim)))
        return sol, res


def _direct_sum(blocks) -> Tuple[List[Vector], Gram]:
    """Simple roots and block-diagonal Q of (simple roots, Q, dim) blocks; Q
    is None when every block's is."""
    total = sum(d for _, _, d in blocks)
    roots, gram, offset = [], [], 0
    for block_roots, g, d in blocks:
        def pad(v):
            return (Fraction(0),) * offset + tuple(v) + (Fraction(0),) * (total - offset - d)
        roots += [pad(r) for r in block_roots]
        gram += [pad(g[i] if g else [Fraction(int(i == j)) for j in range(d)]) for i in range(d)]
        offset += d
    return roots, None if all(g is None for _, g, _ in blocks) else tuple(gram)


def _generate_roots(cartan) -> List[Tuple[int, ...]]:
    """Simple-root coefficients of every root: the closure of the simple
    roots under s_i(c) = c - (sum_j c_j a_ji) e_i, in integers."""
    rank = len(cartan)
    frontier = [tuple(s * int(i == j) for j in range(rank)) for i in range(rank) for s in (1, -1)]
    seen = set(frontier)
    guard = 0
    while frontier:
        guard += 1
        if guard > 64:
            raise InvalidCartanDatum("root generation did not close; datum is not crystallographic")
        new = []
        for c in frontier:
            for i in range(rank):
                w = list(c)
                w[i] -= sum(cj * cartan[j][i] for j, cj in enumerate(c))
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
        if len(seen) > 4096:
            raise InvalidCartanDatum("root generation exploded; datum is not crystallographic")
    return list(seen)


def _sort_key(root):
    return tuple(float(x) for x in root)


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Validate the datum, generate positive roots, and precompute 2rho."""
    if (spec.catalog is None) == (spec.simple_roots is None):
        raise InvalidCartanDatum("specify exactly one of catalog or simple_roots")
    if spec.central_rank < 0:
        raise InvalidCartanDatum("central_rank must be >= 0")

    if spec.catalog is not None:
        name = spec.catalog
        parts = [name] if name in _CATALOG else name.split("x")
        if any(p not in _CATALOG for p in parts):
            raise UnknownCatalogName(f"unknown catalog name: {name!r}")
        blocks = [_CATALOG[p] for p in parts]
    else:
        name = "custom"
        blocks = [(_q(spec.simple_roots), None)]
        if not blocks[0][0]:
            raise InvalidCartanDatum("at least one simple root required")
        if len({len(r) for r in blocks[0][0]}) != 1:
            raise InvalidCartanDatum("ragged simple roots")
    c = spec.central_rank
    simple, gram = _direct_sum([(b, g, len(b[0])) for b, g in blocks] + [((), None, c)])
    rank, dim = len(simple), len(simple[0])

    if mat_rank(simple) != rank:
        raise InvalidCartanDatum("simple roots are linearly dependent")

    # Each simple root's functional Q alpha_i, formed once.
    funcs = [_apply(gram, a) for a in simple]
    coroots = [tuple(2 * x / dot(f, a) for x in f) for f, a in zip(funcs, simple)]

    # Cartan integers: 2(ai,aj)/(aj,aj) integral, diagonal 2, off-diagonal <= 0,
    # and a_ij * a_ji in {0,1,2,3}.
    cartan = []
    for i in range(rank):
        row = []
        for j in range(rank):
            a_ij = dot(coroots[j], simple[i])
            if a_ij.denominator != 1:
                raise InvalidCartanDatum(
                    f"Cartan number a[{i}][{j}] = {float(a_ij)} is not exactly an integer")
            row.append(int(a_ij))
        cartan.append(tuple(row))
    for i in range(rank):
        if cartan[i][i] != 2:
            raise InvalidCartanDatum("Cartan diagonal must be 2")
        for j in range(rank):
            if i != j:
                if cartan[i][j] > 0:
                    raise InvalidCartanDatum("off-diagonal Cartan numbers must be <= 0")
                if cartan[i][j] * cartan[j][i] not in (0, 1, 2, 3):
                    raise InvalidCartanDatum("Cartan product outside {0,1,2,3}")

    all_roots = _generate_roots(cartan)
    positive = [r for r in all_roots if min(r) >= 0]
    if 2 * len(positive) != len(all_roots):
        raise InvalidCartanDatum("root set is not symmetric; datum invalid")
    positive = sorted((tuple(sum(k * a[t] for k, a in zip(r, simple)) for t in range(dim))
                       for r in positive), key=_sort_key)

    return RootSystem(
        name=name,
        dim=dim,
        rank=rank,
        central_rank=c,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        two_rho=tuple(sum(r[t] for r in positive) for t in range(dim)),
        cartan_matrix=tuple(cartan),
        gram=gram,
        _coroots=tuple(coroots),
    )


def dh_density(rs: RootSystem) -> Polynomial:
    """Duistermaat-Heckman density prod_{alpha in Phi+} (alpha, y)^2."""
    if rs._dh:
        return rs._dh[0]
    p = Polynomial.constant(rs.dim, 1)
    for alpha in rs.positive_roots:
        lin = Polynomial.linear_form(list(rs.functional(alpha)))
        p = p * lin * lin
    rs._dh.append(p)
    return p


def dominant_representative(rs: RootSystem, y: Sequence) -> Tuple[tuple, Tuple[int, ...]]:
    """Weyl-orbit representative in the closed dominant chamber, exactly.

    Returns (vector, word); applying the simple reflections in word order to y
    yields the representative.
    """
    cur = vec_exact(y)
    word = []
    while True:
        neg = next((i for i, c in enumerate(rs._coroots) if dot(c, cur) < 0), None)
        if neg is None:
            return cur, tuple(word)
        cur = rs.reflect(neg, cur)
        word.append(neg)
        if len(word) > 10000:
            raise InvalidCartanDatum("reflection walk did not terminate")
