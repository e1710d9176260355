"""Root systems on a Euclidean coordinate space.

A root system is specified either by a catalog name (A1, A1xA1, A2, B2, G2,
or "x"-joined direct sums such as A1xB2) or by explicit simple roots, plus an
optional central torus rank appended as trailing zero coordinates. A1 uses the
SL2 normalization with the positive root at coordinate 2; the literal name
A1xA1 uses the SO4 frame with simple roots (1,-1) and (1,1).

All pairings are the standard dot product on R^dim. Coordinates supplied as
int/Fraction/str stay exact rationals; float coordinates (needed for A2/G2 in
an orthonormal frame) are carried exactly as binary rationals but marked
non-exact for downstream formatting.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._numeric import dot, is_exact_input, mat_rank, solve_exact, to_exact, vec_exact
from ._poly import Polynomial
from .errors import InvalidCartanDatum, UnknownCatalogName

Vector = Tuple[Fraction, ...]

_SQRT3 = math.sqrt(3.0)

# Catalog simple roots, before central padding.
_CATALOG = {
    "A1": ((Fraction(2),),),
    "A1xA1": ((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))),
    "A2": ((1.0, 0.0), (-0.5, _SQRT3 / 2)),
    "B2": ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))),
    "G2": ((1.0, 0.0), (-1.5, _SQRT3 / 2)),
}

_GEN_TOL = 1e-9


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
    exact: bool
    _dh: List = field(default_factory=list, compare=False, repr=False)

    # -- basic geometry --

    def pair(self, alpha: Sequence, y: Sequence):
        return dot(alpha, y)

    def is_dominant(self, y: Sequence, tol: float = 1e-12) -> bool:
        return all(float(dot(a, y)) >= -tol for a in self.simple_roots)

    def reflect(self, i: int, y: Sequence) -> tuple:
        a = self.simple_roots[i]
        c = 2 * dot(a, y) / dot(a, a)
        return tuple(x - c * ax for x, ax in zip(y, a))

    def root_coefficients(self, v: Sequence):
        """Write v = sum c_i alpha_i over the simple roots.

        Returns (coeffs, residual_norm): residual is the part of v outside the
        root span. Exact when the root system is rational.
        """
        if self.exact:
            cols = [vec_exact(a) for a in self.simple_roots]
            rows = [[cols[j][i] for j in range(self.rank)] for i in range(self.dim)]
            gram = [
                [sum(rows[i][a] * rows[i][b] for i in range(self.dim)) for b in range(self.rank)]
                for a in range(self.rank)
            ]
            rhs = [sum(rows[i][a] * to_exact(v[i]) for i in range(self.dim)) for a in range(self.rank)]
            sol = solve_exact(gram, rhs)
            if sol is None:
                raise InvalidCartanDatum("degenerate simple-root Gram matrix")
            recon = [sum(sol[j] * cols[j][i] for j in range(self.rank)) for i in range(self.dim)]
            res = math.sqrt(sum(float(to_exact(v[i]) - recon[i]) ** 2 for i in range(self.dim)))
            return tuple(sol), res
        import numpy as np
        A = np.array(self.simple_roots, dtype=float).T
        b = np.array([float(x) for x in v])
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        res = float(np.linalg.norm(A @ sol - b))
        return tuple(float(c) for c in sol), res


def _pad_central(roots, central_rank: int):
    if central_rank == 0:
        return [tuple(r) for r in roots]
    zero = tuple([Fraction(0)] * central_rank)
    return [tuple(r) + zero for r in roots]


def _catalog_simple_roots(name: str):
    if name in _CATALOG:
        return [list(r) for r in _CATALOG[name]]
    if "x" in name:
        blocks = []
        for part in name.split("x"):
            if part not in _CATALOG or "x" in part:
                raise UnknownCatalogName(f"unknown catalog name: {name!r}")
            blocks.append(_CATALOG[part])
        dims = [len(b[0]) for b in blocks]
        total = sum(dims)
        roots = []
        offset = 0
        for b, d in zip(blocks, dims):
            for r in b:
                row = [Fraction(0)] * total
                for i, x in enumerate(r):
                    row[offset + i] = x
                roots.append(row)
            offset += d
        return roots
    raise UnknownCatalogName(f"unknown catalog name: {name!r}")


def _round_key(v, exact: bool):
    if exact:
        return tuple(to_exact(x) for x in v)
    return tuple(round(float(x) / _GEN_TOL) for x in v)


def _generate_roots(simple, exact: bool):
    """Closure of the simple roots under simple reflections (finite Weyl orbit)."""
    rank = len(simple)
    dim = len(simple[0])

    def refl(i, y):
        a = simple[i]
        c = 2 * dot(a, y) / dot(a, a)
        return tuple(x - c * ax for x, ax in zip(y, a))

    seen = {}
    frontier = [tuple(r) for r in simple] + [tuple(-x for x in r) for r in simple]
    for v in frontier:
        seen[_round_key(v, exact)] = v
    guard = 0
    while frontier:
        guard += 1
        if guard > 64:
            raise InvalidCartanDatum("root generation did not close; datum is not crystallographic")
        new = []
        for v in frontier:
            for i in range(rank):
                w = refl(i, v)
                k = _round_key(w, exact)
                if k not in seen:
                    seen[k] = w
                    new.append(w)
        frontier = new
        if len(seen) > 4096:
            raise InvalidCartanDatum("root generation exploded; datum is not crystallographic")
    return list(seen.values())


def _is_positive(root, simple, exact: bool):
    """A root is positive iff its simple-root coefficients are all >= 0."""
    rank = len(simple)
    dim = len(simple[0])
    if exact:
        rows = [[to_exact(simple[j][i]) for j in range(rank)] for i in range(dim)]
        sol = solve_exact(rows, [to_exact(x) for x in root])
        if sol is None:
            return False
        return all(c >= 0 for c in sol) and any(c > 0 for c in sol)
    import numpy as np
    A = np.array(simple, dtype=float).T
    sol, *_ = np.linalg.lstsq(A, np.array([float(x) for x in root]), rcond=None)
    if float(np.linalg.norm(A @ sol - np.array([float(x) for x in root]))) > 1e-7:
        return False
    return all(c >= -1e-9 for c in sol) and any(c > 1e-9 for c in sol)


def _sort_key(root):
    return tuple(float(x) for x in root)


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Validate the datum, generate positive roots, and precompute 2rho."""
    if (spec.catalog is None) == (spec.simple_roots is None):
        raise InvalidCartanDatum("specify exactly one of catalog or simple_roots")
    if spec.central_rank < 0:
        raise InvalidCartanDatum("central_rank must be >= 0")

    if spec.catalog is not None:
        raw = _catalog_simple_roots(spec.catalog)
        name = spec.catalog
    else:
        raw = [list(r) for r in spec.simple_roots]
        name = "custom"
        if not raw:
            raise InvalidCartanDatum("at least one simple root required")
        if len({len(r) for r in raw}) != 1:
            raise InvalidCartanDatum("ragged simple roots")

    exact = all(is_exact_input(x) for r in raw for x in r)
    simple = [vec_exact(r) if exact else tuple(float(x) for x in r) for r in raw]
    rank = len(simple)
    root_dim = len(simple[0])

    # Simple roots must be linearly independent.
    if exact:
        if mat_rank(simple) != rank:
            raise InvalidCartanDatum("simple roots are linearly dependent")
    else:
        import numpy as np
        if int(np.linalg.matrix_rank(np.array(simple, dtype=float), tol=1e-9)) != rank:
            raise InvalidCartanDatum("simple roots are linearly dependent")

    # Cartan integers: 2<ai,aj>/<aj,aj> integral, diagonal 2, off-diagonal <= 0,
    # and a_ij * a_ji in {0,1,2,3}.
    cartan = []
    for i in range(rank):
        row = []
        for j in range(rank):
            c = 2 * dot(simple[i], simple[j]) / dot(simple[j], simple[j])
            cf = float(c)
            ci = round(cf)
            if abs(cf - ci) > 1e-9:
                raise InvalidCartanDatum(f"Cartan number a[{i}][{j}] = {cf} is not an integer")
            row.append(int(ci))
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

    all_roots = _generate_roots(simple, exact)
    positive = [r for r in all_roots if _is_positive(r, simple, exact)]
    if 2 * len(positive) != len(all_roots):
        raise InvalidCartanDatum("root set is not symmetric; datum invalid")
    positive.sort(key=_sort_key)

    simple_p = _pad_central(simple, spec.central_rank)
    positive_p = _pad_central(positive, spec.central_rank)
    dim = root_dim + spec.central_rank

    two_rho = tuple(sum(r[i] for r in positive_p) for i in range(dim))

    return RootSystem(
        name=name,
        dim=dim,
        rank=rank,
        central_rank=spec.central_rank,
        simple_roots=tuple(simple_p),
        positive_roots=tuple(positive_p),
        two_rho=two_rho,
        cartan_matrix=tuple(cartan),
        exact=exact,
    )


def dh_density(rs: RootSystem) -> Polynomial:
    """Duistermaat-Heckman density prod_{alpha in Phi+} <alpha, y>^2."""
    if rs._dh:
        return rs._dh[0]
    p = Polynomial.constant(rs.dim, 1)
    for alpha in rs.positive_roots:
        lin = Polynomial.linear_form([to_exact(a) for a in alpha])
        p = p * lin * lin
    rs._dh.append(p)
    return p


def dominant_representative(rs: RootSystem, y: Sequence) -> Tuple[tuple, Tuple[int, ...]]:
    """Weyl-orbit representative in the closed dominant chamber.

    Returns (vector, word); applying the simple reflections in word order to y
    yields the representative. Exact for rational data.
    """
    cur = vec_exact(y) if rs.exact else tuple(float(x) for x in y)
    word = []
    guard = 0
    while True:
        neg = None
        for i, a in enumerate(rs.simple_roots):
            v = dot(a, cur)
            if (v < 0) if rs.exact else (float(v) < -1e-12):
                neg = i
                break
        if neg is None:
            return cur, tuple(word)
        cur = rs.reflect(neg, cur)
        if rs.exact:
            cur = vec_exact(cur)
        word.append(neg)
        guard += 1
        if guard > 10000:
            raise InvalidCartanDatum("reflection walk did not terminate")
