"""Exact-structure integration of polynomial x exponential over simplices.

Core identity: for the standard simplex D_n = {x >= 0, sum x <= 1},

    int_{D_n} x^beta e^{<c,x>} dx
        = (prod_i beta_i!) * exp[0, c_1^(b1+1), ..., c_n^(bn+1)],

a confluent divided difference of exp with node c_i repeated beta_i + 1 times
(Hermite-Genocchi). Divided differences of exp are evaluated through the
matrix exponential of the bidiagonal Opitz matrix, which is stable for
clustered, tiny, or large nodes alike; no series/closed-form branch switch is
needed. Arbitrary simplices reduce to the standard one by an affine map.

Sums over simplices and monomials run in a fixed order with compensated
accumulation, so results are bit-reproducible.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._numeric import kahan_sum, vec_exact
from ._poly import Polynomial
from .errors import DegenerateSimplex, DegreeCapExceeded, InconsistentInputs, PrecisionLoss
from .polytope import Polytope, triangulate

DEGREE_CAP = 24
REL_TARGET = 1e-12
_CANCEL_LIMIT = 1e-14


@dataclass(frozen=True)
class RegionMoments:
    """Unnormalized moments of pi * exp(<lam, y>) over a region."""
    z: float
    first: Tuple[float, ...]
    second: Tuple[Tuple[float, ...], ...]
    lam: Tuple[float, ...]

    def barycenter(self) -> Tuple[float, ...]:
        return tuple(m / self.z for m in self.first)

    def covariance(self) -> np.ndarray:
        b = np.asarray(self.barycenter())
        s = np.asarray(self.second) / self.z
        return s - np.outer(b, b)


# Pade-13 scaling-and-squaring constants (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack (B, m, m), Pade-13 scaling-squaring.

    One scaling power is chosen for the whole stack, so the evaluation is a
    fixed sequence of batched matmuls: deterministic and fast for the many
    small bidiagonal matrices this module generates.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[-1]
    ident = np.broadcast_to(np.eye(m), A.shape).copy()
    norm = float(np.max(np.sum(np.abs(A), axis=-1))) if A.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0)
    A = A / (2.0 ** s)
    b = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _opitz_matrix(nodes: Sequence[float]) -> np.ndarray:
    m = len(nodes)
    J = np.diag(np.asarray(nodes, dtype=float))
    for i in range(m - 1):
        J[i, i + 1] = 1.0
    return J


def _dd_exp_many(node_lists: List[Tuple[float, ...]]) -> List[float]:
    """Divided differences for many node multisets, batched by length."""
    out = [0.0] * len(node_lists)
    by_len: Dict[int, List[int]] = {}
    for i, nodes in enumerate(node_lists):
        by_len.setdefault(len(nodes), []).append(i)
    for m, idxs in sorted(by_len.items()):
        if m == 1:
            for i in idxs:
                out[i] = float(np.exp(node_lists[i][0]))
            continue
        stack = np.stack([_opitz_matrix(node_lists[i]) for i in idxs])
        vals = _expm_stack(stack)[:, 0, m - 1]
        for j, i in enumerate(idxs):
            out[i] = float(vals[j])
    return out


def _simplex_chart(simplex) -> Tuple[tuple, list, Fraction]:
    """Affine chart y = v0 + B x with B columns the edge vectors; exact."""
    verts = [vec_exact(v) for v in simplex]
    dim = len(verts[0])
    if len(verts) != dim + 1:
        raise InconsistentInputs("simplex needs dim+1 vertices")
    v0 = verts[0]
    B = [[verts[j + 1][i] - v0[i] for j in range(dim)] for i in range(dim)]
    from ._numeric import mat_rank
    if mat_rank(B) != dim:
        raise DegenerateSimplex("simplex has zero volume")
    from .polytope import _det_exact
    det = _det_exact(B)
    return v0, B, det


def _pullback_monomials(p: Polynomial, v0, B) -> Dict[Tuple[int, ...], float]:
    q = p.compose_affine(B, v0)
    return {mono: float(c) for mono, c in sorted(q.terms.items())}


# -- cached per-polytope moment machinery ------------------------------------

class _SimplexBlock:
    __slots__ = ("v0f", "Bf", "absdet", "mono")

    def __init__(self, simplex, pi: Polynomial):
        v0, B, det = _simplex_chart(simplex)
        self.v0f = tuple(float(x) for x in v0)
        self.Bf = tuple(tuple(float(B[i][j]) for j in range(len(v0))) for i in range(len(v0)))
        self.absdet = abs(float(det))
        self.mono = _pullback_monomials(pi, v0, B)

    def c_of(self, lamf) -> Tuple[float, ...]:
        dim = len(self.v0f)
        return tuple(sum(self.Bf[i][j] * lamf[i] for i in range(dim)) for j in range(dim))


class MomentEngine:
    """Caches the pullbacks of pi to a list of simplices that tile a region."""

    def __init__(self, simplices: Sequence, pi: Polynomial):
        if pi.degree() > DEGREE_CAP:
            raise DegreeCapExceeded(f"degree {pi.degree()} exceeds cap {DEGREE_CAP}")
        if any(len(v) != pi.dim for s in simplices for v in s):
            raise InconsistentInputs("density dimension mismatch")
        self.dim = pi.dim
        self.blocks = [_SimplexBlock(s, pi) for s in simplices]

    def _needed_indices(self, blk: _SimplexBlock, orders: int):
        dim = self.dim
        gammas = [tuple([0] * dim)]
        if orders >= 1:
            for k in range(dim):
                g = [0] * dim
                g[k] = 1
                gammas.append(tuple(g))
        if orders >= 2:
            for k in range(dim):
                for l in range(k, dim):
                    g = [0] * dim
                    g[k] += 1
                    g[l] += 1
                    gammas.append(tuple(g))
        needed = set()
        for beta in blk.mono:
            for g in gammas:
                needed.add(tuple(b + gg for b, gg in zip(beta, g)))
        return sorted(needed)

    def _all_integrals(self, lamf, orders: int):
        """I(beta+gamma) per simplex, with the dd's batched across blocks."""
        per_block = []
        node_lists = []
        slots = []
        for bi, blk in enumerate(self.blocks):
            c = blk.c_of(lamf)
            needed = self._needed_indices(blk, orders)
            per_block.append({})
            for idx in needed:
                nodes = [0.0]
                for ci, mult in zip(c, idx):
                    nodes.extend([float(ci)] * (mult + 1))
                node_lists.append(tuple(nodes))
                slots.append((bi, idx))
        dds = _dd_exp_many(node_lists)
        for (bi, idx), v in zip(slots, dds):
            for mult in idx:
                v *= factorial(mult)
            per_block[bi][idx] = v
        return per_block

    def moments(self, lam: Sequence[float], orders: int = 2) -> RegionMoments:
        dim = self.dim
        if len(lam) != dim:
            raise InconsistentInputs(f"lambda has {len(lam)} coordinates, region has dimension {dim}")
        lamf = tuple(float(x) for x in lam)
        all_vals = self._all_integrals(lamf, orders)
        z_parts: List[float] = []
        m1_parts = [[] for _ in range(dim)]
        m2_parts = [[[] for _ in range(dim)] for _ in range(dim)]
        for blk, vals in zip(self.blocks, all_vals):
            shift = sum(blk.v0f[i] * lamf[i] for i in range(dim))
            scale = blk.absdet * float(np.exp(shift))

            def I(beta, extra=()):
                idx = list(beta)
                for k in extra:
                    idx[k] += 1
                return vals[tuple(idx)]

            s0_parts = []
            for beta in sorted(blk.mono):
                s0_parts.append(blk.mono[beta] * I(beta))
            s0, peak0 = kahan_sum(s0_parts)
            if peak0 > 0 and abs(s0) < _CANCEL_LIMIT * peak0:
                raise PrecisionLoss("cancellation in z-moment")
            z_parts.append(scale * s0)

            if orders >= 1:
                # x-moments in chart coordinates, then y = v0 + B x.
                sx = []
                for k in range(dim):
                    parts = [blk.mono[beta] * I(beta, (k,)) for beta in sorted(blk.mono)]
                    sx.append(kahan_sum(parts)[0])
                for i in range(dim):
                    v = blk.v0f[i] * s0 + sum(blk.Bf[i][k] * sx[k] for k in range(dim))
                    m1_parts[i].append(scale * v)
            if orders >= 2:
                sxx = [[0.0] * dim for _ in range(dim)]
                for k in range(dim):
                    for l in range(k, dim):
                        parts = [blk.mono[beta] * I(beta, (k, l)) for beta in sorted(blk.mono)]
                        sxx[k][l] = sxx[l][k] = kahan_sum(parts)[0]
                for i in range(dim):
                    for j in range(i, dim):
                        v = blk.v0f[i] * blk.v0f[j] * s0
                        for k in range(dim):
                            v += blk.v0f[i] * blk.Bf[j][k] * sx[k]
                            v += blk.v0f[j] * blk.Bf[i][k] * sx[k]
                        for k in range(dim):
                            for l in range(dim):
                                v += blk.Bf[i][k] * blk.Bf[j][l] * sxx[k][l]
                        m2_parts[i][j].append(scale * v)
                        if i != j:
                            m2_parts[j][i].append(scale * v)
        z = kahan_sum(z_parts)[0]
        first = tuple(kahan_sum(m1_parts[i])[0] for i in range(dim)) if orders >= 1 else tuple([0.0] * dim)
        second = tuple(
            tuple(kahan_sum(m2_parts[i][j])[0] for j in range(dim)) for i in range(dim)
        ) if orders >= 2 else tuple(tuple([0.0] * dim for _ in range(dim)))
        return RegionMoments(z=z, first=first, second=second, lam=lamf)

    def z(self, lam: Sequence[float]) -> float:
        return self.moments(lam, orders=0).z


@lru_cache(maxsize=128)
def get_engine(region: Polytope, pi: Polynomial) -> MomentEngine:
    return MomentEngine(triangulate(region), pi)


def region_moments(region: Polytope, pi: Polynomial, lam: Sequence[float]) -> RegionMoments:
    """z, first and second unnormalized moments of pi e^{<lam,y>} over region."""
    return get_engine(region, pi).moments(lam, orders=2)


def integrate_simplex(p: Polynomial, lam: Sequence[float], simplex) -> float:
    """int_simplex p(y) exp(<lam, y>) dy, closed form, float64.

    The polynomial degree is capped at DEGREE_CAP; degenerate simplices raise.
    """
    return MomentEngine([simplex], p).z(lam)


def integrate_region(region: Polytope, p: Polynomial, lam: Sequence[float],
                     subdivisions: int = 0) -> float:
    """int_region p(y) exp(<lam, y>) dy over a triangulation, with optional
    uniform refinement (each level splits every simplex into 2^dim children)."""
    simplices = triangulate(region)
    for _ in range(subdivisions):
        simplices = [child for s in simplices for child in subdivide_simplex(s)]
    return MomentEngine(simplices, p).z(lam)


def subdivide_simplex(simplex) -> List[tuple]:
    """Uniform refinement: 2 children in 1-D, 4 in 2-D, 8 in 3-D."""
    verts = [vec_exact(v) for v in simplex]
    dim = len(verts[0])

    def mid(a, b):
        return tuple((x + y) / 2 for x, y in zip(a, b))

    if dim == 1:
        a, b = verts
        m = mid(a, b)
        return [(a, m), (m, b)]
    if dim == 2:
        a, b, c = verts
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        return [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    if dim == 3:
        a, b, c, d = verts
        ab, ac, ad = mid(a, b), mid(a, c), mid(a, d)
        bc, bd, cd = mid(b, c), mid(b, d), mid(c, d)
        return [
            (a, ab, ac, ad), (ab, b, bc, bd), (ac, bc, c, cd), (ad, bd, cd, d),
            (ab, ac, ad, bd), (ab, ac, bc, bd), (ac, ad, bd, cd), (ac, bc, bd, cd),
        ]
    raise InconsistentInputs("uniform subdivision implemented for dim <= 3")
