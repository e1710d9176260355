"""Exact-structure integration of polynomial x exponential over simplices.

Core identity: for the standard simplex D_n = {x >= 0, sum x <= 1},

    int_{D_n} x^beta e^{<c,x>} dx
        = (prod_i beta_i!) * exp[0, c_1^(b1+1), ..., c_n^(bn+1)],

a confluent divided difference of exp with node c_i repeated beta_i + 1 times
(Hermite-Genocchi). Divided differences of exp are read off the matrix
exponential of a bidiagonal Opitz matrix, which holds the divided difference
of every contiguous window of its node chain and is stable for clustered,
tiny, or large nodes alike; no series/closed-form branch switch is needed.
Those exponentials are Taylor series in batched matmuls (Paterson-Stockmeyer,
scaling and squaring; no solve), with a degree that grows with the chain;
every window of chains of up to 40 nodes was within 2.4e-14 relative of a
60-digit reference (_expm_stack). The integrals of a simplex that differ
only in beta_1 and beta_2 share one chain. Arbitrary simplices reduce to the
standard one by an affine map.

Sums over simplices and monomials run in a fixed order with compensated
accumulation, so results are bit-reproducible.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isqrt, lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._numeric import int_det, scaled_ints, vec_exact
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


# Taylor degrees of the kernel, as (longest chain, p, q): a stack of m x m
# matrices takes the first row with m <= longest chain, and longer chains
# take p = q = ceil(sqrt(m)); the series runs through degree K = p q - 1.
_DEGREES = ((12, 4, 5), (20, 5, 5), (28, 5, 6), (36, 6, 6), (42, 6, 7), (49, 7, 7))
_THETA = 0.5
# matrix entries per chunk of a stack: the chunk's p + q + 2 work stacks stay
# small and in cache, whatever the stack's length
_CHUNK = 2 ** 14


@lru_cache(maxsize=None)
def _taylor_blocks(p: int, q: int) -> np.ndarray:
    """Row j: the Taylor coefficients 1/(j p + i)!, i < p."""
    out = np.array([[1.0 / factorial(j * p + i) for i in range(p)] for j in range(q)])
    out.flags.writeable = False    # shared by every caller of the cache
    return out


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack (B, m, m): a Taylor series by
    Paterson-Stockmeyer, with scaling and squaring; matmuls only.

    One scaling power 2^s, for the whole stack, brings the largest row sum
    to theta = 1/2 or below. The powers A^i, i < p, are stacked once; block
    j of the degree-K series, Q_j = sum_i A^i / (j p + i)!, comes for all
    q blocks from one GEMM over the flattened stack, and the series is
    Horner's rule in A^p on the blocks (Paterson & Stockmeyer 1973). Then s
    squarings. No step depends on the data, so the evaluation is a fixed
    sequence of batched matmuls: deterministic, with no solve. Long stacks
    run in chunks of _CHUNK entries; each matrix's result is the same.

    K grows with m. For an Opitz matrix J with nodes in [-X, X] and
    n = 2^s, T(J/n)^n = exp(J) - n exp(J - J/n) r(J/n) + ..., r the series
    remainder. Entry (i, j) is a divided difference of order o = j - i,
    so its relative error is about

        n * sum_{l <= min(o, K + 1)} C(o, l) n^-l rho^(K+1-l) / (K+1-l)!,

    rho = X / n; term l comes from the l-th derivative of the remainder.
    A fixed degree fails on long chains (K = 24 at theta = min(2, 8/m):
    1.3e-10 at m = 31). Each row of _DEGREES is the smallest p q - 1 whose
    estimate stays below 2^-53 at every X on a 0.05 grid up to 40 and at
    each scaling threshold. Past 36 nodes K + 1 >= m is enough: p = q = 7
    holds to m = 49 and p = q = 8 to m = 66. A squaring doubles a rounding
    error, so a smaller theta costs accuracy as well as time; a larger one
    needs a longer series, and a negative node's series cancels about
    e^(2 theta)-fold.

    Worst relative window error against a 60-digit reference. "test" is
    test_every_window_against_reference's chains. "random" is 560 chains
    with nodes spread or clustered within +-0.5 to +-30, or near-constant
    at +-30, +-8.5, +-1.9 or 0. "placed" is 560 constant or evenly spaced
    chains with X at a scaling threshold.

        m        test      random    placed
        1        2.2e-15   3.8e-15   5.5e-15
        2-8      1.5e-14   1.6e-14   8.1e-15
        9-16     1.5e-14   1.8e-14   9.9e-15
        17-24    2.1e-14   2.3e-14   1.0e-14
        25-32    1.9e-14   2.4e-14   1.0e-14
        33-40    1.8e-14   2.3e-14   1.1e-14
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[-1]
    p, q = next(((p, q) for top, p, q in _DEGREES if m <= top), (isqrt(m - 1) + 1,) * 2)
    blocks = _taylor_blocks(p, q)
    norm = float(np.max(np.sum(np.abs(A), axis=-1))) if A.size else 0.0
    s = int(np.ceil(np.log2(norm / _THETA))) if norm > _THETA else 0
    out = np.empty_like(A)
    step = max(1, _CHUNK // (m * m))
    for lo in range(0, len(A), step):
        P = np.empty((p,) + A[lo:lo + step].shape)
        P[0] = np.eye(m)
        np.multiply(A[lo:lo + step], 2.0 ** -s, out=P[1])
        for i in range(2, p):
            np.matmul(P[i - 1], P[1], out=P[i])
        Ap = P[-1] @ P[1]
        Q = (blocks @ P.reshape(p, -1)).reshape((q,) + P.shape[1:])
        del P
        R = Q[-1]
        for j in range(q - 2, -1, -1):
            R = R @ Ap
            R += Q[j]
        for _ in range(s):
            R = R @ R
        out[lo:lo + step] = R
    return out


def _opitz_exp(chains: np.ndarray) -> np.ndarray:
    """exp(J) for the bidiagonal Opitz matrix J (the nodes on the diagonal,
    ones above it) of every row of an (n, m) node array: entry (i, j) of
    row r's exponential is the divided difference exp[x_i, ..., x_j]."""
    n, m = chains.shape
    r = np.arange(m)
    J = np.zeros((n, m, m))
    J[:, r, r] = chains
    J[:, r[:-1], r[1:]] = 1.0
    return _expm_stack(J)


def _kahan(parts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compensated sums along axis 0, term by term in order, and every
    running total: the scalar Kahan loop run on whole arrays."""
    total = np.zeros(parts.shape[1:])
    comp = np.zeros(parts.shape[1:])
    running = np.empty_like(parts)
    for k, v in enumerate(parts):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = running[k] = t
    return total, running


def _simplex_chart(simplex) -> Tuple[List[int], List[List[int]], int, int]:
    """Affine chart y = (V + M x) / d of a simplex on integers, with M's
    columns the edge vectors, and det M (exact)."""
    verts = [vec_exact(v) for v in simplex]
    dim = len(verts[0])
    if len(verts) != dim + 1:
        raise InconsistentInputs("simplex needs dim+1 vertices")
    rows, d = scaled_ints(verts)
    V = rows[0]
    M = [[rows[j + 1][i] - V[i] for j in range(dim)] for i in range(dim)]
    det = int_det(M)
    if det == 0:
        raise DegenerateSimplex("simplex has zero volume")
    return V, M, d, det


def _pullback(pi: Polynomial, V, M, d: int, radix: List[int]) -> Tuple[List[int], List[float]]:
    """pi((V + M x) / d): the monomials of x with nonzero coefficient, as
    sorted keys sum_j e_j radix_j (radix is mixed-radix in a base above
    deg pi, so key order is lexicographic exponent order), and their
    coefficients rounded to doubles.

    Horner in each old coordinate runs on Python-int polynomials. A term of
    degree k is scaled by d^(deg - k), so the result is exact over the one
    denominator e * d^deg (e clears pi's denominators)."""
    dim, deg = pi.dim, pi.degree()
    if not pi.terms:
        return [], []
    lin = [[(s, a) for s, a in zip([0] + radix, [V[i]] + M[i]) if a] for i in range(dim)]
    e = lcm(*(c.denominator for c in pi.terms.values()))

    def horner(terms, i, budget):
        if i == dim:
            return {0: terms[()] * d ** budget}
        by_power: Dict[int, dict] = {}
        for mono, c in terms.items():
            by_power.setdefault(mono[0], {})[mono[1:]] = c
        acc: Dict[int, int] = {}
        for k in range(max(by_power), -1, -1):
            if acc:
                prod: Dict[int, int] = {}
                for s, a in lin[i]:
                    for key, c in acc.items():
                        prod[key + s] = prod.get(key + s, 0) + a * c
                acc = prod
            if k in by_power:
                for key, c in horner(by_power[k], i + 1, budget - k).items():
                    acc[key] = acc.get(key, 0) + c
        return acc

    ints = {mono: c.numerator * (e // c.denominator) for mono, c in pi.terms.items()}
    q = sorted((key, c) for key, c in horner(ints, 0, deg).items() if c)
    den = e * d ** deg
    return [key for key, _ in q], [c / den for _, c in q]


# -- cached per-polytope moment machinery ------------------------------------

# NumPy flags what Python floats do silently; the array pass keeps the
# silence of the scalar arithmetic it replaces.
_QUIET = {"over": "ignore", "invalid": "ignore"}
_FACTORIALS = np.array([float(factorial(k)) for k in range(DEGREE_CAP + 3)])


@lru_cache(maxsize=None)
def _gammas(dim: int, orders: int) -> np.ndarray:
    """Exponent shifts of the moment components: 0, then e_k for order 1,
    then e_k + e_l (k <= l) for order 2."""
    eye = np.eye(dim, dtype=np.int64)
    rows = [np.zeros((1, dim), dtype=np.int64)]
    if orders >= 1:
        rows.append(eye)
    if orders >= 2:
        k, l = np.triu_indices(dim)
        rows.append(eye[k] + eye[l])
    out = np.vstack(rows)
    out.flags.writeable = False    # shared by every caller of the cache
    return out


def _distinct(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys in sorted order, as the index of each one's first
    occurrence, and the rank among them of every key."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    inv = np.empty_like(order)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


class _Plan:
    """Everything about one moment order that does not depend on lam.

    The integrals I(beta + gamma), one per block and distinct exponent, are
    numbered in block order and, within a block, in sorted exponent order.
    Each is prod idx_k! times the divided difference of exp at the nodes 0,
    c_1 (idx_1 + 1 times), ..., c_n (idx_n + 1 times), and divided
    differences do not depend on the order of their nodes. So the integrals
    of one block that share the tail (idx_3, ..., idx_n) are windows of one
    node chain

        c_1^(L+1), 0, c_3^(idx_3+1), ..., c_n^(idx_n+1), c_2^(R+1)

    (in 1-D: 0, c_1^(L+1)), L and R the largest idx_1 and idx_2 among them:
    integral idx is entry (L - idx_1, m - 1 - R + idx_2) of the exponential
    of the chain's m x m Opitz matrix (McCurdy, Ng & Parlett 1984). Each
    entry of `groups` holds the chains of one length m: their nodes gathered
    from the flattened (block, [0, c, shift]) array of a call, and for the
    integrals they serve, the integral numbers, chain rows and (i, j).
    `slot[t, b, g]` is the integral that the t-th monomial of block b needs
    for gamma_g; blocks with fewer monomials are padded at the front with
    zero terms, which leave a Kahan sum as it is.
    """

    def __init__(self, eng: "MomentEngine", orders: int):
        dim, base = eng.dim, eng.base
        shifts = _gammas(dim, orders) @ eng.radix
        key = (eng.mono_key[:, None] + shifts).ravel()
        first, inv = _distinct(key)
        block, rest = np.divmod(key[first], base ** dim)
        idx = rest[:, None] // eng.radix % base
        self.count = len(idx)
        # the chain of each integral, keyed by block and tail
        tail = base ** max(dim - 2, 0)
        head, chain = _distinct(block * tail + rest % tail)
        ends = idx[:, :2] if dim >= 2 else np.column_stack([np.zeros_like(block), idx[:, 0]])
        reach = np.zeros((len(head), 2), dtype=np.int64)
        np.maximum.at(reach, chain, ends)
        # a chain is segments of repeated nodes: seg[c, k] copies of node
        # `node[k]` of its block (0 is the node 0, j is c_j)
        if dim >= 2:
            node = np.array([1, 0, *range(3, dim + 1), 2])
            seg = np.column_stack([reach[:, 0] + 1, np.ones_like(head),
                                   idx[head, 2:] + 1, reach[:, 1] + 1])
        else:
            node = np.array([0, 1])
            seg = reach + 1
        size = seg.sum(axis=1)
        starts = np.cumsum(seg, axis=1) - seg
        segment = (np.arange(size.max(initial=0))[:, None] >= starts[:, None, :]).sum(axis=2) - 1
        nodes = block[head, None] * (dim + 2) + node[segment]
        row = reach[chain, 0] - ends[:, 0]
        col = size[chain] - 1 - reach[chain, 1] + ends[:, 1]
        self.groups = []
        for m in sorted(set(size.tolist())):
            chains = np.flatnonzero(size == m)
            sel = np.flatnonzero(size[chain] == m)
            self.groups.append((nodes[chains, :m], sel, np.searchsorted(chains, chain[sel]),
                                row[sel], col[sel]))
        self.weights = np.ones((dim, self.count + 1))
        self.weights[:, :-1] = _FACTORIALS[idx].T
        self.slot = np.full(eng.coef.shape + (len(shifts),), self.count)
        self.slot[eng.mono_pos, eng.mono_block] = inv.reshape(-1, len(shifts))


class MomentEngine:
    """Moments of pi e^{<lam, y>} over a list of simplices that tile a region.

    The build pulls pi back to every simplex chart. The first call at each
    order builds that order's plan; every call is then one pass over arrays,
    with the same sums, in the same order, as a block-by-block scalar loop.
    """

    def __init__(self, simplices: Sequence, pi: Polynomial):
        if pi.degree() > DEGREE_CAP:
            raise DegreeCapExceeded(f"degree {pi.degree()} exceeds cap {DEGREE_CAP}")
        if any(len(v) != pi.dim for s in simplices for v in s):
            raise InconsistentInputs("density dimension mismatch")
        self.dim = dim = pi.dim
        nb = len(simplices)
        # integrals are keyed by block and exponent in base deg + 3
        self.base = pi.degree() + 3
        radix = [self.base ** (dim - 1 - j) for j in range(dim)]
        self.radix = np.array(radix, dtype=np.int64)
        v0, B, absdet, keys, coef = [], [], [], [], []
        for V, M, d, det in map(_simplex_chart, simplices):
            v0.append([x / d for x in V])
            B.append([[x / d for x in row] for row in M])
            absdet.append(abs(det / d ** dim))
            k, c = _pullback(pi, V, M, d, radix)
            keys += k
            coef.append(c)
        self.v0 = np.array(v0, dtype=float).reshape(nb, dim)
        self.B = np.array(B, dtype=float).reshape(nb, dim, dim)
        self.absdet = np.array(absdet, dtype=float)
        # row i of a call's (block, [0, c, shift]) sum is lam_i * lin[i]
        self.lin = np.concatenate([np.zeros((dim, nb, 1)), self.B.transpose(1, 0, 2),
                                   self.v0.T[:, :, None]], axis=2)
        # monomials, front-padded to a common count T per block
        counts = [len(c) for c in coef]
        T = max(counts, default=0)
        self.mono_block = np.repeat(np.arange(nb), counts)
        self.mono_pos = np.concatenate([np.arange(T - n, T) for n in counts] + [[]]).astype(np.int64)
        self.coef = np.zeros((T, nb))
        self.coef[self.mono_pos, self.mono_block] = [x for c in coef for x in c]
        self.mono_key = self.mono_block * self.base ** dim + np.array(keys, dtype=np.int64)
        self._plans: Dict[int, _Plan] = {}

    def moments(self, lam: Sequence[float], orders: int = 2) -> RegionMoments:
        dim = self.dim
        if len(lam) != dim:
            raise InconsistentInputs(f"lambda has {len(lam)} coordinates, region has dimension {dim}")
        lamf = tuple(float(x) for x in lam)
        orders = 2 if orders >= 2 else 1 if orders >= 1 else 0
        plan = self._plans.get(orders)
        if plan is None:
            plan = self._plans[orders] = _Plan(self, orders)
        with np.errstate(**_QUIET):
            acc = np.zeros(self.lin.shape[1:])
            for i, x in enumerate(lamf):
                acc = acc + self.lin[i] * x
            nodes = acc.ravel()
            vals = np.zeros(plan.count + 1)
            for gather, sel, k, i, j in plan.groups:
                vals[sel] = _opitz_exp(nodes[gather])[k, i, j]
            for w in plan.weights:
                vals = vals * w
            parts = self.coef[:, :, None] * vals[plan.slot]
            sums, running = _kahan(parts)
            s0 = sums[:, 0]
            peak = np.fmax.reduce(np.abs([running[:, :, 0], parts[:, :, 0]]), axis=(0, 1),
                                  initial=0.0)
            if np.any((peak > 0) & (np.abs(s0) < _CANCEL_LIMIT * peak)):
                raise PrecisionLoss("cancellation in z-moment")
        with np.errstate(**_QUIET):
            scale = self.absdet * np.exp(acc[:, -1])
            cols = [scale * s0]
            if orders >= 1:
                # x-moments in chart coordinates, then y = v0 + B x.
                sx = sums[:, 1:1 + dim]
                m1 = np.zeros((len(scale), dim))
                for k in range(dim):
                    m1 = m1 + self.B[:, :, k] * sx[:, k, None]
                cols += list((scale[:, None] * (self.v0 * s0[:, None] + m1)).T)
            if orders >= 2:
                I, J = np.triu_indices(dim)
                sxx = np.zeros((len(scale), dim, dim))
                sxx[:, I, J] = sxx[:, J, I] = sums[:, 1 + dim:]
                vI, vJ, BI, BJ = self.v0[:, I], self.v0[:, J], self.B[:, I, :], self.B[:, J, :]
                m2 = (vI * vJ) * s0[:, None]
                for k in range(dim):
                    m2 = m2 + (vI * BJ[:, :, k]) * sx[:, k, None]
                    m2 = m2 + (vJ * BI[:, :, k]) * sx[:, k, None]
                for k in range(dim):
                    for l in range(dim):
                        m2 = m2 + (BI[:, :, k] * BJ[:, :, l]) * sxx[:, k, l, None]
                cols += list((scale[:, None] * m2).T)
            total = _kahan(np.array(cols).T)[0].tolist()
        first = tuple(total[1:1 + dim]) if orders >= 1 else (0.0,) * dim
        second = [[0.0] * dim for _ in range(dim)]
        if orders >= 2:
            for i, j, x in zip(*np.triu_indices(dim), total[1 + dim:]):
                second[i][j] = second[j][i] = x
        return RegionMoments(z=total[0], first=first, second=tuple(map(tuple, second)), lam=lamf)

    def z(self, lam: Sequence[float]) -> float:
        return self.moments(lam, orders=0).z


@lru_cache(maxsize=128)
def get_engine(region: Polytope, pi: Polynomial) -> MomentEngine:
    return MomentEngine(triangulate(region), pi)


def region_moments(region: Polytope, pi: Polynomial, lam: Sequence[float]) -> RegionMoments:
    """z, first and second unnormalized moments of pi e^{<lam,y>} over region;
    PrecisionLoss when one of them is not a finite double."""
    m = get_engine(region, pi).moments(lam, orders=2)
    if not np.all(np.isfinite([m.z, *m.first, *(x for row in m.second for x in row)])):
        raise PrecisionLoss(f"moments at lambda = {m.lam} are not finite (z = {m.z})")
    return m


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
    """Edgewise (Freudenthal) refinement into 2^dim children of equal volume,
    in any dimension; every child vertex is the midpoint of two vertices.

    Reading the vertices w_0, ..., w_d as a chain, the simplex is the image
    of 2K = {2 >= x_1 >= ... >= x_d >= 0} under x -> sum_j (x_j - x_{j+1})
    w_j / 2 (x_0 = 2, x_{d+1} = 0). The children are the Freudenthal
    simplices (a, a + e_s1, a + e_s1 + e_s2, ...), a in {0, 1}^d, that lie
    in 2K.
    """
    verts = [vec_exact(v) for v in simplex]
    d = len(verts) - 1

    def point(x):
        w = [a - b for a, b in zip((2,) + x, x + (0,))]
        return tuple(sum(wj * v[c] for wj, v in zip(w, verts)) / 2 for c in range(len(verts[0])))

    children = []
    for base in itertools.product((0, 1), repeat=d):
        for perm in itertools.permutations(range(d)):
            path = [base]
            for s in perm:
                path.append(tuple(x + (i == s) for i, x in enumerate(path[-1])))
            if all(all(a >= b for a, b in zip((2,) + x, x + (0,))) for x in path):
                children.append(tuple(point(x) for x in path))
    return children
