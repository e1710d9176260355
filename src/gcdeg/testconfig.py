"""Concave PL test data on the dominant polytope: filtrations,
semivaluations, and rational approximation.

A concave PL function f = min_a (C_a - <Lambda_a, y>) with dominant slopes
encodes an equivariant degeneration datum. Its k-th filtration table assigns
s_lambda = k f(lambda/k) to each lattice point of k P+; the tables are
superadditive across levels and monotone along the dominance order. A
weighted element evaluates by the minimum of k f(mu/k) over its components.
approximate_p produces the standard 1/p-accurate rational upper envelope.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._numeric import (INT64_SAFE, dot, int_array, int_matmul, int_points,
                       is_exact_input, max_abs, scaled_ints, to_exact, vec_exact,
                       vec_str, widen)
from .errors import (ComponentOutsidePolytope, InconsistentInputs, NotDominant,
                     NotDominantPiece)
from .polytope import Polytope, cone_generators, lattice_points
from .rootsys import RootSystem

Piece = Tuple[Fraction, Tuple[Fraction, ...]]


@dataclass(frozen=True)
class PLConcave:
    """f(y) = min over pieces (C_a - <Lambda_a, y>) on the domain polytope."""
    rs: RootSystem
    domain: Polytope
    pieces: Tuple[Piece, ...]
    rational: bool
    nondominant_pieces: Tuple[int, ...] = ()

    def eval(self, y: Sequence) -> Fraction:
        yq = vec_exact(y)
        return min(c - dot(lam, yq) for c, lam in self.pieces)


def pl_concave(rs: RootSystem, domain: Polytope, pieces: Sequence[Tuple],
               strict: bool = True) -> PLConcave:
    """Validated constructor. Each slope must lie in the closed dominant
    chamber (RootSystem.in_chamber, read on the slope as given); with
    strict=False violations are flagged instead of raised."""
    norm: List[Piece] = []
    bad = []
    rational = True
    for i, (c, lam) in enumerate(pieces):
        if not (is_exact_input(c) and all(is_exact_input(x) for x in lam)):
            rational = False
        norm.append((to_exact(c), vec_exact(lam)))
        if len(norm[-1][1]) != domain.dim:
            raise InconsistentInputs("piece slope dimension mismatch")
        if not rs.in_chamber(lam):
            bad.append(i)
    if not norm:
        raise InconsistentInputs("at least one piece required")
    if bad and strict:
        raise NotDominantPiece(f"piece(s) {tuple(bad)} have slopes outside the closed chamber")
    return PLConcave(rs=rs, domain=domain, pieces=tuple(norm),
                     rational=rational, nondominant_pieces=tuple(bad))


def from_vector(rs: RootSystem, p_plus: Polytope, lam: Sequence,
                c0=0) -> PLConcave:
    """The one-piece (linear) datum f(y) = c0 - <lam, y> for dominant lam."""
    if not rs.in_chamber(lam):
        raise NotDominant(f"{vec_str(lam)} is outside the closed dominant chamber")
    exact = is_exact_input(c0) and all(is_exact_input(x) for x in lam)
    return PLConcave(rs=rs, domain=p_plus, pieces=((to_exact(c0), vec_exact(lam)),),
                     rational=exact, nondominant_pieces=())


def piece_minima(pieces: Sequence[Piece], P: np.ndarray, den: int) -> Tuple[np.ndarray, int]:
    """Integer numerators N and one scale S with
    min_a (C_a - <Lambda_a, P_i/den>) == N[i] / S for integer points P.

    Denominators are cleared once: with the pieces scaled by ps,
    N = C*ps*den - P @ L.T and S = ps*den, then the row minimum. Each term
    is int64 while a bound on it stays below 2**62, else Python ints (float
    slopes read as their exact binary values have large denominators), so
    the difference cannot wrap."""
    rows, ps = scaled_ints([(c,) + lam for c, lam in pieces])
    c = [[r[0] * den for r in rows]]
    n = int_array(c, len(rows), max_abs(c)) - int_matmul(P, [r[1:] for r in rows])
    return n.min(axis=1), ps * den


# -- filtration tables -------------------------------------------------------

@dataclass(frozen=True)
class FiltrationTable:
    k: int
    points: Tuple[Tuple[Fraction, ...], ...]
    values: Tuple[Fraction, ...]
    rational: bool
    gamma_unshifted: Tuple[Fraction, ...]
    gamma_shifted: Tuple[Fraction, ...]       # shifted so the maximum is 0
    gamma_rank: int
    gamma_rank_mode: str                      # "exact" | "numeric"
    violations: Dict

    def as_dict(self) -> Dict[Tuple[Fraction, ...], Fraction]:
        return dict(zip(self.points, self.values))


def _gamma_rank(values: Sequence[Fraction], rational: bool) -> Tuple[int, str]:
    distinct = sorted(set(values))
    if len(distinct) <= 1:
        return 0, "exact" if rational else "numeric"
    if rational:
        # Finitely many rationals generate a cyclic group.
        return 1, "exact"
    diffs = [float(v - distinct[0]) for v in distinct[1:]]
    base = max(diffs, key=abs)
    for d in diffs:
        r = d / base
        if abs(r - float(Fraction(r).limit_denominator(64))) > 1e-9:
            return 2, "numeric"
    return 1, "numeric"


def _root_coords(rs: RootSystem, P: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Simple-root coordinates of the points P (integer rows, one positive
    scale) and a class label per point: equal labels mean equal off-span
    residuals. The coordinates are c = Omega p with Omega the rows of
    rs.coweights, a left inverse of the roots; the residual is
    (I - A^T Omega) p, with A the simple roots as rows. Points p, q are
    comparable when p - q lies in the root span, i.e. their residuals are
    equal, and that and the coordinates are all the dominance test reads."""
    roots, m = rs.simple_roots, rs.coweights
    r = [[int(i == t) - sum(a[i] * mj[t] for a, mj in zip(roots, m)) for t in range(rs.dim)]
         for i in range(rs.dim)]
    coords = int_matmul(P, scaled_ints(m)[0])
    resid = int_matmul(P, scaled_ints(r)[0]).tolist()
    labels: Dict[Tuple, int] = {}
    return coords, [labels.setdefault(tuple(x), len(labels)) for x in resid]


def _radix(lo: np.ndarray, hi: np.ndarray):
    """Injective integer key of the integer rows between lo and hi
    (columnwise), as a mixed-radix number."""
    span = [h - l + 1 for l, h in zip(lo.tolist(), hi.tolist())]
    stride = [math.prod(span[:i]) for i in range(len(span))]
    dtype = np.int64 if math.prod(span) < INT64_SAFE and lo.dtype != object else object
    lo, stride = lo.astype(dtype), np.array(stride, dtype=dtype)
    return lambda x: (x - lo) @ stride


def _lookup(keys: np.ndarray):
    """Index lookup of keys among the given keys; the last of equal keys
    wins, as in a dict built in order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]

    def find(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(ordered, q, side="right") - 1
        hit = pos >= 0
        hit[hit] = ordered[pos[hit]] == q[hit]
        return hit, order[pos[hit]]
    return find


def check_table(rs: RootSystem, table: "FiltrationTable") -> Dict:
    """Dominance monotonicity and midpoint concavity diagnostics.

    Dominance: if mu - lambda is a nonnegative combination of simple roots
    then s_lambda >= s_mu. Concavity: for table points lambda, mu whose
    midpoint is a table point, 2 s_mid >= s_lambda + s_mu.

    Runs on integers: points, values and simple-root coordinates are each
    scaled by one common denominator, in int64 while a bound on every
    intermediate stays below 2**62 and on Python ints past it. Dominance is
    one vectorized row test per point (coordinates >=, same off-span
    residual, larger value); concavity looks up the sums P[i] + P[j] among
    mixed-radix keys of 2P. Memory is O(n) per row; violations are listed
    in (i, j) ascending order.
    """
    pts = table.points
    dominance = []
    concavity = []
    if pts:
        P = widen(int_points(pts, len(pts[0]))[0], 2)
        V = widen(int_points([(v,) for v in table.values], 1)[0][:, 0], 2)
        coords, labels = _root_coords(rs, P)
        labels = np.array(labels)
        key = _radix(2 * P.min(axis=0), 2 * P.max(axis=0))
        find = _lookup(key(2 * P))
        for i in range(len(pts)):
            dom = (V > V[i]) & (labels == labels[i]) & np.all(coords >= coords[i], axis=1)
            dominance.extend((pts[i], pts[j]) for j in np.flatnonzero(dom).tolist())
            hit, m = find(key(P[i] + P[i + 1:]))
            j = np.flatnonzero(hit) + i + 1
            bad = 2 * V[m] < V[i] + V[j]
            concavity.extend((pts[i], pts[a], pts[b])
                             for a, b in zip(j[bad].tolist(), m[bad].tolist()))
    return {"dominance": dominance, "concavity": concavity,
            "ok": not dominance and not concavity}


def table_from_values(rs: RootSystem, p_plus: Polytope, k: int,
                      values: Sequence, points: Optional[Sequence] = None) -> FiltrationTable:
    """Build a table from raw values (ordered like lattice_points(p_plus, k)).

    Used to diagnose data that does not come from a concave function."""
    pts = tuple(vec_exact(p) for p in points) if points is not None \
        else tuple(lattice_points(p_plus, k))
    if len(values) != len(pts):
        raise InconsistentInputs(
            f"expected {len(pts)} values for k={k}, got {len(values)}")
    return _table(rs, k, pts, tuple(to_exact(v) for v in values),
                  all(is_exact_input(v) for v in values))


def _table(rs: RootSystem, k: int, pts: Tuple, vals: Tuple[Fraction, ...],
           rational: bool) -> FiltrationTable:
    """Table of exact values whose source data is rational or not."""
    gamma_u = tuple(sorted(set(vals)))
    top = max(gamma_u) if gamma_u else Fraction(0)
    gamma_s = tuple(v - top for v in gamma_u)
    rank, mode = _gamma_rank(vals, rational)
    table = FiltrationTable(k=int(k), points=pts, values=vals, rational=rational,
                            gamma_unshifted=gamma_u, gamma_shifted=gamma_s,
                            gamma_rank=rank, gamma_rank_mode=mode, violations={})
    diag = check_table(rs, table)
    return FiltrationTable(k=table.k, points=table.points, values=table.values,
                           rational=table.rational, gamma_unshifted=gamma_u,
                           gamma_shifted=gamma_s, gamma_rank=rank,
                           gamma_rank_mode=mode, violations=diag)


def filtration_table(f: PLConcave, k: int,
                     lattice: Optional[Sequence[Sequence]] = None) -> FiltrationTable:
    """Level-k table s_lambda = k f(lambda/k) over the lattice points of k P+."""
    if k < 1:
        raise InconsistentInputs("k must be a positive integer")
    pts = tuple(lattice_points(f.domain, k, lattice))
    P, dp = int_points(pts, f.domain.dim)
    n, scale = piece_minima(f.pieces, P, dp * k)
    vals = tuple(Fraction(k * v, scale) for v in n.tolist())
    return _table(f.rs, k, pts, vals, f.rational)


def check_superadditive(t1: FiltrationTable, t2: FiltrationTable,
                        t12: FiltrationTable) -> Dict:
    """s^(k1+k2)_{l+m} >= s^(k1)_l + s^(k2)_m for all pairs; violations listed."""
    if t1.k + t2.k != t12.k:
        raise InconsistentInputs("table levels must satisfy k1 + k2 = k12")
    violations = []
    missing = []
    pts = t1.points + t2.points + t12.points
    if t1.points and t2.points:
        n1, n2 = len(t1.points), len(t1.points) + len(t2.points)
        P = widen(int_points(pts, len(pts[0]))[0], 2)
        V = widen(int_points([(v,) for v in t1.values + t2.values + t12.values], 1)[0][:, 0], 2)
        P1, P2, P12 = P[:n1], P[n1:n2], P[n2:]
        V1, V2, V12 = V[:n1], V[n1:n2], V[n2:]
        lo, hi = P1.min(axis=0) + P2.min(axis=0), P1.max(axis=0) + P2.max(axis=0)
        if len(P12):
            lo, hi = np.minimum(lo, P12.min(axis=0)), np.maximum(hi, P12.max(axis=0))
        key = _radix(lo, hi)
        find = _lookup(key(P12))
        for i, p1 in enumerate(t1.points):
            hit, m = find(key(P1[i] + P2))
            missing.extend(tuple(a + b for a, b in zip(p1, t2.points[j]))
                           for j in np.flatnonzero(~hit).tolist())
            j = np.flatnonzero(hit)
            bad = V12[m] < V1[i] + V2[j]
            violations.extend((p1, t2.points[a], t12.points[b])
                              for a, b in zip(j[bad].tolist(), m[bad].tolist()))
    return {"violations": violations, "missing": missing,
            "ok": not violations and not missing}


# -- semivaluations ----------------------------------------------------------

@dataclass(frozen=True)
class WeightedElement:
    """Formal element with components (mu, k): a point of k P+ at level k."""
    components: Tuple[Tuple[Tuple[Fraction, ...], int], ...]

    @staticmethod
    def of(components: Sequence[Tuple[Sequence, int]]) -> "WeightedElement":
        out = []
        for mu, k in components:
            k = int(k)
            if k < 1:
                raise InconsistentInputs("component level must be >= 1")
            out.append((vec_exact(mu), k))
        if not out:
            raise InconsistentInputs("at least one component required")
        return WeightedElement(components=tuple(out))


def semivaluation_eval(f: PLConcave, sigma: WeightedElement) -> Fraction:
    """v_f(sigma) = min over components of k f(mu/k).

    Each mu/k must lie in the domain polytope (exact containment)."""
    best = None
    for mu, k in sigma.components:
        x = tuple(m / k for m in mu)
        if not f.domain.contains(x):
            raise ComponentOutsidePolytope(
                f"component {tuple(mu)} at level {k} scales outside the domain")
        v = k * f.eval(x)
        best = v if best is None or v < best else best
    return best


# -- rational approximation --------------------------------------------------

def _upper_hull_planes(P: np.ndarray, G: np.ndarray, q: int, p: int) -> List[Piece]:
    """Exact supporting planes of the upper concave envelope of the lifted
    grid points (P_i/q, G_i/p), with P and G integer, sorted by slope s.

    The planes g = c + <s, x> are the vertices of the polyhedron
    {(c, s) : c + <s, P_i/q> >= G_i/p for all i}. With u = pqc and w = ps
    they are the rays with t > 0 of the cone
    {(u, w, t) : u + <w, P_i> - q G_i t >= 0, t >= 0}, and the piece is
    (c, -s). The cone comes from cone_generators, fed by cutting planes:
    each round evaluates the rows left against the generators (rays and
    both signs of the lineality) in one integer product, drops every row
    that no generator violates, since it holds on the current cone and so
    on every smaller one, and adds the most-violated row of each violated
    generator. A vertex is tight on some grid point and valid on all, so
    its offset c is the exact maximum of g - <s, x>. Lineality left at the
    end means the grid does not affinely span.
    """
    n, dim = P.shape
    A = np.column_stack([np.ones(n, dtype=np.int64), P, -widen(G, q) * q])
    rows = [(0,) * (dim + 1) + (1,)]                  # t >= 0
    rays, lin = cone_generators(rows)
    while len(A):
        V = int_matmul(A, rays + lin + [tuple(-x for x in v) for v in lin])
        bad = V < 0
        add = np.unique(V.argmin(axis=0)[bad.any(axis=0)])
        keep = bad.any(axis=1)
        keep[add] = False
        if len(add):
            rows += [tuple(r) for r in A[add].tolist()]
            rays, lin = cone_generators(rows)
        A = A[keep]
    if lin:
        raise InconsistentInputs("could not construct the upper envelope")
    planes = sorted((tuple(Fraction(x, p * r[-1]) for x in r[1:-1]), Fraction(r[0], p * q * r[-1]))
                    for r in rays if r[-1] > 0)
    return [(c, tuple(-x for x in s)) for s, c in planes]


def approximate_p(f: PLConcave, p: int, q: Optional[int] = None) -> PLConcave:
    """1/p-accurate rational upper approximation on the q-refined grid.

    Samples f on P+ cap (1/q)Z^dim, rounds up to the 1/p lattice, and takes
    the upper concave envelope. On the grid, 0 <= f_p - f <= 1/p. Envelope
    slopes are not forced into the chamber; out-of-chamber pieces are flagged
    on the returned object rather than raised.

    All of it is integer work: piece_minima gives f = N/S on the whole grid
    at once, the rounded values are ceil(N p / S) by floor division, and
    the envelope's pieces are the vertices of its cone of supporting planes
    (_upper_hull_planes), found by the polytope layer's double description
    with the grid points added as cutting planes. Pieces are sorted by
    -Lambda ascending in every dimension. A grid that does not affinely
    span the domain (a collinear 2-D grid, a single 1-D point) raises
    InconsistentInputs. Arrays are int64 while a bound on every
    intermediate stays below 2**62 and Python ints (dtype=object) past it,
    so no step rounds.
    """
    if p < 1:
        raise InconsistentInputs("p must be a positive integer")
    q = 4 * p if q is None else int(q)
    if q < 1:
        raise InconsistentInputs("q must be a positive integer")
    grid = lattice_points(f.domain, q)
    if not grid:
        raise InconsistentInputs("approximation grid is empty")
    P, dp = int_points(grid, f.domain.dim)
    n, scale = piece_minima(f.pieces, P, dp * q)
    g = -((-widen(n, p) * p) // scale)       # ceil(f * p) at each grid point
    pieces = _upper_hull_planes(P, g, dp * q, p)
    return pl_concave(f.rs, f.domain, pieces, strict=False)
