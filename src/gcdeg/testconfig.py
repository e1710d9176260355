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

from ._numeric import dot, is_exact_input, to_exact, vec_exact
from .errors import (ComponentOutsidePolytope, InconsistentInputs, NotDominant,
                     NotDominantPiece)
from .polytope import Polytope, lattice_points
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



def _chamber_margin(rs: RootSystem, lam) -> float:
    return min(sum(float(a) * float(x) for a, x in zip(alpha, lam))
               for alpha in rs.simple_roots)


def pl_concave(rs: RootSystem, domain: Polytope, pieces: Sequence[Tuple],
               strict: bool = True) -> PLConcave:
    """Validated constructor. Each slope must lie in the closed dominant
    chamber; with strict=False violations are flagged instead of raised."""
    norm: List[Piece] = []
    rational = True
    for c, lam in pieces:
        if not (is_exact_input(c) and all(is_exact_input(x) for x in lam)):
            rational = False
        norm.append((to_exact(c), vec_exact(lam)))
        if len(norm[-1][1]) != domain.dim:
            raise InconsistentInputs("piece slope dimension mismatch")
    if not norm:
        raise InconsistentInputs("at least one piece required")
    bad = tuple(i for i, (_, lam) in enumerate(norm)
                if _chamber_margin(rs, lam) < -1e-9)
    if bad and strict:
        raise NotDominantPiece(f"piece(s) {bad} have slopes outside the closed chamber")
    return PLConcave(rs=rs, domain=domain, pieces=tuple(norm),
                     rational=rational, nondominant_pieces=bad)


def from_vector(rs: RootSystem, p_plus: Polytope, lam: Sequence,
                c0=0) -> PLConcave:
    """The one-piece (linear) datum f(y) = c0 - <lam, y> for dominant lam."""
    lamq = vec_exact(lam)
    if _chamber_margin(rs, lamq) < -1e-9:
        raise NotDominant(f"{tuple(lam)} is outside the closed dominant chamber")
    exact = is_exact_input(c0) and all(is_exact_input(x) for x in lam)
    f = PLConcave(rs=rs, domain=p_plus, pieces=((to_exact(c0), lamq),),
                  rational=exact, nondominant_pieces=())
    return f


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


def _root_coords_exact(rs: RootSystem, points):
    """Simple-root coordinates and off-span residual vector per point, exact."""
    coords = []
    for p in points:
        c, _ = rs.root_coefficients(p)
        recon = tuple(
            sum(to_exact(c[j]) * to_exact(rs.simple_roots[j][i]) for j in range(rs.rank))
            for i in range(rs.dim))
        resid = tuple(to_exact(p[i]) - recon[i] for i in range(rs.dim))
        coords.append((tuple(to_exact(x) for x in c), resid))
    return coords


def check_table(rs: RootSystem, table: "FiltrationTable") -> Dict:
    """Dominance monotonicity and midpoint concavity diagnostics.

    Dominance: if mu - lambda is a nonnegative combination of simple roots
    then s_lambda >= s_mu. Concavity: for table points lambda, mu whose
    midpoint is a table point, 2 s_mid >= s_lambda + s_mu.
    """
    pts = table.points
    vals = table.values
    index = {p: i for i, p in enumerate(pts)}
    coords = _root_coords_exact(rs, pts)
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
                continue  # difference leaves the root span: incomparable
            d = [cj[t] - ci[t] for t in range(rs.rank)]
            if all(x >= 0 for x in d):
                # pts[j] dominates pts[i]
                if vals[i] < vals[j]:
                    dominance.append((pts[i], pts[j]))
        for j in range(i + 1, n):
            mid = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
            m = index.get(mid)
            if m is not None and 2 * vals[m] < vals[i] + vals[j]:
                concavity.append((pts[i], pts[j], mid))
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
    rational = all(is_exact_input(v) for v in values)
    vals = tuple(to_exact(v) for v in values)
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
    vals = tuple(k * f.eval(tuple(x / k for x in p)) for p in pts)
    return table_from_values(f.rs, f.domain, k, vals, points=pts)


def check_superadditive(t1: FiltrationTable, t2: FiltrationTable,
                        t12: FiltrationTable) -> Dict:
    """s^(k1+k2)_{l+m} >= s^(k1)_l + s^(k2)_m for all pairs; violations listed."""
    if t1.k + t2.k != t12.k:
        raise InconsistentInputs("table levels must satisfy k1 + k2 = k12")
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

def _upper_hull_1d(xs: List[Fraction], gs: List[Fraction]) -> List[Piece]:
    pts = sorted(zip(xs, gs))
    hull: List[Tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the chain concave: slope must not increase
            if (y2 - y1) * (p[0] - x2) <= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        # equal x: keep the higher value
        if hull and hull[-1][0] == p[0]:
            if p[1] > hull[-1][1]:
                hull[-1] = p
            continue
        hull.append(p)
    pieces = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        pieces.append((y1 - slope * x1, (-slope,)))
    if not pieces:
        pieces.append((hull[0][1], (Fraction(0),)))
    return pieces


def _upper_hull_planes(pts: List[Tuple[Fraction, ...]], gs: List[Fraction],
                       dim: int) -> List[Piece]:
    """Exact supporting planes of the upper concave envelope.

    Facet slopes come from a floating hull of the lifted points; each slope's
    offset is then snapped exactly to max(g + <slope, x>), so every returned
    plane is an exact support of the data."""
    if dim == 1:
        return _upper_hull_1d([p[0] for p in pts], gs)
    from scipy.spatial import ConvexHull, QhullError
    lifted = np.array([[float(x) for x in p] + [float(g)] for p, g in zip(pts, gs)])
    slopes = set()
    try:
        hull = ConvexHull(lifted, qhull_options="Qt")
        for simplex, eq in zip(hull.simplices, hull.equations):
            if eq[dim] <= 1e-12:      # not an upper facet
                continue
            tri = [(pts[i], gs[i]) for i in simplex]
            slope = _exact_plane_slope(tri, dim)
            if slope is not None:
                slopes.add(slope)
    except QhullError:
        pass
    if not slopes:
        # Degenerate data (affine g): one exact plane through independent points.
        slope = _affine_fit(pts, gs, dim)
        if slope is None:
            raise InconsistentInputs("could not construct the upper envelope")
        slopes.add(slope)
    pieces = []
    X = np.array([[float(x) for x in p] for p in pts])
    G = np.array([float(g) for g in gs])
    for slope in sorted(slopes):
        sl = np.array([float(s) for s in slope])
        margins = G - X @ sl
        top = float(margins.max())
        cand = [i for i in range(len(pts)) if margins[i] >= top - 1e-7]
        c_exact = max(gs[i] - dot(slope, pts[i]) for i in cand)
        pieces.append((c_exact, tuple(-s for s in slope)))
    return pieces


def _exact_plane_slope(tri, dim):
    """Slope of the plane z = c + <slope, x> through dim+1 lifted points."""
    base_x, base_g = tri[0]
    rows = [[to_exact(p[i]) - to_exact(base_x[i]) for i in range(dim)] for p, _ in tri[1:]]
    rhs = [to_exact(g) - to_exact(base_g) for _, g in tri[1:]]
    from ._numeric import solve_exact, mat_rank
    if mat_rank(rows) != dim:
        return None
    sol = solve_exact(rows, rhs)
    return tuple(sol) if sol is not None else None


def _affine_fit(pts, gs, dim):
    from ._numeric import mat_rank
    base = 0
    chosen = [base]
    for i in range(1, len(pts)):
        rows = [[pts[j][c] - pts[base][c] for c in range(dim)] for j in chosen[1:] + [i]]
        if mat_rank(rows) > len(chosen) - 1:
            chosen.append(i)
        if len(chosen) == dim + 1:
            break
    if len(chosen) < dim + 1:
        return None
    tri = [(pts[i], gs[i]) for i in chosen]
    slope = _exact_plane_slope(tri, dim)
    if slope is None:
        return None
    # must interpolate all points, otherwise the data was not affine
    for p, g in zip(pts, gs):
        if g - gs[chosen[0]] != dot(slope, tuple(p[i] - pts[chosen[0]][i] for i in range(dim))):
            return None
    return slope


def approximate_p(f: PLConcave, p: int, q: Optional[int] = None) -> PLConcave:
    """1/p-accurate rational upper approximation on the q-refined grid.

    Samples f on P+ cap (1/q)Z^dim, rounds up to the 1/p lattice, and takes
    the upper concave envelope. On the grid, 0 <= f_p - f <= 1/p. Envelope
    slopes are not forced into the chamber; out-of-chamber pieces are flagged
    on the returned object rather than raised.
    """
    if p < 1:
        raise InconsistentInputs("p must be a positive integer")
    q = 4 * p if q is None else int(q)
    if q < 1:
        raise InconsistentInputs("q must be a positive integer")
    grid = [tuple(x / q for x in pt) for pt in lattice_points(f.domain, q)]
    if not grid:
        raise InconsistentInputs("approximation grid is empty")
    gs = []
    for x in grid:
        v = f.eval(x)
        gs.append(Fraction(math.ceil(v * p), p))
    pieces = _upper_hull_planes(grid, gs, f.domain.dim)
    return pl_concave(f.rs, f.domain, pieces, strict=False)
