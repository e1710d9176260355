"""Minimization of h over the dominant cone by face enumeration.

h is smooth and strictly convex (its Hessian is a covariance of a measure
with full-dimensional support), so the constrained minimizer over the
polyhedral dominant cone is unique and lies in the relative interior of
exactly one face. The faces S (subsets of the simple-root walls) are solved
one at a time by Newton on their subspaces, smallest first and then in
lexicographic order; the search stops at the first face whose solution
converged, is feasible for the remaining walls and has nonnegative KKT
multipliers on S.

Before any face is solved, coercivity is certified: h(t d) -> +infinity along
every chamber direction d iff max_{y in P+} <d, y - 2rho> > 0 for all nonzero
chamber d. The certificate is an exact rational feasibility test; when it
fails, the infimum is only approached at infinity (DivergentMinimizer), which
happens exactly when 2rho lies on the boundary of P+ as seen from the
chamber.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._numeric import dot, nullspace, solve_exact, vec_exact
from .errors import DependentActiveRoots, DivergentMinimizer, NoFaceAccepted
from .expint import get_engine
from .polytope import Polytope, cone_generators
from .rootsys import RootSystem, dh_density

_EPS = float(np.finfo(float).eps)
# A Newton step is flat when its predicted decrease -g.step is at most this
# many ulps of h.
_FLAT_ULPS = 16


@dataclass(frozen=True)
class MinimizeOptions:
    tol_wall: float = 1e-7
    tol_kkt: float = 1e-8
    grad_tol: float = 1e-10
    max_iter: int = 100


@dataclass(frozen=True)
class CoercivityReport:
    coercive: bool
    ray_margins: Tuple[Tuple[Tuple[float, ...], float], ...]
    certificate: Optional[Tuple[float, ...]]  # escape direction when divergent


@dataclass(frozen=True)
class FaceVisit:
    face: Tuple[int, ...]
    converged: bool
    feasible: bool
    kkt_ok: bool
    lambda_face: Tuple[float, ...]
    h_value: float
    iterations: int


@dataclass(frozen=True)
class MinimizerReport:
    lambda0: Tuple[float, ...]
    h_min: float
    active_set: Tuple[int, ...]            # geometric: walls containing lambda0
    active_roots: Tuple[Tuple[float, ...], ...]
    multipliers: Tuple[float, ...]         # aligned with active_set
    b_lambda0: Tuple[float, ...]
    grad_norm: float                       # projected gradient on accepted face
    kkt_residual: float
    iterations: int
    face_visits: Tuple[FaceVisit, ...]
    accepted_face: Tuple[int, ...]
    coercivity: CoercivityReport
    converged: bool
    options: MinimizeOptions


def chamber_rays(rs: RootSystem):
    """Generators of the dominant cone: the rays w_j = sum_k x_k Q alpha_k
    with <alpha_i, w_j> = delta_ij (t >= 0), and a basis of the central
    lineality space {<alpha_i, .> = 0} (both signs allowed)."""
    simple = rs.simple_roots
    funcs = [rs.functional(a) for a in simple]
    r = rs.rank
    gram = [[dot(simple[i], funcs[j]) for j in range(r)] for i in range(r)]
    rays = []
    for i in range(r):
        e = [Fraction(int(j == i)) for j in range(r)]
        x = solve_exact(gram, e)
        w = tuple(sum(x[k] * funcs[k][c] for k in range(r)) for c in range(rs.dim))
        rays.append(w)
    central = nullspace(simple, rs.dim)
    return rays, central


def coercivity_check(rs: RootSystem, p_plus: Polytope) -> CoercivityReport:
    """Certify max_{y in P+} <d, y - 2rho> > 0 for every chamber d != 0.

    Exact: the failure set {d : <alpha_i, d> >= 0, <d, v - 2rho> <= 0 for
    all vertices v} is a polyhedral cone, generated in one double-description
    pass; h is coercive iff the cone is {0}. The certificate is the generator
    whose root coordinates q = (<alpha_i, d>)_i, scaled to sum 1, are
    lexicographically smallest.
    """
    rays, central = chamber_rays(rs)
    two_rho = vec_exact(rs.two_rho)
    diffs = [tuple(v[i] - two_rho[i] for i in range(rs.dim)) for v in p_plus.vertices]

    margins = []
    for d in rays + [s for u in central for s in (u, tuple(-x for x in u))]:
        sup = max(float(dot(d, diff)) for diff in diffs)
        margins.append((tuple(float(x) for x in d), sup))

    simple = [vec_exact(a) for a in rs.simple_roots]
    gens, lin = cone_generators(simple + [tuple(-x for x in diff) for diff in diffs])
    gens += lin + [tuple(-x for x in u) for u in lin]

    def scaled(d):
        # central directions (q = 0) sort after every other generator
        s = sum(dot(a, d) for a in simple)
        d = tuple(Fraction(x, s or 1) for x in d)
        return s == 0, tuple(dot(a, d) for a in simple), d

    certificate = None
    if gens:
        certificate = tuple(float(x) for x in min(map(scaled, gens))[2])
    return CoercivityReport(coercive=certificate is None,
                            ray_margins=tuple(margins), certificate=certificate)


def kkt_multipliers(rs: RootSystem, b: Sequence[float], active: Sequence[int]):
    """Least-squares multipliers in b - 2rho = sum_{i in active} m_i alpha_i.

    Returns (multipliers, residual_norm). Raises DependentActiveRoots when the
    active simple roots are linearly dependent.
    """
    active = list(active)
    g = np.asarray([float(x) for x in b]) - np.asarray([float(t) for t in rs.two_rho])
    if not active:
        return (), float(np.linalg.norm(g))
    A = np.asarray([[float(x) for x in rs.simple_roots[i]] for i in active]).T
    if np.linalg.matrix_rank(A, tol=1e-10) < len(active):
        raise DependentActiveRoots(f"active roots {active} are linearly dependent")
    sol, *_ = np.linalg.lstsq(A, g, rcond=None)
    res = float(np.linalg.norm(A @ sol - g))
    return tuple(float(m) for m in sol), res


def _face_newton(engine, two_rho: np.ndarray, N: np.ndarray, opts: MinimizeOptions):
    """Newton with Armijo backtracking for phi(xi) = h(N xi) on one face."""
    dim = two_rho.shape[0]
    m = N.shape[1]
    xi = np.zeros(m)

    def phi_grad_hess(x, need_hess=True):
        lam = N @ x
        mom = engine.moments(tuple(lam), orders=2 if need_hess else 1)
        if not (mom.z > 0 and np.isfinite(mom.z)):
            return None
        val = math.log(mom.z) - float(lam @ two_rho)
        b = np.asarray(mom.first) / mom.z
        g = N.T @ (b - two_rho)
        H = N.T @ mom.covariance() @ N if need_hess else None
        return val, g, H, b

    state = phi_grad_hess(xi)
    if state is None:
        return xi, math.inf, np.zeros(dim), math.inf, 0, False
    val, g, H, b = state
    iters = 0
    converged = float(np.linalg.norm(g)) <= opts.grad_tol
    while not converged and iters < opts.max_iter:
        iters += 1
        try:
            step = -np.linalg.solve(H + 1e-14 * np.eye(m), g)
        except np.linalg.LinAlgError:
            step = -g
        slope = float(g @ step)
        if slope > 0:
            step = -g
            slope = float(g @ step)
        # A flat step's predicted decrease is below the rounding level of
        # val, so Armijo would compare noise and halve the step to a no-op:
        # try the full step once and keep it if it reduces the gradient.
        flat = -slope <= _FLAT_ULPS * _EPS * max(1.0, abs(val))
        t = 1.0
        accepted = False
        for _ in range(1 if flat else 50):
            cand = xi + t * step
            if np.array_equal(cand, xi):
                # No shorter step can move xi, and accepting the no-op would
                # repeat this iteration unchanged until max_iter.
                break
            st = phi_grad_hess(cand)
            if st is not None and (np.linalg.norm(st[1]) < np.linalg.norm(g) if flat
                                   else st[0] <= val + 1e-4 * t * slope):
                xi, val, g, H, b = cand, st[0], st[1], st[2], st[3]
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        converged = float(np.linalg.norm(g)) <= opts.grad_tol
    return xi, val, b, float(np.linalg.norm(g)), iters, converged


def minimize_h(rs: RootSystem, p_plus: Polytope,
               opts: Optional[MinimizeOptions] = None) -> MinimizerReport:
    """Unique minimizer of h over the dominant cone, with KKT certificate."""
    opts = opts or MinimizeOptions()
    co = coercivity_check(rs, p_plus)
    if not co.coercive:
        err = DivergentMinimizer(
            "h is not coercive on the dominant cone; escape direction "
            f"{co.certificate}")
        err.details = {
            "certificate_direction": tuple(float(x) for x in co.certificate),
            "ray_margins": tuple((d, m) for d, m in co.ray_margins),
        }
        raise err

    engine = get_engine(p_plus, dh_density(rs))
    two_rho = np.asarray([float(t) for t in rs.two_rho])
    dim = rs.dim
    simple = [np.asarray([float(x) for x in a]) for a in rs.simple_roots]
    simple_exact = [vec_exact(a) for a in rs.simple_roots]

    faces = sorted(
        (tuple(s) for k in range(rs.rank + 1) for s in itertools.combinations(range(rs.rank), k)),
        key=lambda s: (len(s), s))

    visits: List[FaceVisit] = []
    for S in faces:
        rows = [simple_exact[i] for i in S]
        basis = nullspace(rows, dim) if rows else \
            [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
        if basis:
            N = np.asarray([[float(x) for x in col] for col in basis]).T
            xi, val, b, gnorm, iters, conv = _face_newton(engine, two_rho, N, opts)
            lam = N @ xi
        else:
            lam = np.zeros(dim)
            mom = engine.moments(tuple(lam), orders=1)
            val = math.log(mom.z)
            b = np.asarray(mom.first) / mom.z
            gnorm, iters, conv = 0.0, 0, True
        feasible = all(
            float(a @ lam) >= -opts.tol_wall for j, a in enumerate(simple) if j not in S)
        kkt_ok = False
        if conv and feasible:
            try:
                mults, res = kkt_multipliers(rs, b, S)
            except DependentActiveRoots:
                mults, res = (), math.inf
            scale = 1.0 + float(np.linalg.norm(b - two_rho))
            kkt_ok = res <= opts.tol_kkt * scale and all(m >= -opts.tol_kkt for m in mults)
        visits.append(FaceVisit(face=S, converged=conv, feasible=feasible,
                                kkt_ok=kkt_ok, lambda_face=tuple(float(x) for x in lam),
                                h_value=val, iterations=iters))
        if kkt_ok:
            break
    else:
        raise NoFaceAccepted("no face produced a feasible KKT point")

    # Geometric active set: walls containing lambda0 within tol_wall.
    scale = 1.0 + float(np.linalg.norm(lam))
    active = tuple(i for i, a in enumerate(simple)
                   if abs(float(a @ lam)) <= opts.tol_wall * scale)
    mults, kkt_res = kkt_multipliers(rs, b, active)

    V = engine.z((0.0,) * dim)
    h_min = val - math.log(V)
    total_iters = sum(v.iterations for v in visits)

    return MinimizerReport(
        lambda0=tuple(float(x) for x in lam),
        h_min=h_min,
        active_set=active,
        active_roots=tuple(tuple(float(x) for x in rs.simple_roots[i]) for i in active),
        multipliers=mults,
        b_lambda0=tuple(float(x) for x in b),
        grad_norm=gnorm,
        kkt_residual=kkt_res,
        iterations=total_iters,
        face_visits=tuple(visits),
        accepted_face=S,
        coercivity=co,
        converged=True,
        options=opts,
    )


@dataclass(frozen=True)
class KeReport:
    verdict: str                     # Stable | SemistableBoundary | Unstable
    b0: Tuple[float, ...]
    coefficients: Tuple[float, ...]  # simple-root coordinates of b0 - 2rho
    off_span_residual: float
    tol: float


def ke_test(rs: RootSystem, p_plus: Polytope, tol: float = 1e-8) -> KeReport:
    """Position of b(0) - 2rho relative to the cone spanned by simple roots.

    Inside the open cone: Stable (the barycentric criterion holds strictly).
    On the boundary (a vanishing coefficient): SemistableBoundary. A negative
    coefficient or a component outside the root span: Unstable.
    """
    engine = get_engine(p_plus, dh_density(rs))
    mom = engine.moments((0.0,) * rs.dim, orders=1)
    b0 = tuple(m / mom.z for m in mom.first)
    diff = tuple(x - float(t) for x, t in zip(b0, rs.two_rho))
    coeffs, res = rs.root_coefficients(diff)
    cf = tuple(float(c) for c in coeffs)
    if res > tol:
        verdict = "Unstable"
    elif any(c < -tol for c in cf):
        verdict = "Unstable"
    elif any(abs(c) <= tol for c in cf):
        verdict = "SemistableBoundary"
    else:
        verdict = "Stable"
    return KeReport(verdict=verdict, b0=b0, coefficients=cf,
                    off_span_residual=res, tol=tol)
