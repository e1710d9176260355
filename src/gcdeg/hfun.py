"""The reduced H functional on the dominant cone, vector and PL versions.

For a dominant Lambda, with pi the Duistermaat-Heckman density and P+ the
dominant part of the moment polytope,

    h(Lambda) = ln int_{P+} e^{<Lambda, y - 2rho>} pi(y) dy  -  ln V,

V = int_{P+} pi. The subtraction normalizes h(0) = 0; reports state this
convention. The same quantity decomposes as h = l_na - s_na with
l_na(f) = f(2rho) and s_na(f) = -ln((1/V) int e^{-f} pi) for the concave PL
function f(y) = -<Lambda, y>; h_plfunction evaluates the decomposition for a
general concave PL f by splitting P+ into the linearity cells of f.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._numeric import to_exact, vec_exact
from .errors import NotDominant, NotDominantPiece, PrecisionLoss, TwoRhoOutsideDomain
from .expint import get_engine
from .polytope import Polytope, try_build
from .rootsys import RootSystem, dh_density


@dataclass(frozen=True)
class HBreakdown:
    h: float
    l_na: float
    s_na: float
    normalization: float           # V = int_{P+} pi
    lam: Optional[Tuple[float, ...]] = None
    pl_pieces: Optional[int] = None
    inactive_pieces: Tuple[int, ...] = ()


def _check_dominant(rs: RootSystem, lam: Sequence[float], what: str = "lambda"):
    lamf = [float(x) for x in lam]
    scale = max(1.0, max(abs(x) for x in lamf) if lamf else 1.0)
    for a in rs.simple_roots:
        if sum(float(ai) * xi for ai, xi in zip(a, lamf)) < -1e-9 * scale:
            if what == "lambda":
                raise NotDominant(f"{lam} is outside the closed dominant chamber")
            raise NotDominantPiece(f"piece slope {lam} is outside the closed dominant chamber")


def normalization_volume(rs: RootSystem, p_plus: Polytope) -> float:
    """V = int_{P+} pi dy."""
    return get_engine(p_plus, dh_density(rs)).z([0.0] * p_plus.dim)


def _tilted_volume(eng, lam: Tuple[float, ...]) -> float:
    """z(lam) = int e^{<lam, y>} pi dy; PrecisionLoss when it is not a finite
    positive double (it overflows at large slopes)."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = eng.z(lam)
    if not (np.isfinite(z) and z > 0):
        raise PrecisionLoss(f"z = {z} at lambda = {lam} is not a finite positive number")
    return z


def h_vector(rs: RootSystem, p_plus: Polytope, lam: Sequence[float]) -> HBreakdown:
    """h at the linear test configuration with dominant slope lam."""
    _check_dominant(rs, lam)
    pi = dh_density(rs)
    eng = get_engine(p_plus, pi)
    lamf = tuple(float(x) for x in lam)
    z = _tilted_volume(eng, lamf)
    V = eng.z((0.0,) * p_plus.dim)
    l_na = -sum(float(t) * x for t, x in zip(rs.two_rho, lamf))
    s_na = math.log(V) - math.log(z)
    return HBreakdown(h=l_na - s_na, l_na=l_na, s_na=s_na,
                      normalization=V, lam=lamf)


def barycenter_grad_hess(rs: RootSystem, p_plus: Polytope, lam: Sequence[float]):
    """(barycenter b(lam), gradient b - 2rho, Hessian = covariance) of h.

    The Hessian of h at lam is the covariance of y under the tilted measure
    e^{<lam,y>} pi dy restricted to P+, hence positive definite.
    """
    m = get_engine(p_plus, dh_density(rs)).moments([float(x) for x in lam], orders=2)
    b = np.asarray(m.barycenter())
    grad = b - np.asarray([float(t) for t in rs.two_rho])
    hess = m.covariance()
    return b, grad, hess


def h_plfunction(rs: RootSystem, p_plus: Polytope, f) -> HBreakdown:
    """h for a concave PL function f = min_a (C_a - <Lambda_a, y>) on P+.

    Splits P+ into the cells where each piece attains the minimum and
    integrates e^{-f} pi cell by cell. Pieces whose cell has empty interior
    contribute nothing and are reported as inactive.
    """
    pieces = f.pieces
    if not pieces:
        raise NotDominantPiece("PL function needs at least one piece")
    for _, lam_a in pieces:
        _check_dominant(rs, lam_a, what="piece")
    two_rho = vec_exact(rs.two_rho)
    if not p_plus.contains(two_rho):
        raise TwoRhoOutsideDomain(f"2rho = {tuple(rs.two_rho)} lies outside the domain")

    pi = dh_density(rs)
    V = normalization_volume(rs, p_plus)
    l_na = float(f.eval(two_rho))

    c_min = min(float(to_exact(c)) for c, _ in pieces)
    total = 0.0
    inactive = []
    seen = set()
    for a, (c_a, lam_a) in enumerate(pieces):
        key = (to_exact(c_a), vec_exact(lam_a))
        if key in seen:
            # Exact duplicate piece: its cell would double-count.
            inactive.append(a)
            continue
        seen.add(key)
        cuts = list(p_plus.halfspaces)
        for b_idx, (c_b, lam_b) in enumerate(pieces):
            if b_idx == a:
                continue
            n = tuple(to_exact(lb) - to_exact(la) for lb, la in zip(lam_b, lam_a))
            cuts.append((n, to_exact(c_b) - to_exact(c_a)))
        status, cell = try_build(cuts)
        if status != "ok":
            inactive.append(a)
            continue
        z_cell = _tilted_volume(get_engine(cell, pi), tuple(float(x) for x in lam_a))
        total += math.exp(-(float(to_exact(c_a)) - c_min)) * z_cell
    s_na = math.log(V) - (math.log(total) - c_min)
    return HBreakdown(h=l_na - s_na, l_na=l_na, s_na=s_na, normalization=V,
                      pl_pieces=len(pieces), inactive_pieces=tuple(inactive))
