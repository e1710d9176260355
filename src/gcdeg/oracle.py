"""Independent cross-checks: Monte Carlo integration and dense grid search.

These routines deliberately avoid the divided-difference engine and the
face Newton solver so they can act as external validators. The Monte Carlo
integrator rejection-samples from an axis box with counter-based streams,
one per chunk, so results are reproducible and independent of scheduling.
The grid search scans the dominant cone in ray coordinates with fixed
Gauss-Legendre quadrature on a triangulation of the polytope.
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._poly import Polynomial
from .errors import BoxTooTight, InconsistentInputs
from .hfun import h_vector
from .polytope import Polytope, triangulate
from .rootsys import RootSystem, dh_density

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class McConfig:
    samples: int = 10_000_000
    seed: int = 20240817
    chunk: int = 1_000_000
    box: Optional[Tuple[Tuple[float, float], ...]] = None


def _stream(seed: int, chunk_index: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | (chunk_index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def mc_integrate(region: Polytope, p: Polynomial,
                 lam: Optional[Sequence[float]] = None,
                 config: McConfig = McConfig()) -> Tuple[float, float]:
    """Estimate int_region p(y) e^<lam,y> dy; returns (estimate, std_error).

    Rejection sampling from the bounding box (or config.box, which must
    contain it). Chunks are reduced in index order, so the result does not
    depend on how the work is scheduled.
    """
    if config.samples < 1 or config.chunk < 1:
        raise InconsistentInputs("samples and chunk must be positive")
    lo, hi = region.bbox()
    lof = [float(x) for x in lo]
    hif = [float(x) for x in hi]
    if config.box is not None:
        if len(config.box) != region.dim:
            raise InconsistentInputs("box dimension mismatch")
        for (bl, bh), rl, rh in zip(config.box, lof, hif):
            if bl > rl + 1e-12 or bh < rh - 1e-12:
                raise BoxTooTight(
                    f"sampling box [{bl}, {bh}] does not cover region extent "
                    f"[{rl}, {rh}]")
        lof = [float(b[0]) for b in config.box]
        hif = [float(b[1]) for b in config.box]
    widths = np.array(hif) - np.array(lof)
    if not np.all(widths > 0):
        raise BoxTooTight("sampling box has a non-positive width")
    vol_box = float(np.prod(widths))

    A = np.array([[float(c) for c in n] for n, _ in region.halfspaces])
    b = np.array([float(bb) for _, bb in region.halfspaces])
    lamf = np.zeros(region.dim) if lam is None \
        else np.array([float(x) for x in lam])

    chunk_sums = []
    chunk_sqsums = []
    accepted_first = None
    remaining = config.samples
    chunk_index = 0
    while remaining > 0:
        n = min(config.chunk, remaining)
        rng = _stream(config.seed, chunk_index)
        pts = np.array(lof) + widths * rng.random((n, region.dim))
        inside = np.all(pts @ A.T <= b + 1e-15, axis=1)
        if accepted_first is None:
            probe = min(n, 10_000)
            accepted_first = int(inside[:probe].sum())
            if accepted_first == 0:
                raise BoxTooTight(
                    f"no samples landed in the region in the first {probe} draws")
        vals = np.zeros(n)
        if inside.any():
            sel = pts[inside]
            vals[inside] = p.eval_array(sel) * np.exp(sel @ lamf)
        chunk_sums.append(float(vals.sum()))
        chunk_sqsums.append(float((vals * vals).sum()))
        remaining -= n
        chunk_index += 1

    total = math.fsum(chunk_sums)
    sq_total = math.fsum(chunk_sqsums)
    n_all = config.samples
    mean = total / n_all
    var = max(sq_total / n_all - mean * mean, 0.0)
    estimate = vol_box * mean
    std_error = vol_box * math.sqrt(var / n_all)
    return estimate, std_error


# -- quadrature for the grid oracle -----------------------------------------

def _quad_nodes(p_plus: Polytope) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on a triangulation: 48-point rule per
    segment in one dimension, 32 x 32 collapsed-square rule per triangle in
    two dimensions."""
    simplices = triangulate(p_plus)
    nodes = []
    weights = []
    if p_plus.dim == 1:
        g, w = np.polynomial.legendre.leggauss(48)
        for (v0,), (v1,) in simplices:
            a, bb = float(v0), float(v1)
            nodes.append(((a + bb) / 2 + (bb - a) / 2 * g)[:, None])
            weights.append(abs(bb - a) / 2 * w)
    elif p_plus.dim == 2:
        g, w = np.polynomial.legendre.leggauss(32)
        u = (g + 1) / 2
        wu = w / 2
        U, V = np.meshgrid(u, u, indexing="ij")
        WW = np.outer(wu, wu) * U          # Jacobian u of the collapse map
        U, V, WW = U.ravel(), V.ravel(), WW.ravel()
        for v0, v1, v2 in simplices:
            p0 = np.array([float(x) for x in v0])
            e1 = np.array([float(x) for x in v1]) - p0
            e2 = np.array([float(x) for x in v2]) - p0
            det = abs(e1[0] * e2[1] - e1[1] * e2[0])
            xi = U * (1 - V)
            eta = U * V
            pts = p0 + np.outer(xi, e1) + np.outer(eta, e2)
            nodes.append(pts)
            weights.append(WW * det)
    else:
        raise InconsistentInputs("the grid oracle supports dimensions 1 and 2")
    return np.vstack(nodes), np.concatenate(weights)


def _h_on_points(lams: np.ndarray, y2: np.ndarray, wpi: np.ndarray,
                 log_v: float) -> np.ndarray:
    """h(Lambda) = ln sum_i wpi_i exp<Lambda, y_i - 2rho> - ln V, batched."""
    L = lams @ y2.T
    m = L.max(axis=1, keepdims=True)
    z = np.exp(L - m) @ wpi
    return (m[:, 0] + np.log(z)) - log_v


def grid_minimize(rs: RootSystem, p_plus: Polytope,
                  box: Sequence[Tuple[float, float]], steps: int = 200,
                  refine: bool = True, check_points: int = 20) -> Dict:
    """Scan h over a box in ray coordinates and return the grid minimizer.

    Coordinates t map to Lambda(t) = sum_i t_i w_i over the coweights
    followed by the central basis. After the coarse scan an optional local
    pass re-grids a two-cell window around the argmin. The minimum and a
    sample of grid values are re-checked against the divided-difference
    engine to 1e-9.
    """
    if steps < 2:
        raise InconsistentInputs("steps must be at least 2")
    gens = [tuple(float(x) for x in w) for w in rs.coweights + rs.central_basis]
    if len(box) != len(gens):
        raise InconsistentInputs(
            f"box must have {len(gens)} axes (rays then central basis)")
    W = np.array(gens)

    nodes, wts = _quad_nodes(p_plus)
    pi_vals = dh_density(rs).eval_array(nodes)
    wpi = wts * pi_vals
    log_v = math.log(float(wpi.sum()))
    y2 = nodes - np.array([float(x) for x in rs.two_rho])

    def scan(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        T = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.empty(T.shape[0])
        for s in range(0, T.shape[0], 1024):
            chunk = T[s:s + 1024]
            vals[s:s + 1024] = _h_on_points(chunk @ W, y2, wpi, log_v)
        i = int(np.argmin(vals))
        return T, vals, i

    axes = [np.linspace(float(a), float(b), steps) for a, b in box]
    T, vals, i0 = scan(axes)
    t_coarse = tuple(float(x) for x in T[i0])
    h_coarse = float(vals[i0])

    t_best, h_best = t_coarse, h_coarse
    if refine:
        fine_axes = []
        for (a, b), tc in zip(box, t_coarse):
            cell = (float(b) - float(a)) / (steps - 1)
            lo = max(float(a), tc - 2 * cell)
            hi = min(float(b), tc + 2 * cell)
            fine_axes.append(np.linspace(lo, hi, steps))
        Tf, valsf, i1 = scan(fine_axes)
        if float(valsf[i1]) < h_best:
            t_best = tuple(float(x) for x in Tf[i1])
            h_best = float(valsf[i1])

    lam_best = tuple(float(x) for x in np.array(t_best) @ W)

    # cross-check the quadrature against the exact engine
    stride = max(1, T.shape[0] // max(check_points, 1))
    sample = list(range(0, T.shape[0], stride))[:check_points]
    devs = []
    for idx in sample:
        lam = tuple(float(x) for x in T[idx] @ W)
        devs.append(abs(h_vector(rs, p_plus, lam).h - float(vals[idx])))
    devs.append(abs(h_vector(rs, p_plus, lam_best).h - h_best))
    max_dev = max(devs)
    return {
        "t": t_best,
        "lambda0": lam_best,
        "h_min": h_best,
        "coarse_t": t_coarse,
        "coarse_h": h_coarse,
        "steps": int(steps),
        "box": tuple((float(a), float(b)) for a, b in box),
        "verification": {"max_abs_dev": max_dev,
                         "points": len(devs),
                         "ok": max_dev <= 1e-9},
    }
