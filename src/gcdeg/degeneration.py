"""Combinatorial structure of the central fibre and the stability verdict.

The minimizer Lambda0 determines a degeneration of the compactification. Its
combinatorial shell is read off from the active wall set I0: the Levi root
subsystem spanned by the active simple roots, the valuation cone of the limit
(cut out by exactly those roots), the horosphericity flag (empty I0), the
isotropy character (one (alpha, -alpha) pair per positive root outside the
Levi), the block structure of the limit algebra h0, and the rank of the
maximal torus acting on the limit.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ._numeric import solve_exact, to_exact
from .minimize import KeReport, MinimizerReport
from .rootsys import RootSystem


@dataclass(frozen=True)
class CentralFibreReport:
    active_set: Tuple[int, ...]
    active_roots: Tuple[Tuple[float, ...], ...]
    levi_positive_roots: Tuple[Tuple[float, ...], ...]
    split_positive_roots: Tuple[Tuple[float, ...], ...]
    valuation_cone: Dict
    horospherical: bool
    isotropy_character: Dict
    h0: Dict
    aut_rank: int


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str
    flow_statement: Optional[str]
    notes: Tuple[str, ...] = ()


def _in_span_exact(alpha, basis) -> bool:
    """alpha in span(basis), exact rational test."""
    if not basis:
        return all(to_exact(x) == 0 for x in alpha)
    dim = len(alpha)
    rows = [[to_exact(basis[j][i]) for j in range(len(basis))] for i in range(dim)]
    return solve_exact(rows, [to_exact(x) for x in alpha]) is not None


def _in_span_float(alpha, basis, tol=1e-9) -> bool:
    if not basis:
        return all(abs(float(x)) <= tol for x in alpha)
    A = np.asarray(basis, dtype=float).T
    b = np.asarray([float(x) for x in alpha])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ sol - b)) <= tol


def central_fibre_report(rs: RootSystem, rep: MinimizerReport) -> CentralFibreReport:
    active = rep.active_set
    active_roots = [rs.simple_roots[i] for i in active]

    levi = []
    split = []
    for alpha in rs.positive_roots:
        member = (_in_span_exact(alpha, active_roots) if rs.exact
                  else _in_span_float(alpha, active_roots))
        (levi if member else split).append(alpha)
    # Partition sanity: every positive root is in exactly one part.
    assert len(levi) + len(split) == len(rs.positive_roots)

    horospherical = len(active) == 0
    cone_ineqs = [tuple(float(x) for x in a) for a in active_roots]
    valuation_cone = {
        "inequalities": cone_ineqs,
        "description": ("all of the character space (no constraints)"
                        if horospherical else
                        "vectors pairing nonnegatively with each listed root"),
    }
    isotropy_character = {
        "pairs": [tuple(float(x) for x in a) for a in split],
        "description": "formal sum of (alpha, -alpha) over the listed positive roots",
        "count": len(split),
    }

    lam0_nonzero = any(abs(x) > rep.options.tol_wall for x in rep.lambda0)
    h0 = {
        "cartan_diagonal_dim": rs.dim - (1 if lam0_nonzero else 0),
        "vector_line": tuple(rep.lambda0) if lam0_nonzero else None,
        "paired_root_pairs": [tuple(float(x) for x in a) for a in levi],
        "split_root_pairs": [tuple(float(x) for x in a) for a in split],
        "dimension": rs.dim + 2 * len(rs.positive_roots),
    }
    aut_rank = rs.dim - len(active)

    return CentralFibreReport(
        active_set=active,
        active_roots=tuple(tuple(float(x) for x in a) for a in active_roots),
        levi_positive_roots=tuple(tuple(float(x) for x in a) for a in levi),
        split_positive_roots=tuple(tuple(float(x) for x in a) for a in split),
        valuation_cone=valuation_cone,
        horospherical=horospherical,
        isotropy_character=isotropy_character,
        h0=h0,
        aut_rank=aut_rank,
    )


def stability_verdict(rs: RootSystem, rep: MinimizerReport,
                      fibre: CentralFibreReport) -> StabilityVerdict:
    """Classify the minimizer.

    Precedence: a multiplier at zero (within tol_kkt) marks a semistable
    boundary case before anything else; then Lambda0 = 0 means the barycentric
    criterion holds and the variety itself is the optimum; a central nonzero
    Lambda0 is a product-type soliton on the same variety; otherwise the
    minimizer defines a genuine degeneration.
    """
    tol_kkt = rep.options.tol_kkt
    tol_wall = rep.options.tol_wall

    if not rep.converged:
        return StabilityVerdict(kind="Indeterminate", flow_statement=None,
                                notes=("minimizer did not converge",))
    if any(m < -tol_kkt for m in rep.multipliers):
        return StabilityVerdict(kind="Indeterminate", flow_statement=None,
                                notes=("negative KKT multiplier",))

    lam0 = np.asarray(rep.lambda0)
    scale = 1.0 + float(np.linalg.norm(lam0))
    zero_mult = [i for i, m in zip(rep.active_set, rep.multipliers) if abs(m) <= tol_kkt]
    lam_zero = float(np.linalg.norm(lam0)) <= tol_wall
    central = all(
        abs(sum(float(a) * x for a, x in zip(alpha, rep.lambda0))) <= tol_wall * scale
        for alpha in rs.simple_roots)

    if zero_mult:
        return StabilityVerdict(
            kind="ModifiedKSemistableOnly", flow_statement=None,
            notes=(f"multiplier at zero on wall(s) {tuple(zero_mult)}: boundary of the stable region",))
    if lam_zero:
        return StabilityVerdict(kind="KählerEinstein", flow_statement=None)
    if central:
        return StabilityVerdict(
            kind="KRSolitonProduct",
            flow_statement=("the optimal vector field is central; the flow limit is the "
                            "variety itself with a product-type soliton structure"))
    stmt = (f"the optimal degeneration is the test configuration of slope lambda0 = "
            f"{tuple(round(x, 12) for x in rep.lambda0)}; its central fibre has the "
            f"reported Levi and valuation-cone structure and h attains {rep.h_min:.12g}")
    return StabilityVerdict(kind="ModifiedKStable", flow_statement=stmt)


def consistency_with_ke(ke: KeReport, verdict: StabilityVerdict,
                        rep: MinimizerReport) -> bool:
    """When Lambda0 = 0 the two verdicts must agree: Stable <-> KählerEinstein,
    SemistableBoundary <-> ModifiedKSemistableOnly."""
    lam_zero = all(abs(x) <= rep.options.tol_wall for x in rep.lambda0)
    if not lam_zero:
        return ke.verdict == "Unstable"
    if ke.verdict == "Stable":
        return verdict.kind == "KählerEinstein"
    if ke.verdict == "SemistableBoundary":
        return verdict.kind == "ModifiedKSemistableOnly"
    return verdict.kind not in ("KählerEinstein",)
