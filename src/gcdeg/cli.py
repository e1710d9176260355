"""Command line interface.

Subcommands:
  analyze     full pipeline: root system -> polytope -> minimizer -> verdict
  example     list bundled inputs, or run one by name
  h-eval      evaluate h for a linear or piecewise-linear test datum
  minimize    minimizer report only (coercivity, face search, KKT data)
  filtration  level-k filtration table of a PL datum, with diagnostics
  approx      rational upper approximation of a PL datum

Output is JSON by default. Every numeric leaf is rendered as an object with
a fixed 15-significant-digit decimal string (plus an exact "fraction" field
when the value is rational), so output bytes are reproducible and never
depend on float repr.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._numeric import fmt15, frac_str, int_points, widen
from .degeneration import (central_fibre_report, consistency_with_ke,
                           stability_verdict)
from .errors import GcdegError, InconsistentInputs, SchemaError
from .expint import get_engine, integrate_region
from .hfun import h_plfunction, h_vector
from .minimize import MinimizeOptions, ke_test, minimize_h
from .oracle import McConfig, mc_integrate
from .polytope import Polytope, build_polytope, lattice_points
from .presets import get_preset, list_presets
from .rootsys import RootSystem, RootSystemSpec, build_root_system, dh_density
from .testconfig import (PLConcave, approximate_p, filtration_table, from_vector, pl_concave,
                         piece_minima)

PROG = "gcdeg"


# -- canonical JSON ----------------------------------------------------------

def jsonable(x):
    """Numbers become fixed-width decimal objects; containers recurse."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return {"decimal": fmt15(float(x)), "fraction": frac_str(x)}
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0
        return {"decimal": fmt15(float(x))}
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        if set(doc) == {"decimal"} or set(doc) == {"decimal", "fraction"}:
            yield prefix, doc.get("fraction", doc["decimal"])
            return
        for k, v in doc.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(doc, list):
        vals = list(doc)
        scalarish = all(not isinstance(v, (dict, list)) or
                        (isinstance(v, dict) and set(v) <= {"decimal", "fraction"})
                        for v in vals)
        if scalarish:
            parts = []
            for v in vals:
                if isinstance(v, dict):
                    parts.append(v.get("fraction", v["decimal"]))
                else:
                    parts.append(str(v))
            yield prefix, "[" + ", ".join(parts) + "]"
        else:
            for i, v in enumerate(vals):
                yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, str(doc)


def emit(doc: Dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    doc = jsonable(doc)
    if fmt == "text":
        for path, val in _flatten(doc):
            out.write(f"{path} = {val}\n")
    else:
        out.write(json.dumps(doc, indent=2) + "\n")


# -- input parsing -----------------------------------------------------------

def _parse_scalar(x):
    """JSON numbers stay as they are; strings are exact rationals."""
    if isinstance(x, bool):
        raise SchemaError("booleans are not numeric inputs")
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"cannot parse number {x!r}: {e}")
    raise SchemaError(f"cannot parse number of type {type(x).__name__}")


def _parse_vector(row) -> List:
    if not isinstance(row, (list, tuple)):
        raise SchemaError("expected a coordinate list")
    return [_parse_scalar(v) for v in row]


def load_input(args) -> Tuple[Dict, Dict]:
    """Returns (document, source description)."""
    has_file = getattr(args, "input", None) is not None
    has_preset = getattr(args, "preset", None) is not None
    if has_file == has_preset:
        raise SchemaError("provide exactly one of --input or --preset")
    if has_preset:
        return get_preset(args.preset), {"preset": args.preset}
    if args.input == "-":
        text = sys.stdin.read()
        src = {"file": "<stdin>"}
    else:
        path = Path(args.input)
        if not path.exists():
            raise SchemaError(f"input file not found: {args.input}")
        text = path.read_text()
        src = {"file": args.input}
    try:
        return json.loads(text), src
    except json.JSONDecodeError as e:
        raise SchemaError(f"input is not valid JSON: {e}")


def build_from_doc(doc: Dict, args=None) -> Tuple[RootSystem, Polytope, MinimizeOptions]:
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object")
    rs_doc = doc.get("root_system")
    if not isinstance(rs_doc, dict):
        raise SchemaError("missing root_system object")
    simple = rs_doc.get("simple_roots")
    spec = RootSystemSpec(
        catalog=rs_doc.get("catalog"),
        simple_roots=[_parse_vector(r) for r in simple] if simple else None,
        central_rank=int(rs_doc.get("central_rank", 0)))
    rs = build_root_system(spec)

    poly_doc = doc.get("polytope")
    if not isinstance(poly_doc, dict):
        raise SchemaError("missing polytope object")
    restrict = bool(poly_doc.get("restrict_to_chamber", False))
    if ("vertices" in poly_doc) == ("inequalities" in poly_doc):
        raise SchemaError("polytope needs exactly one of vertices or inequalities")
    if "vertices" in poly_doc:
        verts = [_parse_vector(v) for v in poly_doc["vertices"]]
        p_plus = build_polytope(vertices=verts, rs=rs if restrict else None,
                                append_chamber=restrict)
    else:
        hs = []
        for item in poly_doc["inequalities"]:
            if not isinstance(item, dict) or "normal" not in item or "offset" not in item:
                raise SchemaError("each inequality needs normal and offset")
            hs.append((_parse_vector(item["normal"]), _parse_scalar(item["offset"])))
        p_plus = build_polytope(halfspaces=hs, rs=rs if restrict else None,
                                append_chamber=restrict)
    if p_plus.dim != rs.dim:
        raise InconsistentInputs(
            f"polytope dimension {p_plus.dim} != root system dimension {rs.dim}")

    opt_doc = doc.get("options", {}) or {}
    kw = {}
    for field in ("tol_wall", "tol_kkt", "grad_tol"):
        if field in opt_doc:
            kw[field] = float(opt_doc[field])
    if "max_iter" in opt_doc:
        kw["max_iter"] = int(opt_doc["max_iter"])
    if args is not None:
        if getattr(args, "tol_wall", None) is not None:
            kw["tol_wall"] = float(args.tol_wall)
        if getattr(args, "tol_kkt", None) is not None:
            kw["tol_kkt"] = float(args.tol_kkt)
    return rs, p_plus, MinimizeOptions(**kw)


def parse_f(text: str, rs: RootSystem, p_plus: Polytope) -> PLConcave:
    """Grammar: "linear:a,b,..." for f = -<(a,b,...), y>, or
    "pl:C,a,b;C,a,b;..." listing pieces C - <(a,b), y>."""
    if ":" not in text:
        raise SchemaError("--f must look like linear:... or pl:...")
    kind, _, body = text.partition(":")
    if kind == "linear":
        lam = [_parse_scalar(t.strip()) for t in body.split(",") if t.strip()]
        if len(lam) != p_plus.dim:
            raise SchemaError(f"linear slope needs {p_plus.dim} coordinates")
        return from_vector(rs, p_plus, lam)
    if kind == "pl":
        pieces = []
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            nums = [_parse_scalar(t.strip()) for t in chunk.split(",")]
            if len(nums) != p_plus.dim + 1:
                raise SchemaError(
                    f"each pl piece needs 1 + {p_plus.dim} numbers (C, slope)")
            pieces.append((nums[0], tuple(nums[1:])))
        if not pieces:
            raise SchemaError("pl datum needs at least one piece")
        return pl_concave(rs, p_plus, pieces)
    raise SchemaError(f"unknown f kind {kind!r}; use linear or pl")


# -- report blocks -----------------------------------------------------------

def _root_system_block(rs: RootSystem) -> Dict:
    return {
        "name": rs.name,
        "dim": rs.dim,
        "rank": rs.rank,
        "central_rank": rs.central_rank,
        "simple_roots": [list(a) for a in rs.simple_roots],
        "positive_roots": len(rs.positive_roots),
        "two_rho": list(rs.two_rho),
    }


def _polytope_block(p: Polytope) -> Dict:
    return {
        "dim": p.dim,
        "vertices": [list(v) for v in p.vertices],
        "halfspaces": [{"normal": list(n), "offset": b} for n, b in p.halfspaces],
        "redundant_inequalities": list(p.redundant),
        "volume": p.volume(),
    }


def _minimization_block(rep) -> Dict:
    return {
        "lambda0": list(rep.lambda0),
        "h_min": rep.h_min,
        "converged": rep.converged,
        "active_set": list(rep.active_set),
        "active_roots": [list(a) for a in rep.active_roots],
        "multipliers": list(rep.multipliers),
        "b_lambda0": list(rep.b_lambda0),
        "grad_norm": rep.grad_norm,
        "kkt_residual": rep.kkt_residual,
        "iterations": rep.iterations,
        "accepted_face": list(rep.accepted_face),
        "faces_visited": len(rep.face_visits),
        "coercive": rep.coercivity.coercive,
    }


def _ke_block(ke) -> Dict:
    return {
        "verdict": ke.verdict,
        "b0": list(ke.b0),
        "coefficients": list(ke.coefficients),
        "off_span_residual": ke.off_span_residual,
        "tol": ke.tol,
    }


def _central_fibre_block(cf) -> Dict:
    return {
        "active_set": list(cf.active_set),
        "active_roots": [list(a) for a in cf.active_roots],
        "levi_roots": [list(a) for a in cf.levi_positive_roots],
        "split_roots": [list(a) for a in cf.split_positive_roots],
        "valuation_cone": cf.valuation_cone,
        "horospherical": cf.horospherical,
        "isotropy_character": cf.isotropy_character,
        "h0": cf.h0,
        "aut_rank": cf.aut_rank,
    }


def _h_block(hb) -> Dict:
    out = {"h": hb.h, "l_na": hb.l_na, "s_na": hb.s_na,
           "normalization": hb.normalization}
    if hb.lam is not None:
        out["lambda"] = list(hb.lam)
    if hb.pl_pieces is not None:
        out["pl_pieces"] = hb.pl_pieces
        out["inactive_pieces"] = list(hb.inactive_pieces)
    return out


# -- subcommands -------------------------------------------------------------

def run_analyze(args) -> Dict:
    doc, source = load_input(args)
    rs, p_plus, opts = build_from_doc(doc, args)
    ke = ke_test(rs, p_plus)
    rep = minimize_h(rs, p_plus, opts)
    cf = central_fibre_report(rs, rep)
    verdict = stability_verdict(rs, rep, cf)
    hb = h_vector(rs, p_plus, rep.lambda0)
    out = {
        "command": "analyze",
        "source": source,
        "root_system": _root_system_block(rs),
        "polytope": _polytope_block(p_plus),
        "ke_test": _ke_block(ke),
        "minimization": _minimization_block(rep),
        "h_breakdown": _h_block(hb),
        "central_fibre": _central_fibre_block(cf),
        "verdict": {
            "kind": verdict.kind,
            "flow_statement": verdict.flow_statement,
            "notes": list(verdict.notes),
            "consistent_with_ke_test": consistency_with_ke(ke, verdict, rep),
        },
        "options": {"tol_wall": opts.tol_wall, "tol_kkt": opts.tol_kkt,
                    "grad_tol": opts.grad_tol, "max_iter": opts.max_iter},
    }
    if getattr(args, "mc_check", False):
        pi = dh_density(rs)
        cfg = McConfig(samples=args.mc_samples, seed=args.seed)
        eng = get_engine(p_plus, pi)
        v_est, v_err = mc_integrate(p_plus, pi, None, cfg)
        v_exact = eng.z((0.0,) * p_plus.dim)
        z_est, z_err = mc_integrate(p_plus, pi, rep.lambda0, cfg)
        z_exact = eng.z(tuple(float(x) for x in rep.lambda0))
        out["mc_check"] = {
            "samples": cfg.samples,
            "seed": cfg.seed,
            "volume": {"estimate": v_est, "std_error": v_err,
                       "engine": v_exact,
                       "deviation_sigmas": (v_est - v_exact) / v_err if v_err else 0.0},
            "z_at_lambda0": {"estimate": z_est, "std_error": z_err,
                             "engine": z_exact,
                             "deviation_sigmas": (z_est - z_exact) / z_err if z_err else 0.0},
        }
    if getattr(args, "precision_target", None) is not None:
        pi = dh_density(rs)
        lam = tuple(float(x) for x in rep.lambda0)
        z0 = get_engine(p_plus, pi).z(lam)
        z1 = integrate_region(p_plus, pi, lam, subdivisions=1)
        rel = abs(z1 - z0) / abs(z0)
        out["precision_check"] = {"target": float(args.precision_target),
                                  "z": z0, "z_subdivided": z1,
                                  "relative_deviation": rel,
                                  "ok": rel <= float(args.precision_target)}
        if rel > float(args.precision_target):
            from .errors import PrecisionLoss
            raise PrecisionLoss(
                f"subdivision check moved z by {rel:.3e} > target "
                f"{float(args.precision_target):.3e}")
    return out


def run_minimize(args) -> Dict:
    doc, source = load_input(args)
    rs, p_plus, opts = build_from_doc(doc, args)
    rep = minimize_h(rs, p_plus, opts)
    block = _minimization_block(rep)
    block["coercivity_margins"] = [
        {"direction": list(d), "max_margin": m}
        for d, m in rep.coercivity.ray_margins]
    return {
        "command": "minimize",
        "source": source,
        "root_system": _root_system_block(rs),
        "polytope": _polytope_block(p_plus),
        "minimization": block,
        "options": {"tol_wall": opts.tol_wall, "tol_kkt": opts.tol_kkt,
                    "grad_tol": opts.grad_tol, "max_iter": opts.max_iter},
    }


def run_h_eval(args) -> Dict:
    doc, source = load_input(args)
    rs, p_plus, _ = build_from_doc(doc, args)
    f = parse_f(args.f, rs, p_plus)
    if len(f.pieces) == 1 and f.pieces[0][0] == 0:
        hb = h_vector(rs, p_plus, [float(x) for x in f.pieces[0][1]])
    else:
        hb = h_plfunction(rs, p_plus, f)
    return {
        "command": "h-eval",
        "source": source,
        "f": {"pieces": [{"c": c, "slope": list(lam)} for c, lam in f.pieces],
              "rational": f.rational},
        "h_breakdown": _h_block(hb),
    }


def run_filtration(args) -> Dict:
    doc, source = load_input(args)
    rs, p_plus, _ = build_from_doc(doc, args)
    f = parse_f(args.f, rs, p_plus)
    table = filtration_table(f, args.k)
    return {
        "command": "filtration",
        "source": source,
        "k": table.k,
        "entries": [{"point": list(p), "value": v}
                    for p, v in zip(table.points, table.values)],
        "rational": table.rational,
        "gamma_unshifted": list(table.gamma_unshifted),
        "gamma_shifted": list(table.gamma_shifted),
        "gamma_rank": table.gamma_rank,
        "gamma_rank_mode": table.gamma_rank_mode,
        "violations": {
            "dominance": [[list(a), list(b)] for a, b in table.violations["dominance"]],
            "concavity": [[list(a), list(b), list(m)]
                          for a, b, m in table.violations["concavity"]],
            "ok": table.violations["ok"],
        },
    }


def run_approx(args) -> Dict:
    doc, source = load_input(args)
    rs, p_plus, _ = build_from_doc(doc, args)
    f = parse_f(args.f, rs, p_plus)
    q = args.q if args.q is not None else 4 * args.p
    fp = approximate_p(f, args.p, q)
    grid = lattice_points(p_plus, q)
    P, dp = int_points(grid, p_plus.dim)
    nf, sf = piece_minima(f.pieces, P, dp * q)
    nfp, sfp = piece_minima(fp.pieces, P, dp * q)
    gaps = widen(nfp, sf) * sf - widen(nf, sfp) * sfp     # (f_p - f) * sf * sfp
    below = int(np.count_nonzero(gaps < 0))
    gap_max = Fraction(int(gaps.max(initial=0)), sf * sfp)
    return {
        "command": "approx",
        "source": source,
        "p": int(args.p),
        "q": int(q),
        "pieces": [{"c": c, "slope": list(lam)} for c, lam in fp.pieces],
        "rational": fp.rational,
        "nondominant_pieces": list(fp.nondominant_pieces),
        "audit": {"grid_points": len(grid),
                  "max_gap": gap_max,
                  "bound": Fraction(1, int(args.p)),
                  "points_below_f": below,
                  "ok": below == 0 and gap_max <= Fraction(1, int(args.p))},
    }


def run_example(args) -> Dict:
    if args.action == "list":
        return {"command": "example",
                "presets": [{"name": n, "description": d}
                            for n, d in list_presets()]}
    if args.name is None:
        raise SchemaError("example run needs a preset name")
    args.preset = args.name
    args.input = None
    return run_analyze(args)


# -- argument parser ---------------------------------------------------------

def _add_io(p: argparse.ArgumentParser, need_input: bool = True):
    if need_input:
        p.add_argument("--input", help="JSON input file, or - for stdin")
        p.add_argument("--preset", help="bundled input name (see example list)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--tol-wall", type=float, default=None, dest="tol_wall")
    p.add_argument("--tol-kkt", type=float, default=None, dest="tol_kkt")


def _add_mc(p: argparse.ArgumentParser):
    p.add_argument("--mc-check", action="store_true", dest="mc_check")
    p.add_argument("--mc-samples", type=int, default=1_000_000, dest="mc_samples")
    p.add_argument("--seed", type=int, default=McConfig.seed)
    p.add_argument("--precision-target", type=float, default=None,
                   dest="precision_target")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog=PROG,
        description="Semistable degeneration of a polarized group "
                    "compactification from its root system and moment polytope.")
    sub = ap.add_subparsers(dest="subcommand")

    p = sub.add_parser("analyze", help="full pipeline with stability verdict")
    _add_io(p)
    _add_mc(p)
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("minimize", help="minimizer report only")
    _add_io(p)
    p.set_defaults(func=run_minimize)

    p = sub.add_parser("h-eval", help="evaluate h for a test datum")
    _add_io(p)
    p.add_argument("--f", required=True,
                   help='datum: "linear:a,b" or "pl:C,a,b;C,a,b"')
    p.set_defaults(func=run_h_eval)

    p = sub.add_parser("filtration", help="level-k filtration table")
    _add_io(p)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=run_filtration)

    p = sub.add_parser("approx", help="rational upper approximation")
    _add_io(p)
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=run_approx)

    p = sub.add_parser("example", help="list or run bundled inputs")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?")
    _add_io(p, need_input=False)
    _add_mc(p)
    p.set_defaults(func=run_example, input=None, preset=None)

    return ap


def run_subcommand(argv: Optional[Sequence[str]] = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    if getattr(args, "subcommand", None) is None:
        ap.print_help()
        return 2
    fmt = getattr(args, "format", "json")
    try:
        doc = args.func(args)
    except GcdegError as e:
        err = {"error": {"type": type(e).__name__,
                         "message": str(e),
                         "exit_code": e.exit_code}}
        details = getattr(e, "details", None)
        if details is not None:
            err["error"]["details"] = details
        emit(err, fmt)
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return e.exit_code
    emit(doc, fmt)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_subcommand(argv)


if __name__ == "__main__":
    sys.exit(main())
