"""Seeded op lists for each workload, and the in-process op runner.

An op is plain data: CLI arguments (with an optional input document fed on
stdin) or a call of the public gcdeg.region_moments, plus the spec of the
independent check its output must pass. Every op starts from cold package
caches, because each real CLI call is a fresh process.
"""

import io
import itertools
import json
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

import gcdeg
import gcdeg.cli
from gcdeg.presets import get_preset

import exact

PRESETS = ("sl2", "sl2-balanced", "so4-case1", "so4-case1-ineqlist",
           "so4-case2", "so4-case2-ineqlist")
SO4_PRESETS = tuple(p for p in PRESETS if p.startswith("so4"))

# The rank-4 slope of rank_ladder. Seeded rank-4 slopes miss the 1e-9
# separable check for some seeds (README.md, seed notes), so they run in
# seed_failures only.
FIXED_RANK4_LAMBDA = ("3/10", "1/10", "1/5", "1/20")

# Slopes at or above this magnitude overflow to nan/inf (README.md, seed
# notes); they run in the seed_failures workload only.
LARGE_SLOPE = 250


@dataclass(frozen=True)
class Op:
    id: str
    argv: Tuple[str, ...] = ()
    stdin: Optional[str] = None          # JSON input document for --input -
    api: Optional[str] = None            # "region_moments" for library ops
    check: Dict = field(default_factory=dict)


@dataclass
class Outcome:
    op: Op
    seconds: float                       # wall time
    code: Optional[int]                  # CLI exit code, 0 for a library call
    stdout: str = ""
    value: Optional[Dict] = None         # library result as plain data
    warnings: List[Tuple[str, str]] = field(default_factory=list)
    exception: Optional[str] = None
    marks: Tuple[int, int] = (0, 0)      # speed-probe counts at start and end


# -- op generation -----------------------------------------------------------

def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _so4_slope(s: Fraction, t: Fraction) -> Tuple[Fraction, Fraction]:
    """Dominant slope in the SO(4) frame: <(1,-1), L> = s, <(1,1), L> = t."""
    return (s + t) / 2, (t - s) / 2


def _pl_pieces(rng, dim: int, n: int):
    """Criterion-7 generator: slopes ((s+t)/2, (t-s)/2) with s, t on the
    quarter grid [0, 2] (plain s in one dimension), offsets on [-2, 2]."""
    pieces = []
    for _ in range(n):
        s, t = (Fraction(int(rng.integers(0, 9)), 4) for _ in range(2))
        c = Fraction(int(rng.integers(-8, 9)), 4)
        pieces.append((c, _so4_slope(s, t) if dim == 2 else (s,)))
    return pieces


def _walls_coincide(pieces, facets) -> bool:
    """True when two walls of f's linearity cells lie on one line: the tie
    lines of two piece pairs, or a tie line and a facet of the domain."""
    lines = [(tuple(b - a for a, b in zip(la, lb)), cb - ca)
             for (ca, la), (cb, lb) in itertools.combinations(pieces, 2)]
    lines = [line for line in lines if any(line[0])] + list(facets)
    for (n1, b1), (n2, b2) in itertools.combinations(lines, 2):
        v, w = n1 + (b1,), n2 + (b2,)
        if all(v[i] * w[j] == v[j] * w[i] for i, j in itertools.combinations(range(3), 2)):
            return True
    return False


def _pl_arg(pieces) -> str:
    return "pl:" + ";".join(",".join(_frac(x) for x in (c,) + tuple(lam)) for c, lam in pieces)


def _linear_slope(rng, dim: int, lo: float, hi: float) -> Tuple[Fraction, ...]:
    """Dominant slope of magnitude log-uniform in [lo, hi], on a 1/1000 grid."""
    r = 10 ** rng.uniform(np.log10(lo), np.log10(hi))
    if dim == 1:
        return (Fraction(round(r * 1000), 1000),)
    u = rng.uniform()
    s, t = (Fraction(round(x * 1000), 1000) for x in (r * u, r * (1 - u)))
    return _so4_slope(s, t)


def _preset_dim(name: str) -> int:
    return 1 if name.startswith("sl2") else 2


def _pieces_json(pieces):
    return [[_frac(c), [_frac(x) for x in lam]] for c, lam in pieces]


def _linear_op(name, lam, tag):
    return Op(id=f"h-eval/linear/{name}/{tag}",
              argv=("h-eval", "--preset", name, "--f", "linear:" + ",".join(_frac(x) for x in lam)),
              check={"kind": "linear", "preset": name, "lam": [_frac(x) for x in lam]})


def box_doc(catalog: str, box) -> Dict:
    """[0, h_1] x ... x [0, h_n] cut down to the dominant chamber."""
    verts = [list(v) for v in itertools.product(*[[0, h] for h in box])]
    return {"root_system": {"catalog": catalog},
            "polytope": {"vertices": verts, "restrict_to_chamber": True}}


def factors_of(catalog: str, box) -> List[Tuple[str, List[str]]]:
    """Split a product catalog and its box into irreducible factors."""
    out, i = [], 0
    for part in catalog.split("x"):
        n = {"A1": 1, "B2": 2}[part]
        out.append((part, list(box[i:i + n])))
        i += n
    return out


def rung_op(catalog: str, box) -> Op:
    return Op(id=f"analyze/{catalog}/" + ",".join(box), argv=("analyze", "--input", "-"),
              stdin=json.dumps(box_doc(catalog, box)),
              check={"kind": "separable_min", "factors": factors_of(catalog, box)})


def rank4_ops(catalog: str, box, lam) -> List[Op]:
    doc = json.dumps(box_doc(catalog, box))
    factors = factors_of(catalog, box)
    tag = f"{catalog}/" + ",".join(lam)
    return [
        Op(id=f"h-eval/{tag}", argv=("h-eval", "--input", "-", "--f", "linear:" + ",".join(lam)),
           stdin=doc, check={"kind": "separable_h", "factors": factors, "lam": list(lam)}),
        Op(id=f"region_moments/{tag}", api="region_moments", stdin=doc,
           check={"kind": "separable_moments", "factors": factors, "lam": list(lam)}),
    ]


def _rank4_lambda(rng, catalog: str) -> Tuple[str, ...]:
    """Seeded dominant slope: A1 coordinates >= 0; B2 blocks l1 >= l2 >= 0."""
    out = []
    for part in catalog.split("x"):
        xs = [Fraction(int(rng.integers(0, 101)), 100) for _ in range({"A1": 1, "B2": 2}[part])]
        out.extend(sorted(xs, reverse=True))
    return tuple(_frac(x) for x in out)


def cli_2d(rng) -> List[Op]:
    ops = [Op(id=f"analyze/{p}", argv=("analyze", "--preset", p), check={"kind": "preset", "preset": p})
           for p in PRESETS]
    for p in SO4_PRESETS:
        facets = exact.ExactPolytope.from_doc(get_preset(p)["polytope"]).halfspaces
        for i, n in enumerate((2, 3) * 4):
            # h_plfunction counts a cell twice when two of its walls share a
            # line (seed notes in README.md); such data run in seed_failures.
            pieces = _pl_pieces(rng, 2, n)
            while _walls_coincide(pieces, facets):
                pieces = _pl_pieces(rng, 2, n)
            ops.append(Op(id=f"h-eval/pl/{p}/{i}", argv=("h-eval", "--preset", p, "--f", _pl_arg(pieces)),
                          check={"kind": "pl", "preset": p, "pieces": _pieces_json(pieces)}))
    for p in PRESETS:
        for i in range(4):
            ops.append(_linear_op(p, _linear_slope(rng, _preset_dim(p), 0.01, 100), i))
    ops.append(Op(id="analyze/so4-case2/mc-check",
                  argv=("analyze", "--preset", "so4-case2", "--mc-check", "--mc-samples", "200000"),
                  check={"kind": "mc", "preset": "so4-case2"}))
    return ops


def rank_ladder(rng) -> List[Op]:
    ops = [rung_op("B2", ("4", "2")),
           rung_op("A1xB2", ("5/2", "4", "4")),
           rung_op("A1xA1xA1", ("9/4", "5/2", "4"))]
    return ops + rank4_ops("A1xA1xA1xA1", ("3", "3", "3", "3"), FIXED_RANK4_LAMBDA)


def pl_tools(rng) -> List[Op]:
    """Each op draws its own 3-piece datum: approx time grows with the
    number of envelope pieces, and independent draws average that out."""
    ops = []
    for preset, ks, ps in (("so4-case1", (5, 10), (5, 10)), ("so4-case2", (5, 10), (5, 10)),
                           ("sl2", (50,), (20,))):
        dim = _preset_dim(preset)
        ops += [pl_tool_op(preset, _pl_pieces(rng, dim, 3), "filtration", k) for k in ks]
        ops += [pl_tool_op(preset, _pl_pieces(rng, dim, 3), "approx", p) for p in ps]
    return ops


def pl_tool_op(preset, pieces, command, level) -> Op:
    flag = {"filtration": "k", "approx": "p"}[command]
    return Op(id=f"{command}/{preset}/{flag}{level}",
              argv=(command, "--preset", preset, "--f", _pl_arg(pieces), f"--{flag}", str(level)),
              check={"kind": command, "preset": preset, "pieces": _pieces_json(pieces), flag: level})


def seed_failures(rng) -> List[Op]:
    """Ops known to fail (README.md, seed notes); kept out of the measured
    workloads, which must not fail, and run on their own so the defects
    stay visible."""
    pieces = [(Fraction(-1, 2), (Fraction(1, 2), Fraction(0))),
              (Fraction(1, 4), (Fraction(1), Fraction(-1, 4))),
              (Fraction(1), (Fraction(5, 4), Fraction(-1, 4)))]
    ops = [Op(id="h-eval/pl/so4-case1/wall-on-facet", argv=("h-eval", "--preset", "so4-case1", "--f", _pl_arg(pieces)),
              check={"kind": "pl", "preset": "so4-case1", "pieces": _pieces_json(pieces)}),
           _linear_op("so4-case1", (Fraction(300), Fraction(-300)), "fixed"),
           _linear_op("sl2", (Fraction(400),), "fixed")]
    for p in PRESETS:
        ops.append(_linear_op(p, _linear_slope(rng, _preset_dim(p), LARGE_SLOPE, 400), "large"))
    ops.append(rung_op("A1xA1xA1", ("5/2", "3", "7/2")))
    for lam in (("81/100", "2/25", "9/50", "23/100"), _rank4_lambda(rng, "A1xA1xA1xA1")):
        ops += rank4_ops("A1xA1xA1xA1", ("3", "3", "3", "3"), lam)
    for lam in (FIXED_RANK4_LAMBDA, _rank4_lambda(rng, "B2xB2")):
        ops += rank4_ops("B2xB2", ("4", "4", "4", "4"), lam)
    return ops


WORKLOADS = {"cli_2d": cli_2d, "rank_ladder": rank_ladder, "pl_tools": pl_tools,
             "seed_failures": seed_failures}


def generate(workload: str, seed: int) -> List[Op]:
    return WORKLOADS[workload](np.random.default_rng(seed))


# -- execution ---------------------------------------------------------------

def clear_package_caches() -> None:
    """Empty every functools cache in the gcdeg modules (today the engine
    and lattice-point caches), so later caches are cleared too."""
    for name, mod in list(sys.modules.items()):
        if name == "gcdeg" or name.startswith("gcdeg."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def prepare(ops: List[Op]) -> Dict[str, Tuple]:
    """Inputs of library ops, built once before timing: (region, density)."""
    built = {}
    for op in ops:
        if op.api == "region_moments" and op.stdin not in built:
            doc = json.loads(op.stdin)
            rs, region, _ = gcdeg.cli.build_from_doc(doc)
            built[op.stdin] = (region, gcdeg.dh_density(rs))
    return built


def run_op(op: Op, prepared: Dict[str, Tuple], tracer=None, probe=None) -> Outcome:
    clear_package_caches()
    out = io.StringIO()
    value, code, exc = None, None, None
    saved_stdin = sys.stdin
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op_id = op.id
        first = probe.mark() if probe is not None else 0
        t0 = time.perf_counter()
        try:
            if op.api == "region_moments":
                region, pi = prepared[op.stdin]
                lam = [float(Fraction(x)) for x in op.check["lam"]]
                m = gcdeg.region_moments(region, pi, lam)
                code = 0
            else:
                sys.stdin = io.StringIO(op.stdin or "")
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    main = gcdeg.cli.main if tracer is None else tracer.root("cli", gcdeg.cli.main)
                    code = main(list(op.argv))
        except Exception:  # an op that crashes is a failed op, never a stopped run
            exc = traceback.format_exc()
        finally:
            seconds = time.perf_counter() - t0
            last = probe.mark() if probe is not None else 0
            sys.stdin = saved_stdin
    if op.api == "region_moments" and exc is None:
        value = {"z": m.z, "first": list(m.first), "second": [list(r) for r in m.second]}
    return Outcome(op=op, seconds=seconds, code=code, stdout=out.getvalue(),
                   value=value, warnings=[(w.category.__name__, str(w.message)) for w in caught],
                   exception=exc, marks=(first, last))
