"""Independent checks of every op output, applied the same way on every commit.

Preset numbers are the frozen constants of tests/conftest.py, copied here
with their tolerances rather than imported; that file records how each was
produced (closed forms, 25-digit root refinement, grid scans). Preset
verdicts and active sets are the ones the test suite asserts. Bounds for
h-eval come from exact rational geometry (exact.py). Product inputs are
checked against their 1-D A1 and 2-D B2 factors, and each factor is
confirmed once per run against gcdeg.grid_minimize, whose quadrature is
independent of the divided-difference engine.

A check returns a list of problems; an op fails when the list is not empty.
"""

import json
import math
from fractions import Fraction
from typing import Dict, List

import gcdeg
from gcdeg.presets import get_preset

import exact
from workloads import Outcome, box_doc

TOL_SEPARABLE = 1e-9

# Copied from tests/conftest.py.
S_STAR_CASE1 = 0.09569306049147434
H_MIN_CASE1 = -0.001944419193748619
MULT_CASE1 = 0.5
S_STAR_CASE2 = 1.1423730861637071
MULT_CASE2 = 0.3503526433520219
B0_CASE1 = (2.4948979591836735, 0.5357142857142857)
B0_SL2 = Fraction(9, 4)

# Exit code, verdict, active set and KE verdict as asserted by tests/.
PRESET_EXPECT = {
    "so4-case1": {"exit": 0, "verdict": "ModifiedKStable", "active_set": [1], "ke": "Unstable",
                  "lambda0": (S_STAR_CASE1, -S_STAR_CASE1), "h_min": H_MIN_CASE1,
                  "multipliers": (MULT_CASE1,), "ke_b0": B0_CASE1},
    "so4-case2": {"exit": 0, "verdict": "ModifiedKStable", "active_set": [1],
                  "lambda0": (S_STAR_CASE2, -S_STAR_CASE2), "multipliers": (MULT_CASE2,)},
    "so4-case1-ineqlist": {"exit": 4, "error": "DivergentMinimizer", "certificate": (0.5, 0.0)},
    "so4-case2-ineqlist": {"exit": 4, "error": "DivergentMinimizer"},
    "sl2": {"exit": 0, "verdict": "KählerEinstein", "active_set": [0], "ke": "Stable",
            "lambda0": (0.0,), "ke_b0": (float(B0_SL2),)},
    "sl2-balanced": {"exit": 0, "verdict": "ModifiedKSemistableOnly", "active_set": [0],
                     "ke": "SemistableBoundary"},
}
TOL = {"lambda0": 1e-9, "multipliers": 1e-9, "h_min": 1e-12, "ke_b0": 1e-12}


def dec(leaf) -> float:
    return float(leaf["decimal"])


def frac(leaf) -> Fraction:
    return Fraction(leaf["fraction"] if "fraction" in leaf else leaf["decimal"])


def _nonfinite(node, path="") -> List[str]:
    if isinstance(node, dict):
        if "decimal" in node and not math.isfinite(float(node["decimal"])):
            return [path]
        return [p for k, v in node.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _nonfinite(v, f"{path}[{i}]")]
    if isinstance(node, float) and not math.isfinite(node):
        return [path]
    return []


def _close(name, got, want, tol, rel=True) -> List[str]:
    scale = max(1.0, abs(want)) if rel else 1.0
    if not abs(got - want) <= tol * scale:
        return [f"{name} = {got!r}, expected {want!r} (tol {tol:g})"]
    return []


def _close_vec(name, got, want, tol) -> List[str]:
    if len(got) != len(want):
        return [f"{name} has {len(got)} entries, expected {len(want)}"]
    return [p for i, (g, w) in enumerate(zip(got, want)) for p in _close(f"{name}[{i}]", g, w, tol)]


class Geometry:
    """Exact data of a 1-D or 2-D catalog input."""

    def __init__(self, doc: Dict):
        catalog = doc["root_system"]["catalog"]
        self.roots = exact.POSITIVE_ROOTS[catalog]
        self.two_rho = exact.two_rho(catalog)
        self.poly = exact.ExactPolytope.from_doc(doc["polytope"])
        self.area = self.poly.dh_moment(())
        self.vol, self.b0 = self.poly.dh_barycenter(self.roots)


class References:
    """Lazily computed references for one run."""

    def __init__(self):
        self._geo: Dict[str, Geometry] = {}
        self._factor: Dict[tuple, tuple] = {}

    def preset(self, name: str) -> Geometry:
        if name not in self._geo:
            self._geo[name] = Geometry(get_preset(name))
        return self._geo[name]

    def factor(self, catalog: str, box) -> tuple:
        """(root system, polytope, minimizer report, confirmation problems)."""
        key = (catalog, tuple(box))
        if key not in self._factor:
            doc = box_doc(catalog, box)
            rs, poly, _ = gcdeg.cli.build_from_doc(doc)
            rep = gcdeg.minimize_h(rs, poly)
            self._factor[key] = (rs, poly, rep, _confirm_on_grid(rs, poly, rep, key))
        return self._factor[key]


def _confirm_on_grid(rs, poly, rep, key) -> List[str]:
    """The factor minimizer against a dense scan in ray coordinates."""
    t_ref = [float(exact.dot(a, rep.lambda0)) for a in rs.simple_roots]
    box = [(0.0, 2 * t + 1) for t in t_ref]
    steps = 200 if rs.dim == 1 else 100
    grid = gcdeg.grid_minimize(rs, poly, box, steps=steps)
    problems = []
    if not grid["verification"]["ok"]:
        problems.append(f"factor {key}: engine and grid quadrature differ by "
                        f"{grid['verification']['max_abs_dev']:.3g}")
    if grid["h_min"] < rep.h_min - TOL_SEPARABLE:
        problems.append(f"factor {key}: grid h {grid['h_min']!r} is below the minimizer's {rep.h_min!r}")
    if grid["h_min"] - rep.h_min > 1e-6:
        problems.append(f"factor {key}: grid h {grid['h_min']!r} is far above {rep.h_min!r}")
    for (lo, hi), tg, tr in zip(box, grid["t"], t_ref):
        if abs(tg - tr) > 2 * (hi - lo) / (steps - 1):
            problems.append(f"factor {key}: grid minimizer t={tg!r}, engine t={tr!r}")
    return problems


# -- per-kind checks ---------------------------------------------------------

def _preset(doc, spec, refs) -> List[str]:
    exp = PRESET_EXPECT[spec["preset"]]
    if exp["exit"] != 0:
        err = doc.get("error", {})
        problems = [] if err.get("type") == exp["error"] else [f"error type {err.get('type')!r}"]
        if "certificate" in exp:
            got = [dec(x) for x in err.get("details", {}).get("certificate_direction", [])]
            problems += _close_vec("certificate_direction", got, exp["certificate"], 1e-12)
        return problems
    mini = doc["minimization"]
    problems = []
    if doc["verdict"]["kind"] != exp["verdict"]:
        problems.append(f"verdict {doc['verdict']['kind']!r}, expected {exp['verdict']!r}")
    if mini["active_set"] != exp["active_set"]:
        problems.append(f"active set {mini['active_set']}, expected {exp['active_set']}")
    if "ke" in exp and doc["ke_test"]["verdict"] != exp["ke"]:
        problems.append(f"KE verdict {doc['ke_test']['verdict']!r}, expected {exp['ke']!r}")
    for key, got in (("lambda0", mini["lambda0"]), ("multipliers", mini["multipliers"]),
                     ("ke_b0", doc["ke_test"]["b0"])):
        if key in exp:
            problems += _close_vec(key, [dec(x) for x in got], exp[key], TOL[key])
    if "h_min" in exp:
        problems += _close("h_min", dec(mini["h_min"]), exp["h_min"], TOL["h_min"], rel=False)
    geo = refs.preset(spec["preset"])
    problems += _close_vec("ke_test.b0 (exact)", [dec(x) for x in doc["ke_test"]["b0"]],
                           [float(x) for x in geo.b0], 1e-12)
    if frac(doc["polytope"]["volume"]) != geo.area:
        problems.append(f"volume {doc['polytope']['volume']}, exact {geo.area}")
    return problems


def _mc(doc, spec, refs) -> List[str]:
    problems = _preset(doc, spec, refs)
    mc = doc["mc_check"]
    vol = float(refs.preset(spec["preset"]).vol)
    est, err = dec(mc["volume"]["estimate"]), dec(mc["volume"]["std_error"])
    if not abs(est - vol) <= 5 * err:
        problems.append(f"MC volume {est!r} +- {err!r} is more than 5 sigma from exact {vol!r}")
    problems += _close("mc_check.volume.engine", dec(mc["volume"]["engine"]), vol, 1e-9)
    sig = dec(mc["z_at_lambda0"]["deviation_sigmas"])
    if not abs(sig) <= 5:
        problems.append(f"MC z at lambda0 deviates by {sig!r} sigma")
    return problems


def _linear(doc, spec, refs) -> List[str]:
    """Jensen: <L, b0 - 2rho> <= h <= max_v <L, v - 2rho>."""
    geo = refs.preset(spec["preset"])
    lam = [Fraction(x) for x in spec["lam"]]
    shift = [b - r for b, r in zip(geo.b0, geo.two_rho)]
    lower = float(exact.dot(lam, shift))
    upper = float(max(exact.dot(lam, [v - r for v, r in zip(vert, geo.two_rho)])
                      for vert in geo.poly.vertices))
    hb = doc["h_breakdown"]
    h = dec(hb["h"])
    tol = 1e-12 * max(1.0, abs(h))
    problems = [] if lower - tol <= h <= upper + tol else [
        f"h = {h!r} outside Jensen bounds [{lower!r}, {upper!r}]"]
    return problems + _close("normalization", dec(hb["normalization"]), float(geo.vol), 1e-12)


def _pieces(spec):
    return [(Fraction(c), tuple(Fraction(x) for x in lam)) for c, lam in spec["pieces"]]


def _pl(doc, spec, refs) -> List[str]:
    """min_v f(v) <= s_na <= min_a max_v (C_a - <L_a, v>), l_na = f(2rho)."""
    geo = refs.preset(spec["preset"])
    pieces = _pieces(spec)
    verts = geo.poly.vertices
    lo = float(min(exact.pl_min(pieces, v) for v in verts))
    hi = float(min(max(c - exact.dot(lam, v) for v in verts) for c, lam in pieces))
    hb = doc["h_breakdown"]
    s_na = dec(hb["s_na"])
    tol = 1e-12 * max(1.0, abs(s_na))
    problems = [] if lo - tol <= s_na <= hi + tol else [
        f"s_na = {s_na!r} outside [{lo!r}, {hi!r}]"]
    return problems + _close("l_na", dec(hb["l_na"]), float(exact.pl_min(pieces, geo.two_rho)), 1e-14)


def _filtration(doc, spec, refs) -> List[str]:
    """The table recomputed in integers: den * k f(m/k) at every lattice
    point m of k P+."""
    geo = refs.preset(spec["preset"])
    k = spec["k"]
    pieces = _pieces(spec)
    points = geo.poly.lattice_points(k)
    den = exact.common_denominator(pieces, qden=k)
    want = exact.pl_values_scaled(pieces, points, k, den)
    entries = doc["entries"]
    problems = []
    if doc["k"] != k:
        problems.append(f"k = {doc['k']}, expected {k}")
    if [tuple(frac(x) for x in e["point"]) for e in entries] != [tuple(Fraction(c) for c in m) for m in points]:
        problems.append(f"table has {len(entries)} points, expected the {len(points)} of {k} P+")
    else:
        bad = sum(1 for e, w in zip(entries, want) if frac(e["value"]) * den != k * w)
        if bad:
            problems.append(f"{bad} table values differ from k f(m/k)")
    if doc["violations"]["ok"] is not True:
        problems.append("violations.ok is not true for a concave datum")
    return problems


def _approx(doc, spec, refs) -> List[str]:
    """0 <= f_p - f <= 1/p at every point of the q-grid, in integers."""
    geo = refs.preset(spec["preset"])
    p = spec["p"]
    qd = doc["q"]
    f = _pieces(spec)
    fp = [(frac(x["c"]), tuple(frac(s) for s in x["slope"])) for x in doc["pieces"]]
    points = geo.poly.lattice_points(qd)
    den = exact.common_denominator(f, fp, qden=qd)
    vf = exact.pl_values_scaled(f, points, qd, den)
    vfp = exact.pl_values_scaled(fp, points, qd, den)
    problems = []
    if qd != 4 * p:
        problems.append(f"q = {qd}, expected the default 4p = {4 * p}")
    below = sum(1 for a, b in zip(vf, vfp) if b < a)
    over = sum(1 for a, b in zip(vf, vfp) if (b - a) * p > den)
    if below or over:
        problems.append(f"sandwich fails: {below} grid points below f, {over} above f + 1/p")
    if doc["audit"]["ok"] is not True or doc["audit"]["grid_points"] != len(points):
        problems.append(f"audit {doc['audit']['ok']} on {doc['audit']['grid_points']} points, "
                        f"expected true on {len(points)}")
    return problems


def _factor_parts(spec, refs):
    parts, problems = [], []
    for catalog, box in spec["factors"]:
        part = refs.factor(catalog, box)
        parts.append(part)
        problems += part[3]
    return parts, problems


def _split(values, parts):
    out, i = [], 0
    for rs, *_ in parts:
        out.append(values[i:i + rs.dim])
        i += rs.dim
    return out


def _separable_min(doc, spec, refs) -> List[str]:
    """h_min is the sum and lambda0 the concatenation of the factors'."""
    parts, problems = _factor_parts(spec, refs)
    mini = doc["minimization"]
    problems += _close_vec("lambda0", [dec(x) for x in mini["lambda0"]],
                           [x for _, _, rep, _ in parts for x in rep.lambda0], TOL_SEPARABLE)
    problems += _close("h_min", dec(mini["h_min"]), sum(rep.h_min for _, _, rep, _ in parts), TOL_SEPARABLE)
    return problems


def _separable_h(doc, spec, refs) -> List[str]:
    parts, problems = _factor_parts(spec, refs)
    lam = [float(Fraction(x)) for x in spec["lam"]]
    want = sum(gcdeg.h_vector(rs, poly, sub).h for (rs, poly, _, _), sub in zip(parts, _split(lam, parts)))
    return problems + _close("h", dec(doc["h_breakdown"]["h"]), want, TOL_SEPARABLE)


def _separable_moments(doc, spec, refs) -> List[str]:
    """z is the product of the factor z; normalized first and second
    moments are the factors' barycenters and their products across blocks."""
    parts, problems = _factor_parts(spec, refs)
    lam = [float(Fraction(x)) for x in spec["lam"]]
    z, mean, blocks = 1.0, [], []
    for (rs, poly, _, _), sub in zip(parts, _split(lam, parts)):
        m = gcdeg.region_moments(poly, gcdeg.dh_density(rs), sub)
        z *= m.z
        mean += [x / m.z for x in m.first]
        blocks.append([[x / m.z for x in row] for row in m.second])
    second = [[mean[i] * mean[j] for j in range(len(mean))] for i in range(len(mean))]
    off = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            second[off + i][off:off + len(row)] = row
        off += len(blk)
    got_z = doc["z"]
    problems += _close("z / product", got_z / z, 1.0, TOL_SEPARABLE)
    problems += _close_vec("first / z", [x / got_z for x in doc["first"]], mean, TOL_SEPARABLE)
    for i, row in enumerate(doc["second"]):
        problems += _close_vec(f"second[{i}] / z", [x / got_z for x in row], second[i], TOL_SEPARABLE)
    return problems


CHECKS = {"preset": _preset, "mc": _mc, "linear": _linear, "pl": _pl, "filtration": _filtration,
          "approx": _approx, "separable_min": _separable_min, "separable_h": _separable_h,
          "separable_moments": _separable_moments}


def check(outcome: Outcome, refs: References) -> List[str]:
    """Problems with one op's output; empty when it passes."""
    spec = outcome.op.check
    if outcome.exception is not None:
        return ["exception: " + outcome.exception.strip().splitlines()[-1]]
    problems = [f"{cat}: {msg}" for cat, msg in outcome.warnings if cat == "RuntimeWarning"]
    want_exit = PRESET_EXPECT[spec["preset"]]["exit"] if spec["kind"] == "preset" else 0
    if outcome.code != want_exit:
        problems.append(f"exit code {outcome.code}, expected {want_exit}")
    if outcome.value is not None:
        doc = outcome.value
    else:
        try:
            doc = json.loads(outcome.stdout)
        except ValueError:
            return problems + ["output is not JSON"]
    problems += [f"non-finite value at {p}" for p in _nonfinite(doc)]
    if problems:
        return problems
    try:
        return CHECKS[spec["kind"]](doc, spec, refs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return [f"output does not have the checked shape: {type(e).__name__}: {e}"]
