"""Outside-in tracing: wrap gcdeg's functions where they are looked up.

The tracer replaces module attributes (and two MomentEngine methods) with
wrappers that record spans (name, start, end, parent span, op id, counts)
in memory, and puts the originals back on uninstall. Nothing in gcdeg
changes. A layer's self time is its span's duration minus the time its
direct child spans cover; calls run on one thread, so children never
overlap.
"""

import statistics
import time
from typing import Callable, Dict, List, Optional

import gcdeg
import gcdeg.cli
import gcdeg.expint
import gcdeg.hfun
import gcdeg.minimize
import gcdeg.polytope
import gcdeg.testconfig


def _face_counts(args, kwargs, rep):
    visits = rep.face_visits
    return {"iterations": rep.iterations, "faces": len(visits),
            "accepted": sum(1 for v in visits if v.converged and v.feasible and v.kkt_ok)}


def _mc_samples(args, kwargs, result):
    config = kwargs.get("config", args[3] if len(args) > 3 else gcdeg.McConfig())
    return {"samples": config.samples}


def _moments_name(args, kwargs):
    orders = kwargs.get("orders", args[2] if len(args) > 2 else 2)
    return f"expint.moments_o{orders}"


# (owner, attribute, span name, counts from (args, kwargs, result)).
# Each name is patched where the calling module looks it up.
PATCHES = [
    (gcdeg.cli, "build_from_doc", "cli.build_from_doc", None),
    (gcdeg.cli, "emit", "cli.emit", None),
    (gcdeg.cli, "build_root_system", "rootsys.build_root_system", None),
    (gcdeg.cli, "build_polytope", "polytope.build_polytope", None),
    (gcdeg.cli, "ke_test", "minimize.ke_test", None),
    (gcdeg.cli, "minimize_h", "minimize.minimize_h", _face_counts),
    (gcdeg.minimize, "coercivity_check", "minimize.coercivity_check", None),
    (gcdeg.cli, "central_fibre_report", "degeneration.central_fibre_report", None),
    (gcdeg.cli, "stability_verdict", "degeneration.stability_verdict", None),
    (gcdeg.cli, "h_vector", "hfun.h_vector", None),
    (gcdeg.cli, "h_plfunction", "hfun.h_plfunction", None),
    (gcdeg.cli, "mc_integrate", "oracle.mc_integrate", _mc_samples),
    (gcdeg.cli, "filtration_table", "testconfig.filtration_table", None),
    (gcdeg.cli, "approximate_p", "testconfig.approximate_p", None),
    (gcdeg.testconfig, "check_table", "testconfig.check_table",
     lambda a, kw, r: {"pairs": len(a[1].points) * (len(a[1].points) - 1)}),
    (gcdeg.testconfig, "lattice_points", "polytope.lattice_points", lambda a, kw, r: {"points": len(r)}),
    (gcdeg.polytope, "lattice_points", "polytope.lattice_points", lambda a, kw, r: {"points": len(r)}),
    (gcdeg.polytope, "try_build", "polytope.try_build", lambda a, kw, r: {"ok": int(r[0] == "ok")}),
    (gcdeg.hfun, "try_build", "polytope.try_build", lambda a, kw, r: {"ok": int(r[0] == "ok")}),
    (gcdeg.polytope, "triangulate", "polytope.triangulate", lambda a, kw, r: {"simplices": len(r)}),
    (gcdeg.expint, "triangulate", "polytope.triangulate", lambda a, kw, r: {"simplices": len(r)}),
    (gcdeg, "region_moments", "expint.region_moments", None),
    (gcdeg.expint.MomentEngine, "__init__", "expint.engine_build", None),
    (gcdeg.expint.MomentEngine, "moments", _moments_name, None),
]

# Per-layer metrics: name -> (unit, better). Counts and ratios repeat
# exactly from run to run; times come from the traced passes only.
PER_LAYER = {
    "expint.moments_o0.calls": ("count", "lower"),
    "expint.moments_o1.calls": ("count", "lower"),
    "expint.moments_o2.calls": ("count", "lower"),
    "expint.moments_o0.s": ("s", "lower"),
    "expint.moments_o1.s": ("s", "lower"),
    "expint.moments_o2.s": ("s", "lower"),
    "expint.moments_o2.s_per_call": ("s", "lower"),
    "expint.region_moments.s": ("s", "lower"),
    "expint.engine_build.calls": ("count", "lower"),
    "expint.engine_build.self_s": ("s", "lower"),
    "minimize.minimize_h.calls": ("count", "lower"),
    "minimize.minimize_h.s": ("s", "lower"),
    "minimize.minimize_h.self_s": ("s", "lower"),
    "minimize.newton_iterations": ("count", "lower"),
    "minimize.faces_solved": ("count", "lower"),
    "minimize.face_accept_ratio": ("ratio", "higher"),
    "minimize.evals_per_iteration": ("ratio", "lower"),
    "minimize.coercivity_check.s": ("s", "lower"),
    "minimize.ke_test.s": ("s", "lower"),
    "polytope.try_build.calls": ("count", "lower"),
    "polytope.try_build.s": ("s", "lower"),
    "polytope.try_build.ok_ratio": ("ratio", "higher"),
    "polytope.build_polytope.calls": ("count", "lower"),
    "polytope.build_polytope.s": ("s", "lower"),
    "polytope.triangulate.s": ("s", "lower"),
    "polytope.triangulate.simplices": ("count", "lower"),
    "polytope.lattice_points.s": ("s", "lower"),
    "polytope.lattice_points.points": ("count", "lower"),
    "rootsys.build_root_system.s": ("s", "lower"),
    "hfun.h_vector.calls": ("count", "lower"),
    "hfun.h_vector.s": ("s", "lower"),
    "hfun.h_plfunction.calls": ("count", "lower"),
    "hfun.h_plfunction.s": ("s", "lower"),
    "testconfig.filtration_table.calls": ("count", "lower"),
    "testconfig.filtration_table.s": ("s", "lower"),
    "testconfig.filtration_table.self_s": ("s", "lower"),
    "testconfig.check_table.s": ("s", "lower"),
    "testconfig.check_table.pairs": ("count", "lower"),
    "testconfig.approximate_p.calls": ("count", "lower"),
    "testconfig.approximate_p.s": ("s", "lower"),
    "oracle.mc_integrate.s": ("s", "lower"),
    "oracle.mc_integrate.samples_per_s": ("1/s", "higher"),
    "degeneration.central_fibre_report.s": ("s", "lower"),
    "degeneration.stability_verdict.s": ("s", "lower"),
    "cli.build_from_doc.s": ("s", "lower"),
    "cli.emit.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Which end-to-end metric each layer should move, on which workload.
LAYER_MAP = {
    "expint.": {"rank_ladder": ["pass_s", "op_s_max"], "cli_2d": ["op_s_geomean (small)"]},
    "minimize.": {"rank_ladder": ["op_s_max", "op_s_geomean", "ok_ratio"]},
    "expint.engine_build": {"cli_2d": ["op_s_geomean"], "rank_ladder": ["pass_s (rank-4 ops)"]},
    "polytope.try_build": {"cli_2d": ["op_s_geomean"], "rank_ladder": ["pass_s (rank-4 ops)"]},
    "hfun.": {"cli_2d": ["op_s_geomean"], "rank_ladder": ["pass_s (rank-4 ops)"]},
    "polytope.build_polytope": {"cli_2d": ["op_s_geomean"], "rank_ladder": ["pass_s (rank-4 ops)"]},
    "polytope.triangulate": {"cli_2d": ["op_s_geomean"], "rank_ladder": ["pass_s (rank-4 ops)"]},
    "rootsys.": {"cli_2d": ["op_s_geomean"]},
    "cli.build_from_doc": {"cli_2d": ["op_s_geomean"], "rank_ladder": ["pass_s (rank-4 ops)"]},
    "testconfig.": {"pl_tools": ["pass_s", "op_s_max"]},
    "polytope.lattice_points": {"pl_tools": ["pass_s", "op_s_max"]},
    "cli.emit": {"cli_2d": ["op_s_geomean"]},
    "cli.self_s": {"cli_2d": ["op_s_geomean"], "pl_tools": ["pass_s (approx audit loop)"]},
    "oracle.": {"cli_2d": ["op_s_max", "op_s_geomean"]},
    "degeneration.": {"cli_2d": ["op_s_max", "op_s_geomean"]},
}


def maps_to(metric: str, workload: str) -> List[str]:
    """End-to-end metrics a per-layer metric should move on a workload
    (longest matching prefix of LAYER_MAP)."""
    keys = [k for k in LAYER_MAP if metric.startswith(k)]
    return LAYER_MAP[max(keys, key=len)].get(workload, []) if keys else []


class Tracer:
    def __init__(self):
        self.spans: List[list] = []      # [name, start, end, parent, op_id, counts]
        self.stack: List[int] = []
        self.op_id: Optional[str] = None
        self._saved = []

    def _wrap(self, name, fn: Callable, counts=None) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str, fn: Callable) -> Callable:
        return self._wrap(name, fn)

    def install(self) -> None:
        for owner, attr, name, counts in PATCHES:
            fn = vars(owner).get(attr)
            if fn is None:       # renamed or removed: the metric reads 0
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def layer_metrics(spans: List[list], first: int = 0, last: Optional[int] = None) -> Dict[str, float]:
    """Per-layer metrics of the spans first..last-1, one traced pass
    (without trace.overhead_ratio). Parent links index the whole list."""
    own = range(first, len(spans) if last is None else last)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    child: Dict[int, float] = {}
    counts: Dict[str, float] = {}
    for i in own:
        name, t0, t1, parent, _, cnt = spans[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for key, v in (cnt or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v
    self_s: Dict[str, float] = {}
    for i in own:
        name, t0, t1 = spans[i][:3]
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child.get(i, 0.0)

    def inside(i: int, ancestor: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    evals_in_min = sum(1 for i in own
                       if spans[i][0].startswith("expint.moments_o") and inside(i, "minimize.minimize_h"))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, (unit, _) in PER_LAYER.items():
        base, _, leaf = name.rpartition(".")
        if leaf == "calls":
            m[name] = calls.get(base, 0)
        elif leaf == "s":
            m[name] = total.get(base, 0.0)
        elif leaf == "self_s":
            m[name] = self_s.get(base, 0.0)
    m["expint.moments_o2.s_per_call"] = ratio(total.get("expint.moments_o2", 0.0),
                                              calls.get("expint.moments_o2", 0))
    m["minimize.newton_iterations"] = counts.get("minimize.minimize_h.iterations", 0)
    m["minimize.faces_solved"] = counts.get("minimize.minimize_h.faces", 0)
    m["minimize.face_accept_ratio"] = ratio(counts.get("minimize.minimize_h.accepted", 0),
                                            m["minimize.faces_solved"])
    m["minimize.evals_per_iteration"] = ratio(evals_in_min, m["minimize.newton_iterations"])
    m["polytope.try_build.ok_ratio"] = ratio(counts.get("polytope.try_build.ok", 0),
                                             calls.get("polytope.try_build", 0))
    m["polytope.triangulate.simplices"] = counts.get("polytope.triangulate.simplices", 0)
    m["polytope.lattice_points.points"] = counts.get("polytope.lattice_points.points", 0)
    m["testconfig.check_table.pairs"] = counts.get("testconfig.check_table.pairs", 0)
    m["oracle.mc_integrate.samples_per_s"] = ratio(counts.get("oracle.mc_integrate.samples", 0),
                                                   total.get("oracle.mc_integrate", 0.0))
    return m


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
