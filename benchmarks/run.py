#!/usr/bin/env python3
"""gcdeg benchmark: seeded workloads run in-process, every output checked.

Usage, from the repository root:

    python3 benchmarks/run.py --workload cli_2d --seed 1 --seconds 10 --trace 0

Load is a closed loop: one process pinned to one CPU, one caller, no
threads, one BLAS thread and GCDEG_THREADS unset. The op list is generated
from --seed before timing; passes over it repeat until --seconds are used
(at least one pass). Every op starts with cold package caches. End-to-end
times are rescaled to a reference machine speed (speed.py). With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 untraced
and traced passes alternate and it holds the per-layer metrics instead.
Per-op rows, the environment and (traced) spans go to benchmarks/out/.
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:          # before NumPy loads, here and in set-up children
    os.environ[_var] = "1"
os.environ.pop("GCDEG_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
COLD_CACHES = "every functools cache in gcdeg.* is cleared before each op"

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_s_geomean": "s", "op_s_max": "s",
              "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def measure_setup(probe) -> list:
    """Reference-speed seconds of fresh interpreters running warmup.py; they
    share the pinned CPU with the probe."""
    samples = []
    for _ in range(SETUP_REPEATS):
        first, t0 = probe.mark(), time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "warmup.py")], cwd=HERE.parent,
                       check=True, capture_output=True, timeout=120)
        samples.append(probe.scaled(time.perf_counter() - t0, first, probe.mark()))
    return samples


def environment(seed: int, cpu_pinned: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_pinned": cpu_pinned, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "GCDEG_THREADS": os.environ.get("GCDEG_THREADS", "unset"),
            "seed": seed, "cold_caches": COLD_CACHES,
            "time_scale": f"reference speed: speed-probe loop of {speed.REF_PROBE_S} s",
            "load": "closed loop, one process, one caller, no threads"}


def run_passes(ops, prepared, seconds: float, tracer, probe) -> list:
    """Passes until `seconds` are used; with a tracer, untraced and traced
    passes alternate and at least one of each runs."""
    from workloads import run_op
    modes = (False, True) if tracer is not None else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        traced = modes[len(passes) % len(modes)]
        gc.collect()
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcomes = [run_op(op, prepared, tracer if traced else None, probe) for op in ops]
        finally:
            seconds_pass = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "outcomes": outcomes,
                       "scaled": [probe.scaled(o.seconds, *o.marks) for o in outcomes],
                       "spans": (first_span, len(tracer.spans)) if traced else None})
        if len(passes) >= len(modes) and time.perf_counter() - start + seconds_pass > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gcdeg" / "__init__.py").is_file():
        print(f"error: gcdeg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gcdeg
    if Path(gcdeg.__file__).resolve().parent != SRC / "gcdeg":
        print(f"error: gcdeg was imported from {gcdeg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import spans
    import warmup
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})      # set-up children inherit it
    tracer = spans.Tracer() if args.trace else None
    with speed.SpeedProbe() as probe:
        setup = measure_setup(probe)
        warmup.warm_up()
        ops = workloads.generate(args.workload, args.seed)
        prepared = workloads.prepare(ops)
        passes = run_passes(ops, prepared, args.seconds, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = checks.References()
    rows = []
    for k, p in enumerate(passes):
        for o, scaled in zip(p["outcomes"], p["scaled"]):
            problems = checks.check(o, refs)
            rows.append({"pass": k, "traced": p["traced"], "op": o.op.id, "s": scaled,
                         "wall_s": o.seconds, "exit": o.code, "ok": not problems, "problems": problems})
    attempted = len(rows)
    failed = sum(1 for r in rows if not r["ok"])

    plain = [p for p in passes if not p["traced"]]
    e2e = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(sum(p["scaled"]) for p in plain),
        "op_s_geomean": statistics.median(
            math.exp(statistics.fmean(math.log(t) for t in p["scaled"])) for p in plain),
        "op_s_max": statistics.median(max(p["scaled"]) for p in plain),
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed, cpu),
              "ops": [{"id": op.id, "argv": list(op.argv), "api": op.api} for op in ops],
              "setup_samples_s": setup, "passes": len(passes),
              "probe": {"samples": len(probe.samples), "median_s": statistics.median(probe.samples),
                        "mean_s": statistics.fmean(probe.samples)},
              "end_to_end": e2e, "rows": rows}
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        layers = spans.median_metrics([spans.layer_metrics(tracer.spans, *p["spans"]) for p in traced])
        layers["trace.overhead_ratio"] = (statistics.median(sum(p["scaled"]) for p in traced)
                                          / e2e["pass_s"])
        metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _) in spans.PER_LAYER.items()}
        result["per_layer"] = {k: dict(v, maps_to=spans.maps_to(k, args.workload))
                               for k, v in metrics.items()}
        result["spans"] = tracer.spans
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({"environment": result["environment"]}))
    for r in rows:
        if not r["ok"]:
            print(f"FAILED pass {r['pass']} {r['op']}: {'; '.join(r['problems'])}")
    for k, v in (result.get("per_layer") or metrics).items():
        where = v.get("maps_to")
        print(f"{k} = {v['value']:.6g} {v['unit']}" + (f"  -> {', '.join(where)}" if where else ""))
    print(f"{len(passes)} passes of {len(ops)} ops, {failed}/{attempted} failed; rows in {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
