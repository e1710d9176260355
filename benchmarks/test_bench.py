"""Self-tests of the benchmark: python3 -m pytest benchmarks -q"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import spans
import workloads
from workloads import Op, generate, run_op


@pytest.fixture(scope="module")
def refs():
    return checks.References()


def _check(op, refs, edit=None):
    out = run_op(op, {})
    if edit is not None:
        doc = json.loads(out.stdout)
        edit(doc)
        out.stdout = json.dumps(doc)
    return checks.check(out, refs)


def _product_frame(argv, check):
    doc = {"root_system": {"simple_roots": [[2, 0], [0, 2]]},
           "polytope": {"vertices": [[0, 0], ["5/2", 0], [0, 3], ["5/2", 3]],
                        "restrict_to_chamber": True}}
    return Op(id="product-frame", argv=argv + ("--input", "-"), stdin=json.dumps(doc),
              check=dict(check, factors=[["A1", ["5/2"]], ["A1", ["3"]]]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(name):
    assert generate(name, 11) == generate(name, 11)
    ids = [op.id for op in generate(name, 11)]
    assert len(ids) == len(set(ids))


def test_seed_changes_data():
    assert generate("cli_2d", 11) != generate("cli_2d", 12)


def test_checker_flags_nan_leaf(refs):
    op = workloads._linear_op("sl2", (Fraction(3, 2),), "t")
    assert _check(op, refs) == []

    def plant(doc):
        doc["h_breakdown"]["h"]["decimal"] = "nan"
    assert any("non-finite" in p for p in _check(op, refs, plant))


def test_checker_flags_flipped_verdict(refs):
    op = Op(id="a", argv=("analyze", "--preset", "so4-case1"),
            check={"kind": "preset", "preset": "so4-case1"})
    assert _check(op, refs) == []

    def plant(doc):
        doc["verdict"]["kind"] = "KählerEinstein"
    assert any("verdict" in p for p in _check(op, refs, plant))


def test_checker_flags_sandwich_gap(refs):
    op = workloads.pl_tool_op("so4-case1", [(Fraction(1, 4), (1, 0)),
                                            (Fraction(0), (0, 0))], "approx", 2)
    assert _check(op, refs) == []

    def plant(doc):     # lift every piece by 1/p plus a little
        for piece in doc["pieces"]:
            c = checks.frac(piece["c"]) + Fraction(51, 100)
            piece["c"] = {"decimal": str(float(c)), "fraction": str(c)}
    assert any("sandwich" in p for p in _check(op, refs, plant))


def test_checker_flags_separable_deviation(refs):
    op = _product_frame(("h-eval", "--f", "linear:1/2,1/4"), {"kind": "separable_h", "lam": ["1/2", "1/4"]})
    assert _check(op, refs) == []

    def plant(doc):
        h = checks.dec(doc["h_breakdown"]["h"])
        doc["h_breakdown"]["h"]["decimal"] = repr(h + 1e-6)
    assert any(p.startswith("h =") for p in _check(op, refs, plant))


def test_separable_identity_product_frame(refs):
    op = _product_frame(("analyze",), {"kind": "separable_min"})
    out = run_op(op, {})
    assert checks.check(out, refs) == []
    lam0 = [checks.dec(x) for x in json.loads(out.stdout)["minimization"]["lambda0"]]
    assert lam0 == pytest.approx([0.6082193742656541, 0.0], abs=1e-9)


def test_tracer_nests_and_restores():
    import gcdeg.cli
    original = gcdeg.cli.minimize_h
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_op(Op(id="x", argv=("analyze", "--preset", "sl2")), {}, tracer)
    finally:
        tracer.uninstall()
    assert gcdeg.cli.minimize_h is original
    names = [s[0] for s in tracer.spans]
    mini = names.index("minimize.minimize_h")
    assert tracer.spans[tracer.spans[mini][3]][0] == "cli"
    m = spans.layer_metrics(tracer.spans)
    assert m["minimize.minimize_h.calls"] == 1 and m["minimize.faces_solved"] == 2
    assert m["cli.self_s"] > 0


def test_benchmark_json_matches_tracer():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
