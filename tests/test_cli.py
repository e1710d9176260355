"""CLI: subcommand wiring, canonical JSON, exit codes, determinism."""

import json
import warnings

import pytest

from gcdeg import get_engine
from gcdeg.presets import get_preset

from conftest import dec, run_cli, vec


def test_example_list():
    code, out, _ = run_cli(["example", "list"])
    assert code == 0
    doc = json.loads(out)
    names = {p["name"] for p in doc["presets"]}
    assert names == {"so4-case1", "so4-case2", "so4-case1-ineqlist",
                     "so4-case2-ineqlist", "sl2", "sl2-balanced"}


def test_analyze_case1_report():
    code, out, _ = run_cli(["analyze", "--preset", "so4-case1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "ModifiedKStable"
    assert doc["verdict"]["consistent_with_ke_test"] is True
    assert doc["ke_test"]["verdict"] == "Unstable"
    lam = vec(doc["minimization"]["lambda0"])
    assert lam[0] == pytest.approx(0.09569306049147434, abs=1e-9)
    assert dec(doc["minimization"]["multipliers"][0]) == pytest.approx(0.5, abs=1e-9)
    cf = doc["central_fibre"]
    for key in ("active_roots", "levi_roots", "split_roots", "valuation_cone",
                "horospherical", "isotropy_character", "h0", "aut_rank"):
        assert key in cf
    assert cf["aut_rank"] == 1
    assert doc["polytope"]["volume"]["fraction"] == "27/4"


def test_analyze_divergent_exit_code():
    code, out, err = run_cli(["analyze", "--preset", "so4-case1-ineqlist"])
    assert code == 4
    doc = json.loads(out)
    assert doc["error"]["type"] == "DivergentMinimizer"
    assert vec(doc["error"]["details"]["certificate_direction"]) == [0.5, 0.0]
    assert "escape direction" in err


def test_unknown_preset_exit_code():
    code, out, _ = run_cli(["analyze", "--preset", "nope"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UnknownCatalogName"


def test_geometry_error_exit_code(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({
        "root_system": {"catalog": "A1"},
        "polytope": {"inequalities": [{"normal": [1], "offset": 0},
                                      {"normal": [-1], "offset": -1}]},
    }))
    code, out, _ = run_cli(["analyze", "--input", str(bad)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "Empty"


def test_h_eval_zero_normalization():
    code, out, _ = run_cli(["h-eval", "--preset", "so4-case1",
                            "--f", "linear:0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["h_breakdown"]["h"]["decimal"] == "0"


def test_h_eval_nondominant_exit_code():
    code, out, _ = run_cli(["h-eval", "--preset", "so4-case1",
                            "--f", "linear:0,1"])
    assert code == 2
    assert json.loads(out)["error"]["type"] in ("NotDominant",
                                                "NotDominantPiece")



@pytest.mark.parametrize("f", ["linear:300,-300", "pl:0,300,-300;1,400,-400"])
def test_h_eval_overflow_is_typed_error(f):
    # z overflows double precision at these slopes; both used to print "nan"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["h-eval", "--preset", "so4-case1", "--f", f])
    assert code == 5
    doc = json.loads(out)
    assert doc["error"]["type"] == "PrecisionLoss"
    assert doc["error"]["exit_code"] == 5
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err

def test_h_eval_pl_matches_linear():
    _, out1, _ = run_cli(["h-eval", "--preset", "so4-case1",
                          "--f", "linear:1/4,1/8"])
    _, out2, _ = run_cli(["h-eval", "--preset", "so4-case1",
                          "--f", "pl:0,1/4,1/8"])
    h1 = dec(json.loads(out1)["h_breakdown"]["h"])
    h2 = dec(json.loads(out2)["h_breakdown"]["h"])
    assert h2 == pytest.approx(h1, abs=1e-12)


def test_filtration_cli(rs_a1):
    code, out, _ = run_cli(["filtration", "--preset", "sl2",
                            "--f", "linear:1/2", "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"]["ok"] is True
    vals = [e["value"]["fraction"] for e in doc["entries"]]
    assert vals == ["0", "-1/2", "-1", "-3/2", "-2", "-5/2", "-3"]
    assert doc["gamma_rank"] == 1


def test_approx_cli():
    code, out, _ = run_cli(["approx", "--preset", "sl2",
                            "--f", "linear:1/2", "--p", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["ok"] is True
    assert doc["audit"]["points_below_f"] == 0


def test_minimize_cli_matches_analyze():
    _, out_m, _ = run_cli(["minimize", "--preset", "so4-case2"])
    _, out_a, _ = run_cli(["analyze", "--preset", "so4-case2"])
    m = json.loads(out_m)["minimization"]
    a = json.loads(out_a)["minimization"]
    assert m["lambda0"] == a["lambda0"]
    assert m["h_min"] == a["h_min"]


def test_input_file_equals_preset(tmp_path):
    doc = {
        "root_system": {"catalog": "A1xA1"},
        "polytope": {"vertices": [[0, 0], [3, 3], [3, 0], ["3/2", "-3/2"]]},
    }
    path = tmp_path / "case1.json"
    path.write_text(json.dumps(doc))
    _, out_f, _ = run_cli(["analyze", "--input", str(path)])
    _, out_p, _ = run_cli(["analyze", "--preset", "so4-case1"])
    df, dp = json.loads(out_f), json.loads(out_p)
    del df["source"], dp["source"]
    assert df == dp


def test_example_run_equals_analyze():
    _, out_r, _ = run_cli(["example", "run", "sl2"])
    _, out_a, _ = run_cli(["analyze", "--preset", "sl2"])
    dr, da = json.loads(out_r), json.loads(out_a)
    assert dr["verdict"] == da["verdict"]
    assert dr["minimization"] == da["minimization"]


def test_text_format():
    code, out, _ = run_cli(["analyze", "--preset", "sl2", "--format", "text"])
    assert code == 0
    assert "verdict.kind = KählerEinstein" in out
    assert "minimization.multipliers = [0.125]" in out


def test_analyze_byte_determinism():
    _, out1, _ = run_cli(["analyze", "--preset", "so4-case1"])
    get_engine.cache_clear()
    _, out2, _ = run_cli(["analyze", "--preset", "so4-case1"])
    assert out1 == out2


def test_no_face_accepted_exit_code(tmp_path):
    # With one Newton iteration per face, no face of so4-case2 passes the
    # convergence, feasibility and KKT tests.
    doc = tmp_path / "case2.json"
    doc.write_text(json.dumps(dict(get_preset("so4-case2"), options={"max_iter": 1})))
    code, out, _ = run_cli(["analyze", "--input", str(doc)])
    assert code == 4
    assert json.loads(out)["error"]["type"] == "NoFaceAccepted"


def test_mc_check_deterministic():
    args = ["analyze", "--preset", "sl2", "--mc-check",
            "--mc-samples", "100000", "--seed", "5"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2
    doc = json.loads(out1)
    assert abs(dec(doc["mc_check"]["volume"]["deviation_sigmas"])) < 4


def test_precision_target_flag():
    code, out, _ = run_cli(["analyze", "--preset", "sl2",
                            "--precision-target", "1e-9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["precision_check"]["ok"] is True


def test_tol_override_appears_in_report():
    _, out, _ = run_cli(["analyze", "--preset", "sl2", "--tol-wall", "1e-6"])
    doc = json.loads(out)
    assert dec(doc["options"]["tol_wall"]) == 1e-6


def test_no_raw_floats_in_json():
    """Every numeric leaf is a decimal-string object, never a bare float."""
    _, out, _ = run_cli(["analyze", "--preset", "so4-case1"])

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out, parse_float=float))
