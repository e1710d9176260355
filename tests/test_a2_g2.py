"""A2 and G2 in fundamental-weight coordinates, end to end.

A2 is checked against GL3 (simple roots e1 - e2, e2 - e3 in Q^3, an
orthonormal rational frame): the A2 weight y maps to y1 w1 + y2 w2 with
w1 = (2/3, -1/3, -1/3), w2 = (1/3, 1/3, -2/3), which carries the A2 density,
2rho and walls onto GL3's, and the prism over the image with a central
interval [-1, 1] (1, 1, 1) has the same reduced h. G2 is checked against the
grid scan and Monte Carlo.
"""

import json
from fractions import Fraction

import pytest

from gcdeg import (McConfig, RootSystemSpec, build_polytope, build_root_system,
                   dh_density, get_engine, grid_minimize, mc_integrate, minimize_h)

from conftest import run_cli

W1 = (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
W2 = (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
A2_INTERIOR = [[0, 0], [5, 0], [0, "7/2"]]
A2_WALL = [[0, 0], [3, 0], [0, "13/2"]]
A2_APEX = [[0, 0], [3, 0], [3, 3], [0, 3]]
G2_INTERIOR = [[0, 0], [5, 0], [0, "7/2"]]
G2_WALL = [[0, 0], ["7/2", 0], ["7/2", 1], [0, "7/2"]]


def _chamber_polytope(catalog, vertices):
    rs = build_root_system(RootSystemSpec(catalog=catalog))
    return rs, build_polytope(vertices=vertices, rs=rs, append_chamber=True)


def _gl3_prism(vertices):
    out = []
    for y1, y2 in vertices:
        e = [Fraction(y1) * a + Fraction(y2) * b for a, b in zip(W1, W2)]
        out.extend(tuple(x + s for x in e) for s in (-1, 1))
    return out


@pytest.mark.parametrize("vertices, active", [(A2_INTERIOR, ()), (A2_WALL, (1,)),
                                              (A2_APEX, (0, 1))],
                         ids=["interior", "wall", "apex"])
def test_a2_matches_gl3(vertices, active):
    a2, p = _chamber_polytope("A2", vertices)
    gl3 = build_root_system(RootSystemSpec(simple_roots=[[1, -1, 0], [0, 1, -1]]))
    rep = minimize_h(a2, p)
    ref = minimize_h(gl3, build_polytope(vertices=_gl3_prism(vertices)))
    assert rep.active_set == ref.active_set == active
    assert abs(rep.h_min - ref.h_min) <= 1e-12
    # the GL3 slope pairs with w_i like the A2 slope with e_i, and is
    # balanced on the central line
    for lam, w in zip(rep.lambda0, (W1, W2)):
        assert lam == pytest.approx(sum(float(a) * x for a, x in zip(w, ref.lambda0)), abs=1e-7)
    assert abs(sum(ref.lambda0)) <= 1e-7


@pytest.mark.parametrize("vertices, box, active, lam0",
                         [(G2_INTERIOR, [(1.9, 2.1), (0.0, 0.2)], (), (4.1034, 6.1927)),
                          (G2_WALL, [(2.7, 2.9), (0.0, 0.1)], (1,), (5.6400, 8.4600))],
                         ids=["interior", "wall"])
def test_g2_matches_grid_scan_and_monte_carlo(vertices, box, active, lam0):
    g2, p = _chamber_polytope("G2", vertices)
    rep = minimize_h(g2, p)
    assert rep.active_set == active
    assert rep.lambda0 == pytest.approx(lam0, abs=1e-4)
    grid = grid_minimize(g2, p, box=box, steps=100)
    assert grid["verification"]["ok"]
    assert abs(grid["h_min"] - rep.h_min) <= 1e-9
    pi = dh_density(g2)
    eng = get_engine(p, pi)
    for lam in ((0.0, 0.0), rep.lambda0):
        est, err = mc_integrate(p, pi, lam, McConfig(samples=200_000))
        assert abs(est - eng.z(lam)) <= 3 * err


@pytest.mark.parametrize("catalog, vertices", [("A2", A2_WALL), ("G2", G2_WALL)],
                         ids=["A2", "G2"])
@pytest.mark.parametrize("command, audit", [(["filtration", "--k", "2"], "violations"),
                                            (["approx", "--p", "3"], "audit")],
                         ids=["filtration", "approx"])
def test_a2_g2_cli_tools(tmp_path, catalog, vertices, command, audit):
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({"root_system": {"catalog": catalog},
                               "polytope": {"vertices": vertices,
                                            "restrict_to_chamber": True}}))
    code, out, _ = run_cli(command[:1] + ["--input", str(doc), "--f", "pl:0,1/2,7/8;1,1,7/4"]
                           + command[1:])
    assert code == 0
    assert json.loads(out)[audit]["ok"] is True
