"""Central fibre structure and the stability verdict chain."""

import pytest

from gcdeg import (RootSystemSpec, build_polytope, build_root_system,
                   central_fibre_report, consistency_with_ke, ke_test,
                   minimize_h, stability_verdict)


def _pipeline(rs, poly):
    rep = minimize_h(rs, poly)
    cf = central_fibre_report(rs, rep)
    v = stability_verdict(rs, rep, cf)
    return rep, cf, v


def test_case1_central_fibre(rs_so4, case1_poly):
    rep, cf, v = _pipeline(rs_so4, case1_poly)
    assert cf.active_set == (1,)
    assert cf.active_roots == ((1.0, 1.0),)
    assert cf.levi_positive_roots == ((1.0, 1.0),)
    assert cf.split_positive_roots == ((1.0, -1.0),)
    assert not cf.horospherical
    assert [list(r) for r in cf.valuation_cone["inequalities"]] == [[1.0, 1.0]]
    assert cf.isotropy_character["count"] == 1
    assert cf.aut_rank == 1
    # dim(Cartan block) + soliton line + 2 per positive root
    assert cf.h0["dimension"] == 2 + 2 * 2
    assert v.kind == "ModifiedKStable"
    assert "0.095693060491" in v.flow_statement


def test_case2_central_fibre(rs_so4, case2_poly):
    _, cf, v = _pipeline(rs_so4, case2_poly)
    assert cf.active_set == (1,)
    assert not cf.horospherical
    assert v.kind == "ModifiedKStable"


def test_sl2_kahler_einstein(rs_a1, seg3):
    rep, cf, v = _pipeline(rs_a1, seg3)
    assert v.kind == "KählerEinstein"
    assert cf.active_set == (0,)
    # Lambda0 = 0: nothing splits, the Levi is everything
    assert cf.levi_positive_roots == ((2.0,),)
    assert cf.split_positive_roots == ()
    assert cf.aut_rank == 0
    ke = ke_test(rs_a1, seg3)
    assert consistency_with_ke(ke, v, rep)


def test_sl2_balanced_semistable_only(rs_a1, seg83):
    rep, cf, v = _pipeline(rs_a1, seg83)
    assert v.kind == "ModifiedKSemistableOnly"
    ke = ke_test(rs_a1, seg83)
    assert ke.verdict == "SemistableBoundary"
    assert consistency_with_ke(ke, v, rep)


def test_central_direction_soliton_product():
    """A1 x (central line): the central barycenter is off 2rho, so the
    minimizer picks up a central component and the degeneration is a
    product-type soliton."""
    rs = build_root_system(RootSystemSpec(catalog="A1", central_rank=1))
    poly = build_polytope(vertices=[[0, -1], [3, -1], [0, 2], [3, 2]])
    rep, cf, v = _pipeline(rs, poly)
    assert abs(rep.lambda0[1]) > 1e-3          # central component active
    assert v.kind == "KRSolitonProduct"


def test_horospherical_when_all_roots_split(rs_so4):
    """An interior minimizer leaves no Levi roots: fully horospherical.
    Built by recentring the quad so its weighted barycenter pins at an
    interior stationary point; we synthesize the situation by checking the
    classifier directly on a report with empty active set."""
    from gcdeg.minimize import MinimizerReport, MinimizeOptions, CoercivityReport
    rep = MinimizerReport(
        lambda0=(0.7, 0.2), h_min=-1.0, active_set=(), active_roots=(),
        multipliers=(), b_lambda0=(2.0, 0.0), grad_norm=0.0, kkt_residual=0.0,
        iterations=3, face_visits=(), accepted_face=(),
        coercivity=CoercivityReport(True, (), None), converged=True,
        options=MinimizeOptions())
    cf = central_fibre_report(rs_so4, rep)
    assert cf.horospherical
    assert cf.levi_positive_roots == ()
    assert set(cf.split_positive_roots) == {(1.0, -1.0), (1.0, 1.0)}
    assert cf.aut_rank == 2
    v = stability_verdict(rs_so4, rep, cf)
    assert v.kind == "ModifiedKStable"


def test_unconverged_is_indeterminate(rs_so4):
    from gcdeg.minimize import MinimizerReport, MinimizeOptions, CoercivityReport
    rep = MinimizerReport(
        lambda0=(0.1, 0.0), h_min=0.0, active_set=(), active_roots=(),
        multipliers=(), b_lambda0=(2.0, 0.0), grad_norm=1.0, kkt_residual=1.0,
        iterations=100, face_visits=(), accepted_face=(),
        coercivity=CoercivityReport(True, (), None), converged=False,
        options=MinimizeOptions())
    cf = central_fibre_report(rs_so4, rep)
    assert stability_verdict(rs_so4, rep, cf).kind == "Indeterminate"


def test_h0_counting_identity(rs_so4, case1_poly, case2_poly):
    for poly in (case1_poly, case2_poly):
        _, cf, _ = _pipeline(rs_so4, poly)
        assert (len(cf.levi_positive_roots) + len(cf.split_positive_roots)
                == len(rs_so4.positive_roots))


def test_lambda0_zero_decided_once(rs_so4):
    """lambda0 = (8e-8, 8e-8) is zero in every coordinate within tol_wall
    = 1e-7, though its Euclidean norm is not: the central fibre, the
    verdict and the KE consistency check must all read it as zero."""
    from gcdeg.minimize import MinimizerReport, MinimizeOptions, CoercivityReport, KeReport
    rep = MinimizerReport(
        lambda0=(8e-8, 8e-8), h_min=0.0, active_set=(0,), active_roots=((1.0, -1.0),),
        multipliers=(0.3,), b_lambda0=(2.3, -0.3), grad_norm=0.0, kkt_residual=0.0,
        iterations=1, face_visits=(), accepted_face=(0,),
        coercivity=CoercivityReport(True, (), None), converged=True,
        options=MinimizeOptions())
    cf = central_fibre_report(rs_so4, rep)
    assert cf.h0["vector_line"] is None
    v = stability_verdict(rs_so4, rep, cf)
    assert v.kind == "KählerEinstein" and v.flow_statement is None
    ke = KeReport(verdict="Stable", b0=(2.3, -0.3), coefficients=(0.3, 0.0),
                  off_span_residual=0.0, tol=1e-8)
    assert consistency_with_ke(ke, v, rep)
