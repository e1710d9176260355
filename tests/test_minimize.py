"""Constrained minimization: frozen references, KKT data, coercivity."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gcdeg import (DependentActiveRoots, DivergentMinimizer, MinimizeOptions,
                   RegionMoments, RootSystemSpec, build_polytope, build_root_system,
                   coercivity_check, dh_density, get_engine, h_vector, ke_test,
                   kkt_multipliers, minimize_h)
from gcdeg._numeric import nullspace, vec_exact
from gcdeg.minimize import _face_newton

from conftest import (B0_CASE1, H_MIN_CASE1, MULT_CASE1, MULT_CASE2,
                      S_STAR_CASE1, S_STAR_CASE2)


def test_case1_minimizer(rs_so4, case1_poly):
    rep = minimize_h(rs_so4, case1_poly)
    assert rep.converged
    assert rep.lambda0[0] == pytest.approx(S_STAR_CASE1, abs=1e-9)
    assert rep.lambda0[1] == pytest.approx(-S_STAR_CASE1, abs=1e-9)
    assert rep.h_min == pytest.approx(H_MIN_CASE1, abs=1e-12)
    assert rep.active_set == (1,)                     # the (1,1) wall
    assert rep.active_roots == ((1.0, 1.0),)
    assert rep.multipliers[0] == pytest.approx(MULT_CASE1, abs=1e-9)
    assert rep.b_lambda0[0] == pytest.approx(2.5, abs=1e-9)
    assert rep.b_lambda0[1] == pytest.approx(0.5, abs=1e-9)
    assert rep.kkt_residual <= 1e-8
    assert rep.coercivity.coercive


def test_case2_minimizer(rs_so4, case2_poly):
    rep = minimize_h(rs_so4, case2_poly)
    assert rep.converged
    assert rep.lambda0[0] == pytest.approx(S_STAR_CASE2, abs=1e-9)
    assert rep.lambda0[1] == pytest.approx(-S_STAR_CASE2, abs=1e-9)
    assert rep.active_set == (1,)
    assert rep.multipliers[0] == pytest.approx(MULT_CASE2, abs=1e-9)


def test_case1_global_lower_bound(rs_so4, case1_poly):
    """h at 100 random chamber points never beats the reported minimum."""
    rep = minimize_h(rs_so4, case1_poly)
    rng = np.random.default_rng(17)
    for _ in range(100):
        s, t = rng.uniform(0.0, 1.2, size=2)
        lam = (0.5 * (s + t), 0.5 * (t - s))
        assert h_vector(rs_so4, case1_poly, lam).h >= rep.h_min - 1e-12


def test_minimum_is_locally_flat(rs_so4, case1_poly):
    rep = minimize_h(rs_so4, case1_poly)
    eps = 1e-4
    along_wall = (rep.lambda0[0] + eps, rep.lambda0[1] - eps)
    assert h_vector(rs_so4, case1_poly, along_wall).h >= rep.h_min
    into_chamber = (rep.lambda0[0] + eps, rep.lambda0[1] + eps)
    assert h_vector(rs_so4, case1_poly, into_chamber).h >= rep.h_min


def test_sl2_wall_multiplier(rs_a1, seg3):
    rep = minimize_h(rs_a1, seg3)
    assert rep.lambda0 == (0.0,)
    assert rep.active_set == (0,)
    assert rep.multipliers[0] == pytest.approx(0.125, abs=1e-12)
    assert rep.b_lambda0[0] == pytest.approx(2.25, abs=1e-13)
    assert rep.h_min == 0.0


def test_sl2_balanced_zero_multiplier(rs_a1, seg83):
    rep = minimize_h(rs_a1, seg83)
    assert rep.lambda0 == (0.0,)
    assert abs(rep.multipliers[0]) <= 1e-12
    assert rep.b_lambda0[0] == pytest.approx(2.0, abs=1e-13)


def test_text_quad_divergent(rs_so4, text_quad):
    with pytest.raises(DivergentMinimizer) as exc:
        minimize_h(rs_so4, text_quad)
    cert = exc.value.details["certificate_direction"]
    assert cert == (0.5, 0.0)
    # the certificate really is an escape direction: sup <d, y - 2rho> <= 0
    two_rho = (2.0, 0.0)
    sup = max(sum(c * (float(v[i]) - two_rho[i]) for i, c in enumerate(cert))
              for v in text_quad.vertices)
    assert sup <= 0.0


def test_coercivity_reports(rs_so4, case1_poly, text_quad):
    ok = coercivity_check(rs_so4, case1_poly)
    assert ok.coercive and ok.certificate is None
    assert all(m > 0 for _, m in ok.ray_margins)
    bad = coercivity_check(rs_so4, text_quad)
    assert not bad.coercive and bad.certificate is not None


def test_coercivity_central_rank_certificate():
    # the box lies above y = 0, so h decreases along the central direction
    rs = build_root_system(RootSystemSpec(catalog="A1", central_rank=1))
    box = build_polytope(vertices=[[0, 1], [3, 1], [0, 2], [3, 2]])
    rep = coercivity_check(rs, box)
    assert not rep.coercive
    d = vec_exact(rep.certificate)
    assert any(d)
    assert sum(a * x for a, x in zip(vec_exact(rs.simple_roots[0]), d)) >= 0
    two_rho = vec_exact(rs.two_rho)
    assert max(sum(x * (v[i] - two_rho[i]) for i, x in enumerate(d))
               for v in box.vertices) <= 0


def test_kkt_dependent_roots(rs_so4):
    with pytest.raises(DependentActiveRoots):
        kkt_multipliers(rs_so4, (2.5, 0.5), [0, 0])


def test_kkt_exact_wall_identity(rs_so4):
    # b - 2rho = (1/2, 1/2) = (1/2) alpha2
    mult, res = kkt_multipliers(rs_so4, (2.5, 0.5), [1])
    assert mult[0] == pytest.approx(0.5, abs=1e-14)
    assert res <= 1e-14


def test_ke_case1_unstable(rs_so4, case1_poly):
    ke = ke_test(rs_so4, case1_poly)
    assert ke.verdict == "Unstable"
    assert ke.b0[0] == pytest.approx(B0_CASE1[0], abs=1e-12)
    assert ke.b0[1] == pytest.approx(B0_CASE1[1], abs=1e-12)
    assert min(ke.coefficients) < 0


def test_ke_sl2_stable(rs_a1, seg3, seg83):
    assert ke_test(rs_a1, seg3).verdict == "Stable"
    assert ke_test(rs_a1, seg83).verdict == "SemistableBoundary"


def test_ke_uv_square_stable(rs_so4):
    # the xy image of {0 <= u, v <= 3}: vertices (0,0),(3,3),(3,-3)... in
    # (u+v, v-u)/... frame; in these coordinates u = x - y... use the direct
    # xy square with vertices (0,0), (3/2,-3/2), (3,0), (3/2,3/2) scaled by 2
    sq = build_polytope(vertices=[[0, 0], ["3/2", "-3/2"], [3, 0],
                                  ["3/2", "3/2"]])
    ke = ke_test(rs_so4, sq)
    assert ke.verdict == "Stable"


def _faces_in_order(rank):
    return sorted((s for k in range(rank + 1) for s in itertools.combinations(range(rank), k)),
                  key=lambda s: (len(s), s))


def _assert_search_stops_at_accepted(rep, rank):
    """Visits are the faces in (size, lexicographic) order up to the accepted
    one, and only the last passes the convergence, feasibility and KKT tests."""
    faces = [v.face for v in rep.face_visits]
    assert faces == _faces_in_order(rank)[:len(faces)]
    assert faces[-1] == rep.accepted_face
    assert [v.converged and v.feasible and v.kkt_ok for v in rep.face_visits] == \
        [False] * (len(faces) - 1) + [True]


def test_face_visits_reported(rs_so4, case1_poly):
    rep = minimize_h(rs_so4, case1_poly)
    assert len(rep.face_visits) == 3          # (), (0,), then the accepted (1,)
    _assert_search_stops_at_accepted(rep, rs_so4.rank)


def _a1_factor(a):
    """(s*, h(s*), multiplier) of the 1-D A1 problem on [0, a] at 30 digits.

    pi = y^2 up to a constant, alpha = 2, 2rho = 2 and E_0[y] = 3a/4. Below 2
    the minimizer is the root of E_s[y] = 2 with no multiplier; otherwise it
    is s* = 0 on the wall with multiplier (3a/4 - 2) / 2.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = mpmath.mpf(a.numerator) / a.denominator

        def mom(s, k):
            return mpmath.quad(lambda y: y ** k * mpmath.exp(s * (y - 2)), [0, a])

        if 3 * a / 4 >= 2:
            return 0.0, 0.0, float((3 * a / 4 - 2) / 2)
        s = mpmath.findroot(lambda s: mom(s, 3) / mom(s, 2) - 2, (0, 10),
                            solver="anderson")
        return float(s), float(mpmath.log(mom(s, 2) / mom(0, 2))), None


# Boxes [0, h_1] x [0, h_2] x [0, h_3] cut to the chamber. At (9/4, 5/2, 4)
# face (0, 2) used to stall at |g| ~ 4e-8: the Newton step's predicted
# decrease was about 3 ulps of h, so Armijo halved it to a no-op on every
# iteration up to max_iter. At (5/2, 3, 7/2) the minimizer's own face (1, 2)
# stalled the same way and minimize_h raised NoFaceAccepted.
A1_CUBES = [("9/4", "5/2", "4"), ("5/2", "3", "7/2")]
# Faces the search visits, the accepted one included, on each box.
A1_CUBE_VISITS = {A1_CUBES[0]: 4, A1_CUBES[1]: 7}


def _a1_cube(box):
    rs = build_root_system(RootSystemSpec(catalog="A1xA1xA1"))
    verts = [list(v) for v in itertools.product(*[[0, h] for h in box])]
    return rs, build_polytope(vertices=verts, rs=rs, append_chamber=True)


@pytest.mark.parametrize("box", A1_CUBES)
def test_a1_cube_matches_factors(box):
    rs, p = _a1_cube(box)
    rep = minimize_h(rs, p)
    assert len(rep.face_visits) == A1_CUBE_VISITS[box]
    _assert_search_stops_at_accepted(rep, rs.rank)
    for v in rep.face_visits:
        assert v.converged and v.iterations <= 10, v
    factors = [_a1_factor(Fraction(h)) for h in box]
    assert rep.active_set == tuple(i for i, f in enumerate(factors) if f[2] is not None)
    assert rep.lambda0 == pytest.approx([f[0] for f in factors], abs=1e-9)
    assert rep.h_min == pytest.approx(sum(f[1] for f in factors), abs=1e-9)
    assert rep.multipliers == pytest.approx(
        [f[2] for f in factors if f[2] is not None], abs=1e-9)


def test_a1_cube_flat_step_face_converges():
    """Face (0, 2) of the (9/4, 5/2, 4) box, where Newton once stalled on
    steps whose predicted decrease was rounding noise. minimize_h accepts an
    earlier face now, so the face is solved here directly."""
    rs, p = _a1_cube(A1_CUBES[0])
    engine = get_engine(p, dh_density(rs))
    two_rho = np.asarray([float(t) for t in rs.two_rho])
    basis = nullspace([vec_exact(rs.simple_roots[i]) for i in (0, 2)], rs.dim)
    N = np.asarray([[float(x) for x in col] for col in basis]).T
    *_, gnorm, iters, converged = _face_newton(engine, two_rho, N, MinimizeOptions())
    assert converged and iters <= 10
    assert gnorm <= MinimizeOptions().grad_tol


class _NoisyEngine:
    """1-D stub: from xi = 0 a Newton step lands on some x1 (a plain
    descent); from then on the gradient stays at 1e-7, and every point but
    x1 carries +1e-12 of noise in its value, far above the step's predicted
    decrease of 1e-14 (not flat: 16 ulps of h = 1 is 3.6e-15). Armijo can
    only accept the no-op x1 + t step == x1, which used to repeat until
    max_iter."""

    def __init__(self):
        self.calls = 0
        self.landing = None

    def moments(self, lam, orders=2):
        self.calls += 1
        x = float(lam[0])
        if x == 0.0:
            val, b = 2.0, -1.0
        else:
            self.landing = x if self.landing is None else self.landing
            val, b = 1.0 + 1e-12 * (x != self.landing), 1e-7
        z = math.exp(val)
        return RegionMoments(z=z, first=(b * z,), second=((z * (1.0 + b * b),),), lam=(x,))


def test_face_newton_stops_at_a_no_op_step():
    engine = _NoisyEngine()
    xi, val, _, gnorm, iters, converged = _face_newton(
        engine, np.zeros(1), np.eye(1), MinimizeOptions())
    assert xi.tolist() == [engine.landing] and val == 1.0
    assert gnorm == pytest.approx(1e-7) and not converged
    # one step to x1, then one backtracking search that ends at the no-op
    assert iters == 2
    assert engine.calls <= 40
