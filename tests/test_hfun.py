"""The reduced functional: normalization, calculus, PL consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gcdeg import (NotDominant, NotDominantPiece, TwoRhoOutsideDomain,
                   build_polytope, dh_density, h_plfunction, h_vector,
                   normalization_volume, pl_concave)
from gcdeg.hfun import barycenter_grad_hess

from conftest import H_MIN_CASE1, S_STAR_CASE1


def _random_chamber_points(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        s, t = rng.uniform(0.01, scale, size=2)
        pts.append((0.5 * (s + t), 0.5 * (t - s)))  # s*ray1 + t*ray2
    return pts


def test_zero_is_normalized(rs_so4, case1_poly):
    hb = h_vector(rs_so4, case1_poly, (0.0, 0.0))
    assert hb.h == 0.0 and hb.l_na == 0.0 and hb.s_na == 0.0
    assert hb.normalization == pytest.approx(85.05, rel=1e-14)


def test_volume_value(rs_so4, case1_poly):
    assert normalization_volume(rs_so4, case1_poly) == pytest.approx(
        1701 / 20, rel=1e-14)


def test_frozen_minimum_value(rs_so4, case1_poly):
    lam = (S_STAR_CASE1, -S_STAR_CASE1)
    hb = h_vector(rs_so4, case1_poly, lam)
    assert hb.h == pytest.approx(H_MIN_CASE1, abs=1e-12)
    assert hb.h == hb.l_na - hb.s_na


def test_not_dominant_rejected(rs_so4, case1_poly):
    with pytest.raises(NotDominant):
        h_vector(rs_so4, case1_poly, (-0.5, 0.0))


def test_convexity_on_segments(rs_so4, case1_poly):
    rng = np.random.default_rng(11)
    pts = _random_chamber_points(40, 23, scale=1.5)
    for _ in range(100):
        i, j = rng.integers(0, len(pts), size=2)
        t = float(rng.uniform(0.1, 0.9))
        a, b = pts[i], pts[j]
        mid = tuple((1 - t) * x + t * y for x, y in zip(a, b))
        ha = h_vector(rs_so4, case1_poly, a).h
        hb = h_vector(rs_so4, case1_poly, b).h
        hm = h_vector(rs_so4, case1_poly, mid).h
        assert (1 - t) * ha + t * hb - hm >= -1e-10


def test_gradient_hessian_finite_differences(rs_so4, case1_poly, case2_poly):
    step = 1e-5
    for poly, seed in ((case1_poly, 5), (case2_poly, 6)):
        for lam in _random_chamber_points(10, seed):
            b, grad, hess = barycenter_grad_hess(rs_so4, poly, lam)
            for k in range(2):
                lp = list(lam)
                lm = list(lam)
                lp[k] += step
                lm[k] -= step
                fd = (h_vector(rs_so4, poly, lp).h
                      - h_vector(rs_so4, poly, lm).h) / (2 * step)
                denom = max(1.0, abs(fd))
                assert abs(grad[k] - fd) / denom <= 1e-6
            np.linalg.cholesky(np.array(hess))


def test_gradient_is_shifted_barycenter(rs_so4, case1_poly):
    lam = (0.25, -0.1)
    b, grad, _ = barycenter_grad_hess(rs_so4, case1_poly, lam)
    # d/dLambda ln int e^<Lambda, y - 2rho> pi = b(Lambda) - 2rho
    assert grad[0] == pytest.approx(b[0] - 2.0, abs=1e-13)
    assert grad[1] == pytest.approx(b[1] - 0.0, abs=1e-13)


def test_pl_linear_matches_vector(rs_so4, case1_poly):
    lam = (Fraction(1, 4), Fraction(-1, 8))
    f = pl_concave(rs_so4, case1_poly, [(0, lam)])
    hb_pl = h_plfunction(rs_so4, case1_poly, f)
    hb_vec = h_vector(rs_so4, case1_poly, [float(x) for x in lam])
    assert hb_pl.h == pytest.approx(hb_vec.h, abs=1e-12)
    assert hb_pl.l_na == pytest.approx(hb_vec.l_na, abs=1e-12)


def test_pl_constant_shift_invariance(rs_so4, case1_poly):
    pieces = [(Fraction(1), (Fraction(1, 3), Fraction(1, 4))),
              (Fraction(2), (Fraction(1), Fraction(1, 2)))]
    shifted = [(c + 7, lam) for c, lam in pieces]
    h1 = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, pieces)).h
    h2 = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, shifted)).h
    assert h2 == pytest.approx(h1, abs=1e-11)


def test_pl_redundant_piece_ignored(rs_so4, case1_poly):
    base = [(Fraction(0), (Fraction(1, 2), Fraction(0)))]
    # same slope, larger offset: never attains the min
    padded = base + [(Fraction(5), (Fraction(1, 2), Fraction(0)))]
    h1 = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, base))
    h2 = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, padded))
    assert h2.h == pytest.approx(h1.h, abs=1e-13)
    assert h2.inactive_pieces == (1,)


def test_pl_exact_duplicate_piece(rs_so4, case1_poly):
    base = [(Fraction(1), (Fraction(1, 2), Fraction(1, 4)))]
    doubled = base + base
    h1 = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, base))
    h2 = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, doubled))
    assert h2.h == pytest.approx(h1.h, abs=1e-13)
    assert 1 in h2.inactive_pieces


def test_pl_two_active_pieces(rs_so4, case1_poly):
    # kink crosses the polytope: both cells full-dimensional
    f = pl_concave(rs_so4, case1_poly,
                   [(Fraction(0), (Fraction(0), Fraction(0))),
                    (Fraction(1), (Fraction(1), Fraction(0)))])
    hb = h_plfunction(rs_so4, case1_poly, f)
    assert hb.inactive_pieces == ()
    assert hb.pl_pieces == 2
    # against a direct two-cell quadrature: f(y) = min(0, 1 - x)
    from scipy import integrate as si

    def emf(y, x):      # dblquad passes the inner variable first
        return math.exp(-min(0.0, 1.0 - x)) * ((x - y) * (x + y)) ** 2

    ref = si.dblquad(emf, 0, 3, lambda x: -min(x, 3 - x), lambda x: x)[0]
    v = 85.05
    s_na = -math.log(ref / v)
    l_na = min(0.0, 1.0 - 2.0)
    assert hb.h == pytest.approx(l_na - s_na, rel=1e-9)



def test_pl_cell_wall_on_facet(rs_so4, case1_poly):
    # pieces 1 and 2 tie on y1 = 3, so piece 1's cell gets the cut
    # (1/4) y1 <= 3/4: the facet y1 <= 3 again. Counting that facet twice
    # put s_na at -2.798, below min f = -2.75.
    pieces = [(Fraction(-1, 2), (Fraction(1, 2), Fraction(0))),
              (Fraction(1, 4), (Fraction(1), Fraction(-1, 4))),
              (Fraction(1), (Fraction(5, 4), Fraction(-1, 4)))]
    hb = h_plfunction(rs_so4, case1_poly, pl_concave(rs_so4, case1_poly, pieces))
    assert hb.inactive_pieces == (2,)

    def affine(c, lam, y):
        return c - lam[0] * y[0] - lam[1] * y[1]

    verts = case1_poly.vertices
    lower = min(min(affine(c, lam, v) for c, lam in pieces) for v in verts)
    upper = min(max(affine(c, lam, v) for v in verts) for c, lam in pieces)
    assert lower == Fraction(-11, 4)
    assert float(lower) <= hb.s_na <= float(upper)
    from scipy import integrate as si

    def emf(y, x):      # dblquad passes the inner variable first
        f = min(float(affine(c, lam, (x, y))) for c, lam in pieces)
        return math.exp(-f) * ((x - y) * (x + y)) ** 2

    ref = si.dblquad(emf, 0, 3, lambda x: -min(x, 3 - x), lambda x: x)[0]
    assert hb.s_na == pytest.approx(-math.log(ref / 85.05), rel=1e-7)

def test_pl_nondominant_piece_rejected(rs_so4, case1_poly):
    with pytest.raises(NotDominantPiece):
        pl_concave(rs_so4, case1_poly, [(0, (0, 1))])  # <alpha1, (0,1)> < 0


def test_two_rho_outside_domain(rs_a1):
    seg = build_polytope(vertices=[["5/2"], [3]])
    f_pieces = [(Fraction(0), (Fraction(1),))]
    import gcdeg
    f = gcdeg.pl_concave(rs_a1, seg, f_pieces)
    with pytest.raises(TwoRhoOutsideDomain):
        h_plfunction(rs_a1, seg, f)


def test_h_of_approximation_within_one_over_p():
    """|H(f_p) - H(f)| <= 1/p on both SO(4) presets. Where
    0 <= f_p - f <= 1/p (exact on the approximation grid), L = f(2rho) and
    S each grow by at most 1/p, so H = L - S moves by at most 1/p. An f_p
    with a slope outside the chamber (ROADMAP item 5) is rejected by
    h_plfunction; such cases are counted, not filtered out of the data."""
    from gcdeg import approximate_p
    from gcdeg.cli import build_from_doc
    from gcdeg.presets import get_preset
    rng = np.random.default_rng(19)
    accepted, rejected = {}, 0
    for name in ("so4-case1", "so4-case2"):
        rs, poly, _ = build_from_doc(get_preset(name))
        accepted[name] = 0
        for _ in range(8):
            pieces = []
            for _ in range(3):
                s, t = (Fraction(int(x), 4) for x in rng.integers(0, 9, 2))
                pieces.append((Fraction(int(rng.integers(-8, 9)), 4), ((s + t) / 2, (t - s) / 2)))
            f = pl_concave(rs, poly, pieces)
            hf = h_plfunction(rs, poly, f).h
            for p in (3, 5):
                try:
                    hfp = h_plfunction(rs, poly, approximate_p(f, p)).h
                except NotDominantPiece:
                    rejected += 1
                    continue
                accepted[name] += 1
                assert abs(hfp - hf) <= 1 / p, (name, pieces, p, hfp - hf)
    assert min(accepted.values()) >= 1, (accepted, rejected)
