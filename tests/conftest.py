"""Shared fixtures and frozen reference values.

Reference constants were produced by independent methods (closed-form
antiderivatives, high-precision root finding on the 1-D reduction of the
stationarity condition, rejection-sampling Monte Carlo, dense grid scans)
before the package computed them; the comments on each constant name the
method. The high-precision root finding is `so4_wall_reference` below, so
acceptance criteria 1-2 re-derive the SO(4) constants on every run.
"""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from gcdeg import RootSystemSpec, build_polytope, build_root_system
from gcdeg.cli import main

# Wall minimizer of the quadrilateral case: root of <x> = 2 for the exact
# x-marginal x^2 (6 - x)^3 = x^2 (216 - 108x + 18x^2 - x^3) on [0, 3], found
# by bracketed root refinement at 40 digits (so4_wall_reference); h value
# from the same integrals.
S_STAR_CASE1 = 0.09569306049147434
H_MIN_CASE1 = -0.001944419193748619
MULT_CASE1 = 0.5                      # exact: b - 2rho = (1/2) alpha2 on the wall

# Pentagon case, same method; the x-marginal x^2 min(6 - x, 10 - 3x)^3 breaks
# at x = 2.
S_STAR_CASE2 = 1.1423730861637071
MULT_CASE2 = 0.3503526433520219

# Barycenters at lambda = 0 (closed-form rational integrals).
B0_CASE1 = (2.4948979591836735, 0.5357142857142857)
B0_SL2 = Fraction(9, 4)

CASE1_VERTICES = [[0, 0], [3, 3], [3, 0], ["3/2", "-3/2"]]
CASE2_VERTICES = [[0, 0], [3, 3], [3, 1], [2, -1], ["3/2", "-3/2"]]
TEXT_QUAD_HALFSPACES = [
    ([-1, -1], 0),
    ([-1, 1], 0),
    ([1, 0], 2),
    ([0, -1], 2),
    ([1, -1], 3),
]


@pytest.fixture(scope="session")
def rs_a1():
    return build_root_system(RootSystemSpec(catalog="A1"))


@pytest.fixture(scope="session")
def rs_so4():
    return build_root_system(RootSystemSpec(catalog="A1xA1"))


@pytest.fixture(scope="session")
def case1_poly():
    return build_polytope(vertices=CASE1_VERTICES)


@pytest.fixture(scope="session")
def case2_poly():
    return build_polytope(vertices=CASE2_VERTICES)


@pytest.fixture(scope="session")
def text_quad():
    return build_polytope(halfspaces=TEXT_QUAD_HALFSPACES)


@pytest.fixture(scope="session")
def seg3():
    return build_polytope(vertices=[[0], [3]])


@pytest.fixture(scope="session")
def seg83():
    return build_polytope(vertices=[[0], ["8/3"]])


# High-precision reference for the SO(4) wall minimizers; it calls nothing in
# gcdeg. On the A1xA1 frame (alpha1 = (1, -1), alpha2 = (1, 1), 2rho = (2, 0))
# put x = <alpha1, y> and u = <alpha2, y>, so pi = x^2 u^2 and, on the alpha2
# wall Lambda = (s, -s), <Lambda, y - 2rho> = s (x - 2). Integrating u over the
# polygon slice [L(x), U(x)] reduces h to one variable:
#     h(s)  = ln int e^{s(x-2)} x^2 (U^3 - L^3) dx - ln int x^2 (U^3 - L^3) dx,
#     dh/ds = E_s[x] - 2,
# and stationarity along the wall leaves b - 2rho = mu alpha2 with the KKT
# multiplier mu = (E_s[u] - 2) / 2, E_s[u | x] = (3/4) (U^4 - L^4) / (U^3 - L^3).
# A root s* > 0 with mu > 0 is a KKT point of the strictly convex h on the
# dominant cone, hence its unique minimizer.

def halfspace_vertices(halfspaces):
    """Exact vertices of the polygon {y : <n, y> <= c for (n, c) in halfspaces}."""
    rows = [([Fraction(a) for a in n], Fraction(c)) for n, c in halfspaces]
    verts = set()
    for (n1, c1), (n2, c2) in itertools.combinations(rows, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det == 0:
            continue
        y = ((c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det)
        if all(n[0] * y[0] + n[1] * y[1] <= c for n, c in rows):
            verts.add(y)
    return sorted(verts)


def wall_pieces(vertices):
    """Exact x-marginal pieces of the A1xA1 polygon with the given vertices.

    Returns (x_lo, x_hi, (U0, U1), (L0, L1)) per interval between consecutive
    vertex x-coordinates: there the slice in u is [L0 + L1 x, U0 + U1 x]. The
    slice of a convex hull is spanned by the chords between vertices, and the
    extreme chords are the polygon's edges over that interval.
    """
    pts = [(Fraction(a) - Fraction(b), Fraction(a) + Fraction(b))
           for a, b in vertices]
    xs = sorted({x for x, _ in pts})
    pieces = []
    for lo, hi in zip(xs, xs[1:]):
        mid = (lo + hi) / 2
        chords = []
        for (xa, ua), (xb, ub) in itertools.combinations(pts, 2):
            if min(xa, xb) <= lo and hi <= max(xa, xb):
                slope = (ub - ua) / (xb - xa)
                chords.append((ua - slope * xa, slope))
        pieces.append((lo, hi,
                       max(chords, key=lambda c: c[0] + c[1] * mid),
                       min(chords, key=lambda c: c[0] + c[1] * mid)))
    return pieces


@dataclass(frozen=True)
class WallReference:
    s_star: object                  # mpmath mpf: Lambda0 = (s*, -s*)
    multiplier: object              # mu with b(Lambda0) - 2rho = mu alpha2
    h_min: object                   # h(Lambda0), normalized by h(0) = 0
    dh_ds: Callable                 # s -> E_s[x] - 2 along the wall


def so4_wall_reference(pieces, dps=40):
    """Solve the alpha2-wall reduction of h at `dps` digits with mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf

    def q(v):
        return mpf(v.numerator) / v.denominator

    segs = [(q(lo), q(hi), (q(u0), q(u1)), (q(l0), q(l1)))
            for lo, hi, (u0, u1), (l0, l1) in pieces]

    def moment(s, xpow, upow):
        # int e^{s(x-2)} x^xpow (U^upow - L^upow) / upow dx over all pieces
        return mpmath.fsum(
            mpmath.quad(lambda x: mpmath.exp(s * (x - 2)) * x ** xpow
                        * ((u0 + u1 * x) ** upow - (l0 + l1 * x) ** upow)
                        / upow, [lo, hi])
            for lo, hi, (u0, u1), (l0, l1) in segs)

    def dh_ds(s):
        with mpmath.workdps(dps):
            s = mpf(s)
            return moment(s, 3, 3) / moment(s, 2, 3) - 2

    with mpmath.workdps(dps):
        s = mpmath.findroot(dh_ds, (mpf(-40), mpf(40)), solver="anderson")
        assert abs(dh_ds(s)) < mpf(10) ** (8 - dps), "root not refined"
        z = moment(s, 2, 3)
        return WallReference(
            s_star=s,
            multiplier=(moment(s, 2, 4) / z - 2) / 2,
            h_min=mpmath.log(z / moment(mpf(0), 2, 3)),
            dh_ds=dh_ds)


@pytest.fixture(scope="session")
def wall_ref_case1():
    return so4_wall_reference(wall_pieces(CASE1_VERTICES))


@pytest.fixture(scope="session")
def wall_ref_case2():
    return so4_wall_reference(wall_pieces(CASE2_VERTICES))


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout_text, stderr_text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def dec(node):
    """Decode a canonical-JSON numeric leaf."""
    if isinstance(node, dict):
        return float(node["decimal"])
    return float(node)


def vec(nodes):
    return [dec(n) for n in nodes]


def load_json(text):
    return json.loads(text)
