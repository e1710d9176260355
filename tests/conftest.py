"""Shared fixtures and frozen reference values.

Reference constants were produced by independent methods (closed-form
antiderivatives, high-precision root finding on the 1-D reduction of the
stationarity condition, rejection-sampling Monte Carlo, dense grid scans)
before the package computed them; the comments on each constant name the
method. The high-precision root finding is `so4_wall_reference` below, so
acceptance criteria 1-2 re-derive the SO(4) constants on every run.
`dd_exp_reference` is the high-precision reference for divided differences
of exp, and `dd_exp_windows` extends one such pass to every window of a
node chain.
"""

import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

import gcdeg.hfun
import gcdeg.polytope
import polytope_oracle
from gcdeg import RootSystemSpec, build_polytope, build_root_system
from gcdeg._numeric import to_exact, vec_exact
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


@pytest.fixture(scope="session", autouse=True)
def polytope_oracle_check():
    """Every polytope a test builds, from halfspaces or from vertices, is
    checked against the subset-enumeration oracle (polytope_oracle.py);
    each distinct input once."""
    seen = set()
    build, hull = gcdeg.polytope.try_build, gcdeg.polytope._facet_halfspaces

    def once(key, check, *args):
        if key not in seen:
            seen.add(key)
            check(*args)

    def checked_build(halfspaces):
        status, p = build(halfspaces)
        key = tuple((vec_exact(n), to_exact(b)) for n, b in halfspaces)
        once(key, polytope_oracle.check_build, key, status, p)
        return status, p

    def checked_hull(vertices, dim):
        hs = None          # stays None when the hull raises LowerDimensional
        try:
            hs = hull(vertices, dim)
            return hs
        finally:
            once((tuple(vertices), dim), polytope_oracle.check_hull, vertices, dim, hs)

    with pytest.MonkeyPatch.context() as mp:
        for module in (gcdeg.polytope, gcdeg.hfun):
            mp.setattr(module, "try_build", checked_build)
        mp.setattr(gcdeg.polytope, "_facet_halfspaces", checked_hull)
        yield


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


def dd_exp_reference(nodes, dps=60):
    """Divided differences exp[x_0, ..., x_k] for every prefix k = 0..n of
    `nodes`, as mpmath numbers good to `dps` digits; it calls nothing in
    gcdeg.

    The complete-homogeneous series exp[x_0..x_k] = sum_j h_j(x_0..x_k) /
    (j + k)! (the divided difference of t^(j+k) at x_0..x_k is h_j, the
    complete homogeneous polynomial of degree j), summed after shifting the
    nodes by their midrange c (exp[x] = e^c exp[x - c]), so |x - c| <= X
    with X half the node spread. Adding node x_k to h is one pass
    h_j += x_k h_(j-1), which is why every prefix comes at the cost of the
    whole. Since |h_j| <= binom(j + k, k) X^j, the terms are at most
    X^j / (j! k!), summing to e^X / k!, while the result is at least
    e^(-X) / k!. So K terms with K > 2X and X^K / K! < 10^-(dps+5) e^(-2X)
    bound the truncation, and 2X / ln 10 guard digits the cancellation.
    """
    mpmath = pytest.importorskip("mpmath")
    lo, hi = min(nodes), max(nodes)
    X = (hi - lo) / 2
    with mpmath.workdps(dps + int(2 * X / math.log(10)) + 10):
        c = (mpmath.mpf(lo) + mpmath.mpf(hi)) / 2
        bound = mpmath.mpf(10) ** -(dps + 5) * mpmath.exp(-2 * X)
        K, term = 0, mpmath.mpf(1)
        while K <= 2 * X or term >= bound:
            K += 1
            term = term * X / K
        h = [mpmath.mpf(1)] + [mpmath.mpf(0)] * K
        out, ec = [], mpmath.exp(c)
        for k, v in enumerate(nodes):
            x = mpmath.mpf(v) - c
            for j in range(1, K + 1):
                h[j] += x * h[j - 1]
            fact, total = mpmath.factorial(k), mpmath.mpf(0)
            for j in range(K + 1):
                total += h[j] / fact
                fact *= j + k + 1
            out.append(ec * total)
        return out


def dd_exp_windows(nodes, dps=60):
    """Every window W[i][k] = exp[x_i, ..., x_k] (k >= i) of `nodes`, as
    lists W[i] of mpmath numbers indexed by k - i; it calls nothing in gcdeg.

    Row 0 is `dd_exp_reference`; each later row follows from the divided
    difference recurrence read backwards,
    W[i+1][k] = W[i][k-1] + (x_k - x_i) W[i][k], which needs no division,
    so confluent nodes need no special case. Each of the m - 1 steps can
    multiply an absolute error by at most 1 + 2X (X half the node spread),
    so m log10(1 + 2X) guard digits on row 0 and on the recurrence keep
    `dps` digits in every window.
    """
    mpmath = pytest.importorskip("mpmath")
    m = len(nodes)
    X = (max(nodes) - min(nodes)) / 2
    guard = int(m * math.log10(1 + 2 * X)) + 1
    with mpmath.workdps(dps + guard + int(2 * X / math.log(10)) + 10):
        x = [mpmath.mpf(v) for v in nodes]
        rows = [dd_exp_reference(nodes, dps + guard)]
        for i in range(m - 1):
            w = rows[-1]
            rows.append([w[j] + (x[i + 1 + j] - x[i]) * w[j + 1] for j in range(m - 1 - i)])
        return rows


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
