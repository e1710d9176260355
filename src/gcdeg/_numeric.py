"""Number helpers shared across the package.

Every coordinate is kept as an exact `Fraction`: ints, Fractions and strings
like "3/2" or "0.25" as written, floats as their exact binary values.
`is_exact_input` records whether a datum was written exactly, which decides
the `rational` flags and the float-slope chamber tolerance downstream.
"""

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float, Fraction]

# Integer arrays run in int64 while a bound on every intermediate stays
# below this; past it they hold Python ints (dtype=object).
INT64_SAFE = 1 << 62


def to_exact(x) -> Fraction:
    """Coerce to Fraction. Floats convert exactly (binary value), not by rounding."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def is_exact_input(x) -> bool:
    """True when x denotes an exact rational (int, Fraction, or string literal)."""
    return isinstance(x, (int, Fraction, str)) and not isinstance(x, bool)


def vec_exact(v: Iterable) -> Tuple[Fraction, ...]:
    return tuple(to_exact(c) for c in v)


def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def fmt15(x: float) -> str:
    """Decimal string with 15 significant digits, stable across platforms."""
    return format(float(x), ".15g")


def frac_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# -- exact rational linear algebra (small systems only) ---------------------

def mat_rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form. Returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def mat_rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = mat_rref([[to_exact(x) for x in r] for r in rows])
    return len(pivots)


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Basis of {x : A x = 0} as a list of exact column vectors."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    rr, pivots = mat_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rr[ri][fc]
        basis.append(tuple(v))
    return basis


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every intermediate is an exact minor."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve A x = b exactly. Returns x or None when inconsistent.

    For underdetermined systems returns the solution with free variables 0.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(nrows)]
    rr, pivots = mat_rref(aug)
    for row in rr:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rr[ri][-1]
    return tuple(x)


# -- scaled integer arrays ---------------------------------------------------

def scaled_ints(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Integer rows and one positive scale D with rows[i][j] == out[i][j] / D
    (entries are ints or Fractions)."""
    d = lcm(*{x.denominator for r in rows for x in r})
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def int_points(points: Sequence[Sequence], dim: int) -> Tuple[np.ndarray, int]:
    """Points as integer rows P and one positive scale D, points[i] == P[i] / D."""
    rows, d = scaled_ints(points)
    return int_array(rows, dim, max_abs(rows)), d


def max_abs(rows: Sequence[Sequence[int]]) -> int:
    return max((abs(x) for r in rows for x in r), default=0)


def int_array(rows: Sequence[Sequence[int]], ncols: int, bound: int) -> np.ndarray:
    """rows as an (n, ncols) int64 array when bound < INT64_SAFE, else on
    Python ints; bound caps every intermediate the caller will form."""
    dtype = np.int64 if bound < INT64_SAFE else object
    return np.array(rows, dtype=dtype).reshape(len(rows), ncols)


def _amax(a: np.ndarray) -> int:
    """max |a|, 0 when a is empty."""
    return int(np.abs(a).max(initial=0))


def widen(a: np.ndarray, factor: int) -> np.ndarray:
    """a, moved to Python ints when its entries times factor could leave
    the int64 range."""
    if a.dtype != object and max(_amax(a), 1) * factor >= INT64_SAFE:
        return a.astype(object)
    return a


def int_matmul(a: np.ndarray, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """a @ rows.T, exact, for an integer array a and Python-int rows."""
    m = int_array(rows, a.shape[1], a.shape[1] * max(_amax(a), 1) * max(max_abs(rows), 1))
    if m.dtype == object:
        a = a.astype(object)
    return a @ m.T
