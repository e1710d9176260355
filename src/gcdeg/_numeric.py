"""Number helpers shared across the package.

Coordinates are kept as exact `Fraction`s whenever the caller supplied exact
data (int, Fraction, or a string like "3/2" or "0.25"); floats are allowed for
irrational root systems and are tracked with an exactness flag so downstream
code can pick exact or floating paths.
"""

from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

Number = Union[int, float, Fraction]


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


def kahan_sum(values: Iterable[float]) -> Tuple[float, float]:
    """Compensated sum. Returns (total, max_abs_partial) for cancellation checks."""
    total = 0.0
    comp = 0.0
    peak = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(total) > peak:
            peak = abs(total)
        if abs(v) > peak:
            peak = abs(v)
    return total, peak


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
