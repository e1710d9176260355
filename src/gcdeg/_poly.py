"""Immutable multivariate polynomials with exact rational coefficients.

Exponent keys are tuples of nonnegative ints; coefficients are Fractions
(floats are converted exactly on input). Supports the operations needed by
the Duistermaat-Heckman density and the simplex integrator: ring arithmetic
and evaluation (exact or via numpy on arrays).
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np

from ._numeric import to_exact

Monomial = Tuple[int, ...]


class Polynomial:
    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Dict[Monomial, Fraction]):
        self.dim = dim
        clean = {}
        for mono, c in terms.items():
            if len(mono) != dim:
                raise ValueError("monomial arity mismatch")
            c = to_exact(c)
            if c != 0:
                clean[tuple(int(e) for e in mono)] = c
        self.terms = dict(sorted(clean.items()))
        self._hash = None

    # -- constructors --

    @staticmethod
    def constant(dim: int, c) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: to_exact(c)})

    @staticmethod
    def coordinate(dim: int, i: int) -> "Polynomial":
        mono = tuple(1 if j == i else 0 for j in range(dim))
        return Polynomial(dim, {mono: Fraction(1)})

    @staticmethod
    def linear_form(coeffs: Sequence, const=0) -> "Polynomial":
        dim = len(coeffs)
        terms: Dict[Monomial, Fraction] = {}
        for i, a in enumerate(coeffs):
            a = to_exact(a)
            if a != 0:
                terms[tuple(1 if j == i else 0 for j in range(dim))] = a
        c = to_exact(const)
        if c != 0:
            terms[(0,) * dim] = c
        return Polynomial(dim, terms)

    # -- ring ops --

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Polynomial(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = to_exact(c)
        return Polynomial(self.dim, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.dim, out)

    def pow(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.dim, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- queries --

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def eval_exact(self, point: Sequence) -> Fraction:
        pt = [to_exact(x) for x in point]
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(pt, mono):
                if e:
                    v *= x ** e
            total += v
        return total

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, dim) array of points."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for mono, c in self.terms.items():
            term = np.full(pts.shape[0], float(c))
            for i, e in enumerate(mono):
                if e:
                    term = term * pts[:, i] ** e
            out += term
        return out

    # -- identity / display --

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, tuple(self.terms.items())))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for mono, c in self.terms.items():
            mstr = "*".join(
                f"y{i}^{e}" if e > 1 else f"y{i}"
                for i, e in enumerate(mono) if e
            )
            bits.append(f"{c}" + (f"*{mstr}" if mstr else ""))
        return "Polynomial(" + " + ".join(bits) + ")"
