"""Per-block loop moment engine, kept as a per-integral oracle.

An earlier `MomentEngine`: pi is pulled back to each simplex chart in
Fraction arithmetic (term by term, every linear substitution raised to its
power), and every call rebuilds its node lists, Opitz matrices and index
sets and sums monomials with a Python Kahan loop, one block at a time. Each
integral is the corner of its own Opitz matrix's exponential, through the
library's `_expm_stack`, where the planned engine reads windows of one
exponential per node chain; so the two agree to rounding, not bit for bit.
`moments(..., magnitude=True)` sums the absolute values of the same terms,
the scale against which that rounding is measured.
"""

from fractions import Fraction
from math import factorial

import numpy as np

from gcdeg._numeric import mat_rank, to_exact, vec_exact
from gcdeg._poly import Polynomial
from gcdeg.errors import DegenerateSimplex, InconsistentInputs, PrecisionLoss
from gcdeg.expint import _CANCEL_LIMIT, RegionMoments, _expm_stack


def kahan_sum(values):
    total = comp = peak = 0.0
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


def det_exact(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def compose_affine(p: Polynomial, matrix, offset) -> Polynomial:
    """p(A x + b); rows of A are old coordinates, columns new variables."""
    newdim = len(matrix[0])
    subs = [Polynomial.linear_form([to_exact(a) for a in row], to_exact(b))
            for row, b in zip(matrix, offset)]
    out = Polynomial.constant(newdim, 0)
    for mono, c in p.terms.items():
        term = Polynomial.constant(newdim, c)
        for s, e in zip(subs, mono):
            if e:
                term = term * s.pow(e)
        out = out + term
    return out


def dd_exp_many(node_lists):
    out = [0.0] * len(node_lists)
    by_len = {}
    for i, nodes in enumerate(node_lists):
        by_len.setdefault(len(nodes), []).append(i)
    for m, idxs in sorted(by_len.items()):
        if m == 1:
            for i in idxs:
                out[i] = float(np.exp(node_lists[i][0]))
            continue
        stack = []
        for i in idxs:
            J = np.diag(np.asarray(node_lists[i], dtype=float))
            for r in range(m - 1):
                J[r, r + 1] = 1.0
            stack.append(J)
        vals = _expm_stack(np.stack(stack))[:, 0, m - 1]
        for j, i in enumerate(idxs):
            out[i] = float(vals[j])
    return out


class Block:
    def __init__(self, simplex, pi: Polynomial):
        verts = [vec_exact(v) for v in simplex]
        dim = len(verts[0])
        if len(verts) != dim + 1:
            raise InconsistentInputs("simplex needs dim+1 vertices")
        v0 = verts[0]
        B = [[verts[j + 1][i] - v0[i] for j in range(dim)] for i in range(dim)]
        if mat_rank(B) != dim:
            raise DegenerateSimplex("simplex has zero volume")
        self.v0f = tuple(float(x) for x in v0)
        self.Bf = tuple(tuple(float(B[i][j]) for j in range(dim)) for i in range(dim))
        self.absdet = abs(float(det_exact(B)))
        q = compose_affine(pi, B, v0)
        self.mono = {mono: float(c) for mono, c in sorted(q.terms.items())}

    def c_of(self, lamf):
        dim = len(self.v0f)
        return tuple(sum(self.Bf[i][j] * lamf[i] for i in range(dim)) for j in range(dim))


class OracleEngine:
    def __init__(self, simplices, pi: Polynomial):
        self.dim = pi.dim
        self.blocks = [Block(s, pi) for s in simplices]

    def _needed_indices(self, blk, orders):
        dim = self.dim
        gammas = [tuple([0] * dim)]
        if orders >= 1:
            gammas += [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
        if orders >= 2:
            for k in range(dim):
                for l in range(k, dim):
                    g = [0] * dim
                    g[k] += 1
                    g[l] += 1
                    gammas.append(tuple(g))
        return sorted({tuple(b + gg for b, gg in zip(beta, g))
                       for beta in blk.mono for g in gammas})

    def _all_integrals(self, lamf, orders):
        per_block, node_lists, slots = [], [], []
        for bi, blk in enumerate(self.blocks):
            c = blk.c_of(lamf)
            per_block.append({})
            for idx in self._needed_indices(blk, orders):
                nodes = [0.0]
                for ci, mult in zip(c, idx):
                    nodes.extend([float(ci)] * (mult + 1))
                node_lists.append(tuple(nodes))
                slots.append((bi, idx))
        for (bi, idx), v in zip(slots, dd_exp_many(node_lists)):
            for mult in idx:
                v *= factorial(mult)
            per_block[bi][idx] = v
        return per_block

    def moments(self, lam, orders=2, magnitude=False) -> RegionMoments:
        """The moments; with `magnitude`, the same sums with every term
        replaced by its absolute value (the scale of their rounding error)."""
        dim = self.dim
        lamf = tuple(float(x) for x in lam)
        all_vals = self._all_integrals(lamf, orders)
        z_parts = []
        m1_parts = [[] for _ in range(dim)]
        m2_parts = [[[] for _ in range(dim)] for _ in range(dim)]
        for blk, vals in zip(self.blocks, all_vals):
            shift = sum(blk.v0f[i] * lamf[i] for i in range(dim))
            scale = blk.absdet * float(np.exp(shift))
            mono, v0f, Bf = blk.mono, blk.v0f, blk.Bf
            if magnitude:
                mono = {b: abs(c) for b, c in mono.items()}
                v0f = tuple(map(abs, v0f))
                Bf = tuple(tuple(map(abs, row)) for row in Bf)

            def I(beta, extra=()):
                idx = list(beta)
                for k in extra:
                    idx[k] += 1
                return vals[tuple(idx)]

            s0, peak0 = kahan_sum(mono[b] * I(b) for b in sorted(mono))
            if peak0 > 0 and abs(s0) < _CANCEL_LIMIT * peak0:
                raise PrecisionLoss("cancellation in z-moment")
            z_parts.append(scale * s0)
            if orders >= 1:
                sx = [kahan_sum(mono[b] * I(b, (k,)) for b in sorted(mono))[0]
                      for k in range(dim)]
                for i in range(dim):
                    v = v0f[i] * s0 + sum(Bf[i][k] * sx[k] for k in range(dim))
                    m1_parts[i].append(scale * v)
            if orders >= 2:
                sxx = [[0.0] * dim for _ in range(dim)]
                for k in range(dim):
                    for l in range(k, dim):
                        sxx[k][l] = sxx[l][k] = kahan_sum(
                            mono[b] * I(b, (k, l)) for b in sorted(mono))[0]
                for i in range(dim):
                    for j in range(i, dim):
                        v = v0f[i] * v0f[j] * s0
                        for k in range(dim):
                            v += v0f[i] * Bf[j][k] * sx[k]
                            v += v0f[j] * Bf[i][k] * sx[k]
                        for k in range(dim):
                            for l in range(dim):
                                v += Bf[i][k] * Bf[j][l] * sxx[k][l]
                        m2_parts[i][j].append(scale * v)
                        if i != j:
                            m2_parts[j][i].append(scale * v)
        zero = tuple([0.0] * dim)
        first = tuple(kahan_sum(m1_parts[i])[0] for i in range(dim)) if orders >= 1 else zero
        second = tuple(tuple(kahan_sum(m2_parts[i][j])[0] for j in range(dim))
                       for i in range(dim)) if orders >= 2 else tuple(zero for _ in range(dim))
        return RegionMoments(z=kahan_sum(z_parts)[0], first=first, second=second, lam=lamf)
