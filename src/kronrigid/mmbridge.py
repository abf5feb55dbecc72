"""Evaluating Kronecker-product transforms through batched matrix
multiplication, with exact operation accounting.

Applying M kron I_N to a vector is one q x q times q x N matrix product
after a reshape; grouping n factors into k blocks turns the whole
transform into k such rounds against q^(n(k-1)/k) columns.  Two exact
backends are provided: a naive cubic multiply (counter = m*n*p exactly)
and a Strassen-style recursion with power-of-two padding and a cutover
threshold.
"""

from __future__ import annotations

from . import sparse
from .errors import DivisorMismatch, LengthMismatch
from .sparse import SparseMatrix


class NaiveBackend:
    """Schoolbook multiply; mults = m*n*p, adds = m*(n-1)*p."""

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def reset(self):
        self.mults = 0
        self.adds = 0

    def multiply(self, a, b, ctx):
        """Dense row-list product; counts every scalar op performed."""
        m = len(a)
        n = len(a[0]) if m else 0
        p = len(b[0]) if b else 0
        zero = ctx.zero_raw()
        out = [[zero] * p for _ in range(m)]
        for i in range(m):
            arow = a[i]
            orow = out[i]
            for kk in range(n):
                av = arow[kk]
                brow = b[kk]
                for j in range(p):
                    prod = ctx.mul_raw(av, brow[j])
                    self.mults += 1
                    if kk == 0:
                        orow[j] = prod
                    else:
                        orow[j] = ctx.add_raw(orow[j], prod)
                        self.adds += 1
        return out


class StrassenBackend(NaiveBackend):
    """Strassen recursion on power-of-two squares, padding as needed.

    Below the cutover threshold the multiply is the schoolbook one.  At
    threshold 1 a 2^a square product uses exactly 7^a multiplications.
    """

    def __init__(self, threshold: int = 32):
        super().__init__()
        self.threshold = threshold

    def multiply(self, a, b, ctx):
        m = len(a)
        n = len(a[0]) if m else 0
        p = len(b[0]) if b else 0
        size = 1
        while size < max(m, n, p):
            size *= 2
        zero = ctx.zero_raw()
        ap = [
            [a[i][j] if i < m and j < n else zero for j in range(size)]
            for i in range(size)
        ]
        bp = [
            [b[i][j] if i < n and j < p else zero for j in range(size)]
            for i in range(size)
        ]
        cp = self._rec(ap, bp, ctx)
        return [row[:p] for row in cp[:m]]

    def _add(self, x, y, ctx):
        self.adds += len(x) * len(x)
        return [
            [ctx.add_raw(u, v) for u, v in zip(rx, ry)] for rx, ry in zip(x, y)
        ]

    def _sub(self, x, y, ctx):
        self.adds += len(x) * len(x)
        return [
            [ctx.sub_raw(u, v) for u, v in zip(rx, ry)] for rx, ry in zip(x, y)
        ]

    def _rec(self, a, b, ctx):
        size = len(a)
        if size <= self.threshold or size == 1:
            return super().multiply(a, b, ctx)
        h = size // 2
        def quad(x):
            return (
                [row[:h] for row in x[:h]],
                [row[h:] for row in x[:h]],
                [row[:h] for row in x[h:]],
                [row[h:] for row in x[h:]],
            )
        a11, a12, a21, a22 = quad(a)
        b11, b12, b21, b22 = quad(b)
        m1 = self._rec(self._add(a11, a22, ctx), self._add(b11, b22, ctx), ctx)
        m2 = self._rec(self._add(a21, a22, ctx), b11, ctx)
        m3 = self._rec(a11, self._sub(b12, b22, ctx), ctx)
        m4 = self._rec(a22, self._sub(b21, b11, ctx), ctx)
        m5 = self._rec(self._add(a11, a12, ctx), b22, ctx)
        m6 = self._rec(self._sub(a21, a11, ctx), self._add(b11, b12, ctx), ctx)
        m7 = self._rec(self._sub(a12, a22, ctx), self._add(b21, b22, ctx), ctx)
        c11 = self._add(
            self._sub(self._add(m1, m4, ctx), m5, ctx), m7, ctx
        )
        c12 = self._add(m3, m5, ctx)
        c21 = self._add(m2, m4, ctx)
        c22 = self._add(
            self._sub(self._add(m1, m3, ctx), m2, ctx), m6, ctx
        )
        out = []
        for r1, r2 in zip(c11, c12):
            out.append(r1 + r2)
        for r1, r2 in zip(c21, c22):
            out.append(r1 + r2)
        return out


def _kron_identity_apply_no_reset(m: SparseMatrix, copies: int, v, backend):
    q = m.rows
    if len(v) != m.cols * copies:
        raise LengthMismatch(f"expected {m.cols * copies} values, got {len(v)}")
    ctx = m.ctx
    a = m.to_dense()
    # v reshaped column-wise: column t of the right operand is the slice
    # v[t], v[N + t], ... so row b holds v[b*N : (b+1)*N]
    b = [list(v[r * copies : (r + 1) * copies]) for r in range(m.cols)]
    c = backend.multiply(a, b, ctx)
    out = []
    for row in c:
        out.extend(row)
    return out


def kron_identity_apply(m: SparseMatrix, copies: int, v, backend):
    """apply(M kron I_copies, v) as one matrix product after reshaping."""
    backend.reset()
    return _kron_identity_apply_no_reset(m, copies, v, backend)


def butterflytomm_apply(m_list, k: int, v, backend):
    """Apply the Kronecker product of n square matrices in k MM rounds.

    The factors are grouped into k consecutive blocks; round l applies
    I kron (block l) kron I, realized as repeated reshaped products
    against q^(n(k-1)/k) columns in total.  Returns (result, report).
    """
    n = len(m_list)
    if n == 0 or n % k != 0:
        raise DivisorMismatch(f"{k} rounds do not divide {n} factors")
    q = m_list[0].rows
    ctx = m_list[0].ctx
    g = n // k
    big_n = q**n
    if len(v) != big_n:
        raise LengthMismatch(f"expected {big_n} values, got {len(v)}")
    blocks = [
        sparse.kron_all(m_list[ell * g : (ell + 1) * g]) for ell in range(k)
    ]
    backend.reset()
    cur = list(v)
    per_round = []
    for ell, block in enumerate(blocks):
        big_q = q**g
        left = big_q**ell
        right = big_n // (left * big_q)
        before = backend.mults
        nxt = []
        chunk = big_q * right
        for outer in range(left):
            piece = cur[outer * chunk : (outer + 1) * chunk]
            nxt.extend(
                _kron_identity_apply_no_reset(block, right, piece, backend)
            )
        cur = nxt
        per_round.append(backend.mults - before)
    report = {
        "rounds": k,
        "mults": backend.mults,
        "adds": backend.adds,
        "per_round_mults": per_round,
    }
    return cur, report


def mm_cost_report(m_list, k: int, backend, probe=None):
    """Measured cost of the k-round evaluation vs the dense baseline."""
    q = m_list[0].rows
    n = len(m_list)
    big_n = q**n
    ctx = m_list[0].ctx
    if probe is None:
        probe = [ctx.coerce(i + 1) for i in range(big_n)]
    _, report = butterflytomm_apply(m_list, k, probe, backend)
    report = dict(report)
    report["dense_mults"] = big_n * big_n
    return report
