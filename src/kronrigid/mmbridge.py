"""Evaluating Kronecker-product transforms through batched matrix
multiplication, with exact operation accounting.

Applying M kron I_N to a vector is one q x q times q x N matrix product
after a reshape; grouping n factors into k blocks turns the whole
transform into k such rounds against q^(n(k-1)/k) columns.  Two exact
backends are provided: a naive cubic multiply (counter = m*n*p exactly)
and a Strassen-style recursion with power-of-two padding and a cutover
threshold.  Both take and return 2-D numpy object arrays of raw field
values (Python ints or Fractions), so every product is exact; over F_p
results are reduced mod p.
"""

from __future__ import annotations

import numpy as np

from . import sparse
from .errors import DimensionMismatch
from .sparse import SparseMatrix


class NaiveBackend:
    """Schoolbook multiply; mults = m*n*p, adds = m*(n-1)*p."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.mults = 0
        self.adds = 0

    def multiply(self, a, b, ctx):
        """a times b for object arrays; counts every scalar op performed."""
        (m, n), p = a.shape, b.shape[1]
        self.mults += m * n * p
        self.adds += m * max(n - 1, 0) * p
        return ctx.reduce(a.dot(b))


class StrassenBackend(NaiveBackend):
    """Strassen recursion on power-of-two squares, padding as needed.

    Below the cutover threshold the multiply is the schoolbook one.  At
    threshold 1 a 2^a square product uses exactly 7^a multiplications.
    """

    def __init__(self, threshold: int = 32):
        super().__init__()
        self.threshold = threshold

    def multiply(self, a, b, ctx):
        (m, n), p = a.shape, b.shape[1]
        size = 1
        while size < max(m, n, p):
            size *= 2
        ap = np.full((size, size), ctx.zero_raw(), dtype=object)
        bp = ap.copy()
        ap[:m, :n] = a
        bp[:n, :p] = b
        return ctx.reduce(self._rec(ap, bp, ctx)[:m, :p])

    def _rec(self, a, b, ctx):
        """Product of two size x size squares.  Quadrant sums are not
        reduced mod p (Python ints stay exact, and `multiply` reduces the
        result), so each of a level's 18 additions is one array operation."""
        size = len(a)
        if size <= self.threshold or size == 1:
            return super().multiply(a, b, ctx)
        h = size // 2
        self.adds += 18 * h * h
        a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
        b11, b12, b21, b22 = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
        m1 = self._rec(a11 + a22, b11 + b22, ctx)
        m2 = self._rec(a21 + a22, b11, ctx)
        m3 = self._rec(a11, b12 - b22, ctx)
        m4 = self._rec(a22, b21 - b11, ctx)
        m5 = self._rec(a11 + a12, b22, ctx)
        m6 = self._rec(a21 - a11, b11 + b12, ctx)
        m7 = self._rec(a12 - a22, b21 + b22, ctx)
        return np.block([[m1 + m4 - m5 + m7, m3 + m5], [m2 + m4, m1 + m3 - m2 + m6]])


def kron_identity_apply(m: SparseMatrix, copies: int, v, backend):
    """apply(M kron I_copies, v) as one matrix product after reshaping:
    row b of the right operand is v[b*copies : (b+1)*copies]."""
    if len(v) != m.cols * copies:
        raise DimensionMismatch(f"expected {m.cols * copies} values, got {len(v)}")
    backend.reset()
    b = np.array(v, dtype=object).reshape(m.cols, copies)
    return backend.multiply(m.to_array().astype(object), b, m.ctx).reshape(-1).tolist()


def butterflytomm_apply(m_list, k: int, v, backend):
    """Apply the Kronecker product of n square matrices in k MM rounds.

    The factors are grouped into k consecutive blocks; round l views the
    vector as (q^(g*l), q^g, rest) and multiplies block l into each of
    its leading slices, against q^(n(k-1)/k) columns in total.  Returns
    (result, report).
    """
    n = len(m_list)
    if n == 0 or n % k != 0:
        raise DimensionMismatch(f"{k} rounds do not divide {n} factors")
    q = m_list[0].rows
    ctx = m_list[0].ctx
    g = n // k
    if len(v) != q**n:
        raise DimensionMismatch(f"expected {q ** n} values, got {len(v)}")
    backend.reset()
    cur = np.array(v, dtype=object)
    per_round = []
    for ell in range(k):
        block = sparse.kron_all(m_list[ell * g : (ell + 1) * g]).to_array().astype(object)
        x = cur.reshape(q ** (g * ell), q**g, -1)
        before = backend.mults
        cur = np.stack([backend.multiply(block, piece, ctx) for piece in x])
        per_round.append(backend.mults - before)
    report = {
        "rounds": k,
        "mults": backend.mults,
        "adds": backend.adds,
        "per_round_mults": per_round,
    }
    return cur.reshape(-1).tolist(), report


def mm_cost_report(m_list, k: int, backend):
    """Measured cost of the k-round evaluation vs the dense baseline, on
    the probe vector (1, 2, ..., q^n)."""
    q = m_list[0].rows
    n = len(m_list)
    big_n = q**n
    ctx = m_list[0].ctx
    probe = [ctx.coerce(i + 1) for i in range(big_n)]
    _, report = butterflytomm_apply(m_list, k, probe, backend)
    report = dict(report)
    report["dense_mults"] = big_n * big_n
    return report
