"""Exact sparse matrices in canonical CSR form, with the Kronecker toolkit.

A matrix stores int64 ``indptr``/``indices`` arrays (columns sorted within
each row) and a ``data`` array: int64 residues for F_p, an object array of
``Fraction`` for Q.  No stored value is zero, so ``nnz`` (the wire-count
metric everything else is built on) is canonical.  All arithmetic is exact:
F_p products go through one overflow-guarded kernel, Q products through a
short row loop, and cancellations never leave explicit zeros.

Row/column index layout for Kronecker products follows ``IndexCodec``: the
left operand occupies the high digits.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as _sp

from .errors import ContextMismatch, DimensionCapExceeded, DimensionMismatch
from .fields import FieldCtx

# Guardrail against accidental q**n explosion.
DIMENSION_CAP = 2**26


@dataclass(frozen=True)
class IndexCodec:
    """Mixed-radix index layout: x in [q]_0^n maps to sum x[i] * q^(n-1-i).

    Slot 0 (the leftmost Kronecker operand) is the most significant digit.
    """

    q: int
    n: int

    def encode(self, digits) -> int:
        if len(digits) != self.n:
            raise ValueError(f"expected {self.n} digits")
        idx = 0
        for d in digits:
            if not 0 <= d < self.q:
                raise ValueError(f"digit {d} out of range for base {self.q}")
            idx = idx * self.q + d
        return idx

    def decode(self, index: int):
        digits = [0] * self.n
        for slot in range(self.n - 1, -1, -1):
            index, digits[slot] = divmod(index, self.q)
        if index:
            raise ValueError("index out of range")
        return tuple(digits)


class SparseMatrix:
    """Immutable exact sparse matrix over a FieldCtx, stored as CSR arrays."""

    __slots__ = ("rows", "cols", "ctx", "indptr", "indices", "data", "_entries")

    def __init__(self, rows, cols, ctx, entries, _checked=False):
        """Build from (i, j, value) triplets of raw field values.

        Unless _checked, every triplet must be in bounds, hold a nonzero
        canonical value (a residue in [1, p) for F_p) and name a distinct
        position.  Triplets may come in any order.
        """
        try:
            i, j, v = _triplet_arrays(entries, ctx)
        except OverflowError as exc:
            raise ValueError(f"entry does not fit the matrix: {exc}") from None
        _init_csr(self, rows, cols, ctx, *_csr_from_coo(rows, cols, ctx, i, j, v, not _checked))

    @classmethod
    def _from_csr(cls, rows, cols, ctx, indptr, indices, data):
        """Wrap arrays that are already canonical CSR; nothing is checked."""
        m = cls.__new__(cls)
        _init_csr(m, rows, cols, ctx, indptr, indices, data)
        return m

    @classmethod
    def from_triplets(cls, rows, cols, ctx, triplets):
        """Build from possibly unsorted/duplicated triplets; duplicates sum."""
        triplets = [(i, j, ctx.coerce(v)) for i, j, v in triplets]
        return _summed(rows, cols, ctx, *_triplet_arrays(triplets, ctx))

    @classmethod
    def from_dense(cls, dense_rows, ctx):
        entries = []
        cols = len(dense_rows[0]) if dense_rows else 0
        for i, row in enumerate(dense_rows):
            for j, v in enumerate(row):
                cv = ctx.coerce(v)
                if cv:
                    entries.append((i, j, cv))
        return cls(len(dense_rows), cols, ctx, entries, _checked=True)

    # -- basic queries ----------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def nnz_r(self) -> int:
        return int(np.diff(self.indptr).max()) if self.rows else 0

    @property
    def nnz_c(self) -> int:
        return int(np.bincount(self.indices).max()) if self.nnz else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def entries(self):
        """(i, j, value) triplets in row-major order, built on first use."""
        if self._entries is None:
            self._entries = tuple(
                zip(_row_ids(self).tolist(), self.indices.tolist(), self.data.tolist())
            )
        return self._entries

    def get(self, i, j):
        if 0 <= i < self.rows:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            k = lo + np.searchsorted(self.indices[lo:hi], j)
            if k < hi and self.indices[k] == j:
                return self.data[k : k + 1].tolist()[0]
        return self.ctx.zero_raw()

    def to_dense(self):
        zero = self.ctx.zero_raw()
        dense = [[zero] * self.cols for _ in range(self.rows)]
        for i, j, v in zip(_row_ids(self).tolist(), self.indices.tolist(), self.data.tolist()):
            dense[i][j] = v
        return dense

    def row_block(self, start: int, stop: int) -> "SparseMatrix":
        """Rows start..stop-1 as a matrix of their own (arrays are shared)."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return SparseMatrix._from_csr(
            stop - start, self.cols, self.ctx, self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi], self.data[lo:hi],
        )

    def to_csr(self):
        """scipy CSR of the residues (prime field only), on the same arrays."""
        if not self.ctx.is_prime_field:
            raise ValueError("csr export requires a prime field")
        return _sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.rows, self.cols)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.ctx == other.ctx
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.ctx, self.indices.tobytes(),
                     self.indptr.tobytes(), tuple(self.data.tolist())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {self.ctx}, nnz={self.nnz})"


# -- array helpers --------------------------------------------------------


def _init_csr(m, rows, cols, ctx, indptr, indices, data):
    m.rows, m.cols, m.ctx = rows, cols, ctx
    m.indptr, m.indices, m.data = indptr, indices, data
    m._entries = None


def _value_array(values, ctx):
    """Raw field values as the data array of a matrix over ctx."""
    if ctx.is_prime_field:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def _triplet_arrays(entries, ctx):
    """Index and value arrays of a sequence of (i, j, value) triplets."""
    entries = list(entries)
    if ctx.is_prime_field:
        flat = itertools.chain.from_iterable(entries)
        table = np.fromiter(flat, dtype=np.int64, count=3 * len(entries)).reshape(-1, 3)
    else:
        table = np.array(entries, dtype=object).reshape(-1, 3)
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2].copy()


def _numerators(values):
    """(den, nums): rationals as an object array of integers nums over
    den, the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return den, np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)


def _row_ids(m):
    """Row index of every stored entry, in CSR order."""
    return np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.indptr))


def _indptr(rows, row_ids):
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids, minlength=rows), out=indptr[1:])
    return indptr


def _csr_from_coo(rows, cols, ctx, i, j, v, check):
    """(indptr, indices, data) of triplets; with check, reject entries out
    of bounds, non-canonical or zero values, and repeated positions."""
    if check and i.size:
        bad = (i < 0) | (i >= rows) | (j < 0) | (j >= cols)
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise ValueError(f"entry ({i[k]}, {j[k]}) out of bounds")
        bad = v == 0
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise ValueError(f"explicit zero stored at ({i[k]}, {j[k]})")
        if ctx.is_prime_field:
            bad = (v < 0) | (v >= ctx.modulus)
            if bad.any():
                k = np.flatnonzero(bad)[0]
                raise ValueError(f"value {v[k]} at ({i[k]}, {j[k]}) is not a residue")
    key = i * cols + j
    if key.size and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        i, j, v, key = i[order], j[order], v[order], key[order]
        if check:
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                k = dup[0]
                raise ValueError(f"duplicate entry at ({i[k]}, {j[k]})")
    return _indptr(rows, i), j, v


def _summed(rows, cols, ctx, i, j, v):
    """Matrix of triplets whose repeated positions are summed; zero sums
    are dropped."""
    key = i * cols + j
    order = np.argsort(key, kind="stable")
    key, v = key[order], v[order]
    if key.size:
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        key, v = key[starts], np.add.reduceat(v, starts)
    if ctx.is_prime_field:
        v %= ctx.modulus
    keep = v != 0
    key, v = key[keep], v[keep]
    i, j = np.divmod(key, cols) if cols else (key, key)
    return SparseMatrix._from_csr(rows, cols, ctx, _indptr(rows, i), j, v)


def _empty(rows, cols, ctx):
    return SparseMatrix._from_csr(
        rows, cols, ctx, np.zeros(rows + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int64), _value_array((), ctx),
    )


def _from_scipy(rows, cols, ctx, c):
    """Matrix of a scipy CSR of residues; explicit zeros are dropped."""
    c.eliminate_zeros()
    c.sort_indices()
    return SparseMatrix._from_csr(
        rows, cols, ctx, c.indptr.astype(np.int64, copy=False),
        c.indices.astype(np.int64, copy=False), c.data.astype(np.int64, copy=False),
    )


def _require_ctx(a: SparseMatrix, b: SparseMatrix):
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")


def identity(k: int, ctx: FieldCtx) -> SparseMatrix:
    idx = np.arange(k, dtype=np.int64)
    data = _value_array([ctx.one_raw()] * k, ctx)
    return SparseMatrix._from_csr(k, k, ctx, np.arange(k + 1, dtype=np.int64), idx, data)


def diagonal(values, ctx: FieldCtx) -> SparseMatrix:
    k = len(values)
    entries = []
    for i, v in enumerate(values):
        cv = ctx.coerce(v)
        if cv:
            entries.append((i, i, cv))
    return SparseMatrix(k, k, ctx, entries, _checked=True)


def transpose(a: SparseMatrix) -> SparseMatrix:
    order = np.argsort(a.indices, kind="stable")
    return SparseMatrix._from_csr(
        a.cols, a.rows, a.ctx, _indptr(a.cols, a.indices),
        _row_ids(a)[order], a.data[order],
    )


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product; left operand occupies the high index digits."""
    _require_ctx(a, b)
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    if rows > DIMENSION_CAP or cols > DIMENSION_CAP:
        raise DimensionCapExceeded(f"{rows}x{cols} exceeds cap {DIMENSION_CAP}")
    na, nb = np.diff(a.indptr), np.diff(b.indptr)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.outer(na, nb).ravel(), out=indptr[1:])
    # Output row r = ia * b.rows + ib is a run of segments, one per entry ka
    # of A's row ia in column order: B's row ib, its columns shifted by
    # a.indices[ka] * b.cols and its values scaled by a.data[ka].
    segs = np.repeat(na, b.rows)  # segments per output row
    seg_row = np.repeat(np.arange(rows, dtype=np.int64), segs)
    ia, ib = np.divmod(seg_row, b.rows)
    ka = np.arange(len(seg_row), dtype=np.int64)
    ka += a.indptr[ia] - (np.cumsum(segs) - segs)[seg_row]
    seg_len = nb[ib]
    kb = np.repeat(b.indptr[ib] - (np.cumsum(seg_len) - seg_len), seg_len)
    kb += np.arange(len(kb), dtype=np.int64)
    indices = np.repeat(a.indices[ka] * b.cols, seg_len)
    indices += b.indices[kb]
    data = np.repeat(a.data[ka], seg_len)
    data *= b.data[kb]
    if a.ctx.is_prime_field:
        data %= a.ctx.modulus
    return SparseMatrix._from_csr(rows, cols, a.ctx, indptr, indices, data)


def kron_power(m: SparseMatrix, n: int) -> SparseMatrix:
    if n < 1:
        raise ValueError("n must be positive")
    return kron_all([m] * n)


def kron_all(mats) -> SparseMatrix:
    """Kronecker product of a non-empty list, folded as a balanced tree:
    kron is associative, so the result is the same as a left fold, with
    far fewer entries in the intermediate products; equal halves are built once."""
    if len(mats) == 1:
        return mats[0]
    half = len(mats) // 2
    left = kron_all(mats[:half])
    return kron(left, left if mats[:half] == mats[half:] else kron_all(mats[half:]))


def _mulmod(x, y, p: int, terms: int, bx: int, by: int):
    """x @ y mod p for scipy int64 CSRs, exactly.

    Entries of x are below bx, entries of y below by, and no output entry
    sums more than `terms` products.  While such a sum could pass 2^63, the
    operand with the larger entries is split into 16-bit limbs and the
    limb products are recombined mod p.  That ends for any terms < 2^31; no
    row that long fits in memory.
    """
    if (bx - 1) * (by - 1) * terms < 2**63:
        z = x @ y
        z.data %= p
        return z
    lo, hi = (y.copy(), y.copy()) if by >= bx else (x.copy(), x.copy())
    lo.data &= 0xFFFF
    hi.data >>= 16
    if by >= bx:
        z_lo = _mulmod(x, lo, p, terms, bx, 1 << 16)
        z_hi = _mulmod(x, hi, p, terms, bx, ((by - 1) >> 16) + 1)
    else:
        z_lo = _mulmod(lo, y, p, terms, 1 << 16, by)
        z_hi = _mulmod(hi, y, p, terms, ((bx - 1) >> 16) + 1, by)
    z = z_lo + z_hi * (1 << 16)  # both below p < 2^31: no overflow
    z.data %= p
    return z


def _csr_mulmod(x, y, p: int):
    """x @ y mod p for scipy CSRs of residues; the result may hold explicit
    zeros and unsorted column indices."""
    terms = min(
        int(np.diff(x.indptr).max()) if x.shape[0] else 0,
        int(np.bincount(y.indices).max()) if y.nnz else 0,
    )
    return _mulmod(x, y, p, terms, p, p)


def _matmul_rows(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Row-by-row product with the field's own arithmetic (used for Q)."""
    ctx = a.ctx
    add = ctx.add_raw
    mul = ctx.mul_raw
    a_ptr, a_idx, a_val = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    b_ptr, b_idx, b_val = b.indptr.tolist(), b.indices.tolist(), b.data.tolist()
    ii, jj, vv = [], [], []
    for i in range(a.rows):
        acc = {}
        for k in range(a_ptr[i], a_ptr[i + 1]):
            k_col, va = a_idx[k], a_val[k]
            for kb in range(b_ptr[k_col], b_ptr[k_col + 1]):
                j = b_idx[kb]
                prod = mul(va, b_val[kb])
                acc[j] = add(acc[j], prod) if j in acc else prod
        for j in sorted(acc):
            if acc[j]:
                ii.append(i)
                jj.append(j)
                vv.append(acc[j])
    return SparseMatrix._from_csr(
        a.rows, b.cols, ctx, _indptr(a.rows, np.array(ii, dtype=np.int64)),
        np.array(jj, dtype=np.int64), _value_array(vv, ctx),
    )


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    _require_ctx(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if not a.ctx.is_prime_field:
        return _matmul_rows(a, b)
    return _from_scipy(a.rows, b.cols, a.ctx, _csr_mulmod(a.to_csr(), b.to_csr(), a.ctx.modulus))


def add_mat(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    _require_ctx(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("shape mismatch in addition")
    return _summed(
        a.rows, a.cols, a.ctx,
        np.concatenate((_row_ids(a), _row_ids(b))),
        np.concatenate((a.indices, b.indices)),
        np.concatenate((a.data, b.data)),
    )


def sub_mat(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    return add_mat(a, scale(b, -1))


def scale(a: SparseMatrix, s) -> SparseMatrix:
    sv = a.ctx.coerce(s)
    if not sv:
        return _empty(a.rows, a.cols, a.ctx)
    data = a.data * sv
    if a.ctx.is_prime_field:
        data %= a.ctx.modulus
    return SparseMatrix._from_csr(a.rows, a.cols, a.ctx, a.indptr, a.indices, data)


def concat_h(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """(A | B): horizontal concatenation."""
    _require_ctx(a, b)
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ in concat_h")
    # Row i holds A's row i, then B's row i shifted right by a.cols.
    pos_a = np.arange(a.nnz, dtype=np.int64) + b.indptr[_row_ids(a)]
    pos_b = np.arange(b.nnz, dtype=np.int64) + a.indptr[_row_ids(b) + 1]
    indices = np.empty(a.nnz + b.nnz, dtype=np.int64)
    indices[pos_a] = a.indices
    indices[pos_b] = b.indices + a.cols
    data = np.empty(a.nnz + b.nnz, dtype=a.data.dtype)
    data[pos_a] = a.data
    data[pos_b] = b.data
    return SparseMatrix._from_csr(
        a.rows, a.cols + b.cols, a.ctx, a.indptr + b.indptr, indices, data
    )


def stack_v(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """(A / B): vertical stacking."""
    _require_ctx(a, b)
    if a.cols != b.cols:
        raise DimensionMismatch("column counts differ in stack_v")
    return SparseMatrix._from_csr(
        a.rows + b.rows, a.cols, a.ctx,
        np.concatenate((a.indptr, b.indptr[1:] + a.nnz)),
        np.concatenate((a.indices, b.indices)),
        np.concatenate((a.data, b.data)),
    )


def apply(a: SparseMatrix, x) -> list:
    """A times x for a raw-value vector x of length a.cols."""
    if len(x) != a.cols:
        raise DimensionMismatch(f"vector length {len(x)} != {a.cols}")
    ctx = a.ctx
    values = (ctx.coerce(v) for v in x)
    column = SparseMatrix(
        a.cols, 1, ctx, [(k, 0, v) for k, v in enumerate(values) if v], _checked=True
    )
    y = matmul(a, column)
    out = [ctx.zero_raw()] * a.rows
    for i, v in zip(_row_ids(y).tolist(), y.data.tolist()):
        out[i] = v
    return out


def kron_apply(ops, u: np.ndarray) -> np.ndarray:
    """(ops[0] kron ... kron ops[-1]) times the vector u, one operand per
    pass from the last one (the low digits), as in Yates' method: pass i
    views the vector as (lead, ops[i].cols, tail) and combines its middle
    slices by the rows of ops[i].  No Kronecker product is built.

    Over F_p, u holds int64 residues.  A coefficient 1 adds a slice, -1
    (p - 1) subtracts it, and any other one multiplies it and is reduced
    mod p, so a row of t terms sums below t * p < 2^63; the row is then
    reduced.  Over Q, u is an object array, or an integer array whose sums
    the caller knows fit its dtype when every coefficient is 1 or -1.
    Two buffers alternate between passes; u is one of them when it is as
    long as the largest stage, so it is consumed.
    """
    ctx = ops[0].ctx if ops else None
    p = ctx.modulus if ctx else 0
    minus_one = p - 1 if p else -1
    u = np.ascontiguousarray(u).reshape(-1)
    # stage k holds the rows of ops[k:] and the columns of ops[:k]
    stages = [math.prod(op.cols for op in ops[:k]) * math.prod(op.rows for op in ops[k:])
              for k in range(len(ops) + 1)]
    if u.size != stages[-1]:
        raise DimensionMismatch(f"vector length {u.size} != {stages[-1]}")
    big = max(stages)
    spare, other = np.empty(big, u.dtype), u if u.size == big else np.empty(big, u.dtype)
    cur = u
    for k in range(len(ops) - 1, -1, -1):
        op = ops[k]
        lead = math.prod(o.cols for o in ops[:k])
        x = cur.reshape(lead, op.cols, -1)
        out = spare[: stages[k]].reshape(lead, op.rows, -1)
        ptr, idx, data = op.indptr.tolist(), op.indices.tolist(), op.data.tolist()
        for a in range(op.rows):
            o = out[:, a]
            parts = []  # (added, slice)
            for b, c in zip(idx[ptr[a] : ptr[a + 1]], data[ptr[a] : ptr[a + 1]]):
                y = x[:, b]
                if c != 1 and c != minus_one:
                    y = y * c
                    if p:
                        y %= p
                parts.append((c != minus_one, y))
            if not parts:
                o[...] = ctx.zero_raw()
                continue
            parts.sort(key=lambda part: not part[0])  # an added slice first
            added, y = parts[0]
            if len(parts) == 1 and added:  # a copy of a residue
                np.copyto(o, y)
                continue
            if not added:
                y = np.negative(y, out=o)
            for added, z in parts[1:]:
                y = (np.add if added else np.subtract)(y, z, out=o)
            if p:
                np.remainder(o, p, out=o)
        cur = out
        spare, other = other, spare
    return cur.reshape(-1)


def rank(a: SparseMatrix) -> int:
    """Exact rank by Gaussian elimination (modular or over the rationals)."""
    return len(_eliminate(a.to_dense(), a.ctx))


def _eliminate(rows, ctx: FieldCtx, stop_above=None) -> list:
    """Reduce dense rows of raw values to reduced row echelon form, in
    place, and return the pivot columns; the first len(pivots) rows are
    then the nonzero RREF rows.

    With stop_above=r, return as soon as pivot r + 1 is found (the rows
    are then only partly reduced), so len(pivots) <= r iff rank <= r.
    """
    p = ctx.modulus

    def minus(row, f, prow):  # row - f * prow, entrywise
        if p:
            return [(v - f * w) % p for v, w in zip(row, prow)]
        return [v - f * w for v, w in zip(row, prow)]

    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        for piv in range(k, len(rows)):
            if rows[piv][c]:
                break
        else:
            continue
        pivots.append(c)
        if stop_above is not None and k >= stop_above:
            return pivots
        prow, rows[piv] = rows[piv], rows[k]
        inv = ctx.inv_raw(prow[c])
        if inv != 1:  # v - (1 - inv) v = inv v: scale to a leading 1
            prow = minus(prow, ctx.sub_raw(1, inv), prow)
        rows[k] = prow
        for i, row in enumerate(rows):
            if i != k and row[c]:
                rows[i] = minus(row, row[c], prow)
    return pivots


# -- text formats -------------------------------------------------------
#
# Every artifact file is a header line (an optional tag, then integers)
# and blocks of whitespace-separated numbers.  A matrix is the header
# "rows cols field" (p for F_p, 0 for Q) and one "i j value" line per
# nonzero, values as integers or "num/den".  The four readers are made of
# the same parts (_header, _blocks, _numbers), and one writer, _text_lines,
# makes the lines of numbers of all four.


def _header(text: str, tag, count: int):
    """The count integers on text's first line, after tag unless tag is
    None, and the text after that line; ValueError for anything else."""
    line, _, rest = text.partition("\n")
    fields = line.split()
    if tag is not None and fields[:1] != [tag]:
        raise ValueError(f"not a {tag} file: the header is {line.strip()!r}")
    numbers = fields if tag is None else fields[1:]
    if len(numbers) != count or not all(x.lstrip("-").isdigit() for x in numbers):
        raise ValueError(f"malformed header {line.strip()!r}: expected {count} integers")
    return [int(x) for x in numbers], rest


def _blocks(text: str, marker: str) -> list:
    """text cut at the lines that begin with the word marker: the text
    before the first, then the rest of each such line with the lines up
    to the next one."""
    pieces = text.split("\n" + marker)
    if any(piece and not piece[0].isspace() for piece in pieces[1:]):
        raise ValueError(f"malformed {marker!r} line")
    return pieces


def _check_dims(*dims) -> None:
    """Sizes a file declares, checked before anything that large is built."""
    if min(dims) < 0:
        raise ValueError(f"negative size in {dims}")
    if max(dims) > DIMENSION_CAP:
        raise DimensionCapExceeded(f"size {max(dims)} exceeds cap {DIMENSION_CAP}")


def _numbers(text: str, ctx: FieldCtx, width: int, count=None) -> list:
    """The numbers of text as rows of width, returned as width - 1 int64
    index columns and a data column over ctx.  Values are integers or
    "num/den".  ValueError unless the numbers fill whole rows (count rows,
    when given), every index fits int64 and no denominator is zero."""
    try:
        with warnings.catch_warnings():
            # numpy before 2.3 only warned on data such as "1/2", and
            # returned the numbers read so far
            warnings.simplefilter("error", DeprecationWarning)
            # (a blank text would read as [0])
            table = np.zeros(0, np.int64) if text.isspace() else np.fromstring(text, np.int64, sep=" ")
        info = np.iinfo(np.int64)
        if ((table == info.max) | (table == info.min)).any():  # saturated
            raise ValueError
    except (ValueError, DeprecationWarning):  # "num/den", or junk that int() rejects
        table = np.array(text.split(), dtype=object)
    if table.size % width or (count is not None and table.size != width * count):
        rows = "whole rows" if count is None else f"{count} rows"
        raise ValueError(f"expected {rows} of {width} numbers, found {table.size} numbers")
    table = table.reshape(-1, width)
    if table.dtype != object:
        last = table[:, -1]
        values = last % ctx.modulus if ctx.is_prime_field else [Fraction(x) for x in last.tolist()]
    else:
        values = []
        for token in table[:, -1]:
            num, slash, den = token.partition("/")
            if slash and not int(den):
                raise ValueError(f"zero denominator in {token!r}")
            values.append(ctx.coerce(Fraction(int(num), int(den)) if slash else int(token)))
    try:
        index = [np.array(table[:, k], dtype=np.int64) for k in range(width - 1)]
    except OverflowError:
        raise ValueError("index out of range") from None
    return [*index, _value_array(values, ctx)]


def _entries(text: str, rows: int, cols: int, ctx: FieldCtx, nnz=None) -> SparseMatrix:
    """The rows x cols matrix of "i j value" triplets (nnz of them, when
    given); ValueError unless all are in bounds, nonzero and distinct."""
    _check_dims(rows, cols)
    i, j, v = _numbers(text, ctx, 3, nnz)
    return SparseMatrix._from_csr(rows, cols, ctx, *_csr_from_coo(rows, cols, ctx, i, j, v, True))


def _digit_table(width: int) -> np.ndarray:
    """ASCII digits of k < 10**width: row k with NUL for leading zeros (0
    keeps one digit), row 10**width + k zero-padded."""
    text = np.indices((10,) * width, np.uint8).reshape(width, -1).T + np.uint8(ord("0"))
    k, place = np.arange(10**width)[:, None], 10 ** np.arange(width - 1, -1, -1)
    return np.vstack([text * ((k >= place) | (place == 1)), text])


# A number's 4-byte words: _LOW its last three digits and a NUL, _HIGH four above.
_LOW = np.hstack([_digit_table(3), np.zeros((2000, 1), np.uint8)]).view(np.uint32).ravel()
_HIGH = _digit_table(4).view(np.uint32).ravel()
_HIGH[0] = 0  # no digits above


def _text_lines(*columns: np.ndarray) -> bytes:
    """Lines of the (non-empty) columns' values joined by spaces, each as str() writes it."""
    columns = [np.array([str(v) for v in c.tolist()], "S") if c.dtype == object or c.min() < 0 else c
               for c in columns]
    widths = [(c.itemsize if c.dtype.kind == "S" else len(str(c.max()))) // 4 + 1 for c in columns]
    words = np.empty((columns[0].size, sum(widths)), np.uint32)
    for column, end, width in zip(columns, np.cumsum(widths), widths):
        if column.dtype.kind == "S":  # the last byte of each row stays NUL
            words[:, end - width : end] = column.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width)
            continue
        above = column // 1000
        words[:, end - 1] = _LOW[np.minimum(column, column - 1000 * above + 1000)]
        for j in range(end - 2, end - width - 1, -1):
            words[:, j] = _HIGH[np.minimum(above, above % 10**4 + 10**4)]
            above //= 10**4
    text = words.view(np.uint8)
    text[:, 4 * np.cumsum(widths) - 1] = list(b" " * (len(widths) - 1) + b"\n")
    return text.tobytes().translate(None, b"\0")


def _format_entries(m: SparseMatrix):
    """m's "i j value" lines as bytes, a block of at most 2^14 entries and rows at a time."""
    lo = 0
    while lo < m.nnz:
        first = int(np.searchsorted(m.indptr, lo, side="right")) - 1
        stop = min(first + (1 << 14), m.rows)
        hi = min(lo + (1 << 14), int(m.indptr[stop]))
        rows = np.repeat(np.arange(first, stop), np.diff(np.clip(m.indptr[first : stop + 1], lo, hi)))
        yield _text_lines(rows, m.indices[lo:hi], m.data[lo:hi])
        lo = hi


def dump_matrix(m: SparseMatrix) -> str:
    return f"{m.rows} {m.cols} {m.ctx.modulus}\n" + b"".join(_format_entries(m)).decode()


def parse_matrix(text: str) -> SparseMatrix:
    (rows, cols, field), body = _header(text.lstrip(), None, 3)
    return _entries(body, rows, cols, FieldCtx(field))


def save_matrix(m: SparseMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_matrix(m))


def load_matrix(path) -> SparseMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read())
