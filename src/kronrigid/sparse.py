"""Exact sparse matrices in canonical CSR form, with the Kronecker toolkit.

A matrix stores int64 ``indptr``/``indices`` arrays (columns sorted within
each row) and a ``data`` array: int64 residues for F_p, an object array of
``Fraction`` for Q.  No stored value is zero, so ``nnz`` (the wire-count
metric everything else is built on) is canonical.  All arithmetic is exact:
F_p products go through one overflow-guarded kernel, Q products are summed
by position like any other triplets, and cancellations never leave
explicit zeros.

Kronecker products index rows and columns in numpy's C order (mixed
radix): the left operand occupies the high digits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, ContextMismatch, DimensionMismatch, RationalUnsupported
from .fields import FieldCtx

# Guardrail against accidental q**n explosion.
DIMENSION_CAP = 2**26


class SparseMatrix:
    """Immutable exact sparse matrix over a FieldCtx, stored as CSR arrays."""

    __slots__ = ("rows", "cols", "ctx", "indptr", "indices", "data")

    def __init__(self, rows, cols, ctx, entries):
        """Build from (i, j, value) triplets of raw field values.

        Every triplet must be in bounds, hold a nonzero canonical value (a
        residue in [1, p) for F_p) and name a distinct position.  Triplets
        may come in any order.
        """
        try:
            i, j, v = _triplet_arrays(entries, ctx)
        except OverflowError as exc:
            raise ValueError(f"entry does not fit the matrix: {exc}") from None
        _init_csr(self, rows, cols, ctx, *_csr_from_coo(rows, cols, ctx, i, j, v))

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
        cols = len(dense_rows[0]) if dense_rows else 0
        triplets = [(i, j, v) for i, row in enumerate(dense_rows) for j, v in enumerate(row)]
        return cls.from_triplets(len(dense_rows), cols, ctx, triplets)

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

    def get(self, i, j):
        if 0 <= i < self.rows:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            k = lo + np.searchsorted(self.indices[lo:hi], j)
            if k < hi and self.indices[k] == j:
                return self.data[k : k + 1].tolist()[0]
        return self.ctx.zero_raw()

    def to_array(self) -> np.ndarray:
        """The dense rows x cols array of the values, in the field's dtype."""
        dense = np.full((self.rows, self.cols), self.ctx.zero_raw(), self.ctx.dtype)
        dense[_row_ids(self), self.indices] = self.data
        return dense

    def row_block(self, start: int, stop: int) -> "SparseMatrix":
        """Rows start..stop-1 as a matrix of their own (arrays are shared)."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return SparseMatrix._from_csr(
            stop - start, self.cols, self.ctx, self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi], self.data[lo:hi],
        )

    def to_csr(self):
        """scipy CSR of the residues (prime field only), on the same data
        array; scipy may copy the index arrays to int32."""
        if not self.ctx.is_prime_field:
            raise ValueError("csr export requires a prime field")
        import scipy.sparse  # only the F_p product kernel needs scipy: load it on first use

        return scipy.sparse.csr_matrix(
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

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {self.ctx}, nnz={self.nnz})"


# -- array helpers --------------------------------------------------------


def _init_csr(m, rows, cols, ctx, indptr, indices, data):
    m.rows, m.cols, m.ctx = rows, cols, ctx
    m.indptr, m.indices, m.data = indptr, indices, data


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
    if den == 1:  # integers, the usual case: no products
        return den, np.array([v.numerator for v in values], dtype=object)
    return den, np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)


def _row_ids(m):
    """Row index of every stored entry, in CSR order."""
    return np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.indptr))


def _indptr(rows, row_ids):
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids, minlength=rows), out=indptr[1:])
    return indptr


def _csr_from_coo(rows, cols, ctx, i, j, v):
    """(indptr, indices, data) of triplets in any order; ValueError for an
    entry out of bounds, a zero or non-canonical value, or a repeated
    position.  Each test is a reduction; a mask is built only to name the
    first bad entry."""
    if i.size:
        if min(i.min(), j.min()) < 0 or i.max() >= rows or j.max() >= cols:
            k = np.flatnonzero((i < 0) | (i >= rows) | (j < 0) | (j >= cols))[0]
            raise ValueError(f"entry ({i[k]}, {j[k]}) out of bounds")
        if not v.all():
            k = np.flatnonzero(v == 0)[0]
            raise ValueError(f"explicit zero stored at ({i[k]}, {j[k]})")
        if ctx.is_prime_field and (v.min() < 0 or v.max() >= ctx.modulus):
            k = np.flatnonzero((v < 0) | (v >= ctx.modulus))[0]
            raise ValueError(f"value {v[k]} at ({i[k]}, {j[k]}) is not a residue")
    key = i * cols + j
    if key.size and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        i, j, v, key = i[order], j[order], v[order], key[order]
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
    ctx.reduce(v)
    keep = v != 0
    key, v = key[keep], v[keep]
    i, j = np.divmod(key, cols) if cols else (key, key)
    return SparseMatrix._from_csr(rows, cols, ctx, _indptr(rows, i), j, v)


def _empty(rows, cols, ctx):
    return SparseMatrix._from_csr(
        rows, cols, ctx, np.zeros(rows + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0, ctx.dtype),
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
    data = np.full(k, ctx.one_raw(), ctx.dtype)
    return SparseMatrix._from_csr(k, k, ctx, np.arange(k + 1, dtype=np.int64), idx, data)


def diagonal(values, ctx: FieldCtx) -> SparseMatrix:
    return SparseMatrix.from_triplets(len(values), len(values), ctx, [(i, i, v) for i, v in enumerate(values)])


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
        raise CapExceeded(f"{rows}x{cols} exceeds cap {DIMENSION_CAP}")
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
    a.ctx.reduce(data)
    return SparseMatrix._from_csr(rows, cols, a.ctx, indptr, indices, data)


def kron_power(m: SparseMatrix, n: int) -> SparseMatrix:
    if n < 1:
        raise ValueError("n must be positive")
    return kron_all([m] * n)


def kron_all(mats) -> SparseMatrix:
    """Kronecker product of a non-empty list, folded as a balanced tree:
    kron is associative, so the result is the same as a left fold, with
    far fewer entries in the intermediate products; equal halves are built once."""
    if not mats:
        raise ValueError("kron_all needs at least one matrix")
    if len(mats) == 1:
        return mats[0]
    half = len(mats) // 2
    left = kron_all(mats[:half])
    return kron(left, left if mats[:half] == mats[half:] else kron_all(mats[half:]))


def kron_split(m: SparseMatrix, r: int, c: int):
    """(X, Y) with m == kron(X, Y) and X of shape r x c, or None when m is
    no such product.  This is the exact rank-1 case of Van Loan and
    Pitsianis' rearrangement, over F_p; RationalUnsupported over Q.

    m is cut into r x c blocks of Y's shape.  Every nonempty block must
    hold as many entries as the others (one count per block rejects most
    shapes in O(nnz)), at the inner positions of the first one, with
    values lambda_b times the first one's.  Y is the first nonempty
    block and X holds the lambda_b.
    """
    if not m.ctx.modulus:
        raise RationalUnsupported("kron_split is over F_p")
    if m.rows % r or m.cols % c:
        return None
    h, w, ctx = m.rows // r, m.cols // c, m.ctx
    if not m.nnz:
        return _empty(r, c, ctx), _empty(h, w, ctx)
    bi, ii = np.divmod(_row_ids(m), h)
    bj, jj = np.divmod(m.indices, w)
    block = bi * c + bj
    # one bin per block, unless there are far more blocks than entries
    counts = np.bincount(block) if r * c <= max(m.nnz, 1 << 16) else np.unique(block, return_counts=True)[1]
    counts = counts[counts > 0]
    k = int(counts[0])
    if (counts != k).any():
        return None
    # CSR order keeps each block's entries in inner row-major order
    order = np.argsort(block, kind="stable")
    inner = (ii * w + jj)[order].reshape(-1, k)
    if (inner != inner[0]).any():
        return None
    values = m.data[order].reshape(-1, k)
    first, p = values[0].copy(), ctx.modulus
    lam = values[:, 0] * pow(int(first[0]), -1, p) % p
    if (lam[:, None] * first % p != values).any():
        return None
    blocks = block[order][::k]
    return (
        SparseMatrix._from_csr(r, c, ctx, _indptr(r, blocks // c), blocks % c, lam),
        SparseMatrix._from_csr(h, w, ctx, _indptr(h, inner[0] // w), inner[0] % w, first),
    )


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
    zeros and unsorted column indices.  Each operand is bounded by its
    largest stored entry, so small entries skip the limb split at any p."""
    terms = min(
        int(np.diff(x.indptr).max()) if x.shape[0] else 0,
        int(np.bincount(y.indices).max()) if y.nnz else 0,
    )
    bx, by = (int(z.data.max()) + 1 if z.nnz else 1 for z in (x, y))
    return _mulmod(x, y, p, terms, bx, by)


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    _require_ctx(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.ctx.is_prime_field:
        return _from_scipy(a.rows, b.cols, a.ctx, _csr_mulmod(a.to_csr(), b.to_csr(), a.ctx.modulus))
    # over Q: one product per entry a[i, k] and entry of B's row k, summed by position
    seg_len = np.diff(b.indptr)[a.indices]
    kb = np.repeat(b.indptr[a.indices] - (np.cumsum(seg_len) - seg_len), seg_len)
    kb += np.arange(len(kb), dtype=np.int64)
    return _summed(a.rows, b.cols, a.ctx, np.repeat(_row_ids(a), seg_len), b.indices[kb],
                   np.repeat(a.data, seg_len) * b.data[kb])


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
    data = a.ctx.reduce(a.data * sv)
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
    minus_one = ctx.coerce(-1) if ops else None
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
                    y = ctx.reduce(y * c)
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
            ctx.reduce(o)
        cur = out
        spare, other = other, spare
    return cur.reshape(-1)


def rank(a: SparseMatrix) -> int:
    """Exact rank by Gaussian elimination (modular or over the rationals)."""
    return int(_eliminate(a.to_array()[None], a.ctx)[0])


def _eliminate(a: np.ndarray, ctx: FieldCtx, r=None) -> np.ndarray:
    """Gaussian elimination of each matrix of a (K, rows, cols) array of
    values over ctx, in place; returns the ranks.  Over F_p a pivot is
    scaled by its Fermat inverse, over Q by 1 / x.

    Each matrix keeps its own rank counter k.  Its pivot in a column is
    the first nonzero row at or below row k; it is scaled to a leading 1,
    subtracted from every row and written back at row k, and row k takes
    the pivot's old place.  With no r, every matrix ends in reduced row
    echelon form.  With r, a matrix stops once its rank passes r, so
    its rank reads r + 1 for any true rank above r.  Since p < 2^31,
    every product of two residues is below 2^62.
    """
    count, rows, cols = a.shape
    rank = np.zeros(count, dtype=np.intp)
    below = np.arange(rows)
    for c in range(cols):
        nonzero = (a[:, :, c] != 0) & (below >= rank[:, None])
        live = nonzero.any(axis=1)
        if r is not None:
            live &= rank <= r
        sel = np.flatnonzero(live)
        if not sel.size:
            continue
        k, piv = rank[sel], nonzero[sel].argmax(axis=1)
        x = a if sel.size == count else a[sel]  # no copy when every matrix takes part
        at = np.arange(sel.size)
        prow = x[at, piv]
        x[at, piv] = x[at, k]
        inverse = _inverse(prow[:, c], ctx.modulus) if ctx.modulus else 1 / prow[:, c]
        prow = ctx.reduce(prow * inverse[:, None])
        x -= x[:, :, c, None] * prow[:, None, :]
        ctx.reduce(x)
        x[at, k] = prow
        if x is not a:
            a[sel] = x
        rank[sel] += 1
    return rank


def _inverse(v, p: int):
    """v^(p - 2) mod p entrywise: the inverse of each nonzero residue."""
    out = np.ones_like(v)
    e = p - 2
    while e:
        if e & 1:
            out = out * v % p
        v = v * v % p
        e >>= 1
    return out


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
        raise CapExceeded(f"size {max(dims)} exceeds cap {DIMENSION_CAP}")


def capped_power(q: int, n: int, what: str) -> int:
    """q^n, the count of `what`, or CapExceeded when it passes
    DIMENSION_CAP.  n is cut at the cap's bit length first (q >= 2 makes
    q^n >= 2^n), so a huge n costs nothing."""
    size = q ** min(n, DIMENSION_CAP.bit_length())
    if size > DIMENSION_CAP:
        raise CapExceeded(f"{q}^{n} {what} exceed the cap {DIMENSION_CAP}")
    return size


def _numbers(text: str, ctx: FieldCtx, width: int, count=None) -> list:
    """The numbers of text as rows of width, returned as width - 1 int64
    index columns and a data column over ctx.  Values are integers or
    "num/den".  ValueError unless the numbers fill whole rows (count rows,
    when given), every index fits int64 and no denominator is zero."""
    try:
        # (a blank text would read as [0])
        table = np.zeros(0, np.int64) if text.isspace() else np.fromstring(text, np.int64, sep=" ")
        info = np.iinfo(np.int64)
        if ((table == info.max) | (table == info.min)).any():  # saturated
            raise ValueError
    except ValueError:  # "num/den", or junk that int() rejects
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
    return [*index, np.array(values, ctx.dtype)]


def _entries(text: str, rows: int, cols: int, ctx: FieldCtx, nnz=None) -> SparseMatrix:
    """The rows x cols matrix of "i j value" triplets (nnz of them, when
    given); ValueError unless all are in bounds, nonzero and distinct."""
    _check_dims(rows, cols)
    i, j, v = _numbers(text, ctx, 3, nnz)
    return SparseMatrix._from_csr(rows, cols, ctx, *_csr_from_coo(rows, cols, ctx, i, j, v))


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
    """Lines of the (non-empty) columns' values joined by spaces, each as str() writes it;
    the bytes of an S column are taken as they are."""
    columns = [np.array([str(v) for v in c.tolist()], "S")
               if c.dtype == object or c.dtype.kind != "S" and c.min() < 0 else c
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


def _format_entries(m: SparseMatrix, row0: int = 0):
    """m's "i j value" lines as bytes, a block of at most 2^14 entries and rows at a time;
    row0 is added to every row index."""
    lo = 0
    while lo < m.nnz:
        first = int(np.searchsorted(m.indptr, lo, side="right")) - 1
        stop = min(first + (1 << 14), m.rows)
        hi = min(lo + (1 << 14), int(m.indptr[stop]))
        rows = np.repeat(np.arange(first, stop) + row0, np.diff(np.clip(m.indptr[first : stop + 1], lo, hi)))
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
