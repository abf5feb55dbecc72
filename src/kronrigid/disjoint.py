"""The disjointness transform R_n and its two sparsity routes.

R_n is the 2^n x 2^n 0/1 matrix with a 1 exactly where the two index
strings have disjoint supports (nnz = 3^n).  This module provides its
generation, the dense row/column removal argument (low rank + sparse
residual), the recursive all-ones partition into squares and 2:1
rectangles with its induced two-factorization, and the entropy/binomial
calculators the parameter analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import scipy.sparse as _sp

from . import circuits, sparse
from .errors import CapExceeded
from .fields import RATIONALS, FieldCtx
from .rigidity import RigidityDecomposition
from .sparse import SparseMatrix

MATERIALIZE_CAP = 26  # 2^n dimension guard
LIST_CAP = 14  # coordinate-list materialization guard


def _rn(n: int, ctx: FieldCtx) -> SparseMatrix:
    """R_n = R_1^{kron n}; R_0 is the 1x1 matrix [1]."""
    if n > MATERIALIZE_CAP:
        raise CapExceeded(f"n = {n} exceeds the cap {MATERIALIZE_CAP}")
    if n == 0:
        return sparse.identity(1, ctx)
    return sparse.kron_power(SparseMatrix.from_dense([[1, 1], [1, 0]], ctx), n)


def disjointness_matrix(n: int, ctx: FieldCtx) -> SparseMatrix:
    """R_n over ctx; entries 1 where x AND y = 0."""
    if LIST_CAP < n <= MATERIALIZE_CAP:
        raise CapExceeded(
            f"n = {n} too large for coordinate lists; use disjointness_csr"
        )
    return _rn(n, ctx)


def disjointness_csr(n: int) -> _sp.csr_matrix:
    """R_n as a scipy CSR over the integers (for large-n verification)."""
    # the 0/1 entries are the same residues in every prime field
    return _rn(n, FieldCtx(3)).to_csr()


def _popcount_table(n: int) -> np.ndarray:
    """popcount(x) for every x < 2^n, doubled one bit at a time: the
    upper half is the lower half plus one."""
    table = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        table = np.concatenate([table, table + 1])
    return table


# -- dense row/column removal -------------------------------------------


def binom_cum(n: int, k: int, inclusive: bool) -> int:
    """Sum of C(n, i) for i <= k (inclusive) or i < k (exclusive)."""
    top = k if inclusive else k - 1
    return sum(comb(n, i) for i in range(0, top + 1))


@dataclass(frozen=True)
class RemovalReport:
    n: int
    k: int
    residual_row_nnz: int
    residual_col_nnz: int
    removed_count: int
    bound: int
    method: str

    def as_csv_row(self) -> str:
        return (
            f"{self.n},{self.k},{self.removed_count},"
            f"{self.residual_row_nnz},{self.residual_col_nnz},{self.bound}"
        )


def dense_removal(n: int, k: int, method: str = "auto") -> RemovalReport:
    """Remove the dense rows/columns of R_n (popcount < k) and report the
    residual sparsity.

    Two exact paths, which must agree where both run.  The scan counts
    actual entries: row x keeps every y disjoint from x with |y| >= k,
    so its length is (R_n 1[|y| >= k])[x], one `sparse.kron_apply` of
    [R_1] * n over the integers, maximized over the surviving rows
    |x| >= k; it holds 2^n entries, so n > MATERIALIZE_CAP raises
    CapExceeded.  The count
    path evaluates the closed-form maximum sum of C(n-w, j) over j in
    [k, n-w] at the sparsest surviving weight w = k.
    """
    if not 1 <= k <= n / 2:
        raise ValueError("need 1 <= k <= n/2")
    if method == "auto":
        method = "scan" if n <= 20 else "count"
    removed_count = binom_cum(n, k, inclusive=False)
    bound = binom_cum(n - k, n - 2 * k, inclusive=True)
    if method == "count":
        best = max(
            sum(comb(n - w, j) for j in range(k, n - w + 1))
            for w in range(k, n - k + 1)
        )
    elif method == "scan":
        if n > MATERIALIZE_CAP:
            raise CapExceeded(f"n = {n} exceeds the cap {MATERIALIZE_CAP}")
        heavy = _popcount_table(n) >= k
        # row lengths are integers of at most 2^n <= 2^26, so int32 is exact
        rn = [disjointness_matrix(1, RATIONALS)] * n
        best = int(sparse.kron_apply(rn, heavy.astype(np.int32))[heavy].max())
    else:
        raise ValueError(f"unknown method {method!r}")
    # R_n is symmetric, so columns mirror rows.
    row_nnz = col_nnz = best
    return RemovalReport(n, k, row_nnz, col_nnz, removed_count, bound, method)


def removal_split_csr(n: int, k: int):
    """Split R_n = L + S: L carries the removed rows plus the removed
    columns restricted to surviving rows (each a rank-1 update, so
    rank(L) <= 2 * C(n, <k)); S is the surviving-by-surviving residual.

    Returns (R, L, S, structural_rank_bound) as scipy CSR matrices.
    """
    r = disjointness_csr(n).tocoo()
    pop = _popcount_table(n)
    rowpop = pop[r.row]
    colpop = pop[r.col]
    in_l = (rowpop < k) | ((rowpop >= k) & (colpop < k))
    size = 1 << n
    lmat = _sp.csr_matrix(
        (r.data[in_l], (r.row[in_l], r.col[in_l])), shape=(size, size)
    )
    smat = _sp.csr_matrix(
        (r.data[~in_l], (r.row[~in_l], r.col[~in_l])), shape=(size, size)
    )
    removed = binom_cum(n, k, inclusive=False)
    return r.tocsr(), lmat, smat, 2 * removed


def rn_rigidity_decomposition(
    n: int, a: Fraction, ctx: FieldCtx
) -> RigidityDecomposition:
    """Witness that R_n is non-rigid: rank 2*C(n,<k) plus a sparse
    residual, k = floor(a*n).  Each removed row contributes the rank-1
    update e_x (row x of R_n), each removed column the update
    (col y restricted to surviving rows) e_y^T.
    """
    k = int(a * n)
    target = disjointness_matrix(n, ctx)
    one = ctx.one_raw()
    size = 1 << n
    removed = [x for x in range(size) if bin(x).count("1") < k]
    removed_set = set(removed)
    rank_bound = 2 * len(removed)
    b_entries = []
    c_entries = []
    s_entries = []
    col_of = {x: i for i, x in enumerate(removed)}
    ncols = len(removed)
    for i, j, v in target.entries:
        if i in removed_set:
            # covered by the row update for i
            c_entries.append((col_of[i], j, v))
        elif j in removed_set:
            c_entries_idx = ncols + col_of[j]
            b_entries.append((i, c_entries_idx, v))
        else:
            s_entries.append((i, j, v))
    for x in removed:
        b_entries.append((x, col_of[x], one))
    for y in removed:
        c_entries.append((ncols + col_of[y], y, one))
    b = SparseMatrix(size, rank_bound, ctx, sorted(b_entries), _checked=True)
    c = SparseMatrix(rank_bound, size, ctx, sorted(c_entries), _checked=True)
    s = SparseMatrix(size, size, ctx, s_entries, _checked=True)
    return RigidityDecomposition(target, rank_bound, b, c, s)


# -- recursive all-ones partition ---------------------------------------

SQUARE = "square"
RECT = "rect"  # tall 2:1 rectangle


@dataclass(frozen=True)
class RectPartition:
    n: int
    pieces: tuple  # of (rows: tuple, cols: tuple, kind)

    @property
    def s_sum(self) -> int:
        return sum(len(p[1]) for p in self.pieces if p[2] == SQUARE)

    @property
    def r_sum(self) -> int:
        return sum(len(p[1]) for p in self.pieces if p[2] == RECT)

    @property
    def area(self) -> int:
        return sum(len(p[0]) * len(p[1]) for p in self.pieces)


def _js_pieces(n: int):
    """Row p of A_n^T (of B_n) lists the rows (columns) of partition piece
    p; both come as CSR (indptr, indices) pairs.

    From A_0 = B_0 = [1], level l turns piece p into the square 2p and
    the tall rectangle 2p + 1, so p is a square iff p is even.  A square
    keeps its (0,1)-block copy as a square and fuses its (0,0) and (1,0)
    copies into a rectangle; a rectangle fuses its (0,0) and (0,1) copies
    into a double-size square and keeps its (1,0) copy as a rectangle.
    """
    if n > LIST_CAP:
        raise CapExceeded(f"n = {n} exceeds the partition cap {LIST_CAP}")
    if n < 1:
        raise ValueError("n must be positive")
    ax = ap = bp = by = np.zeros(1, dtype=np.int64)  # ones (ax, ap) of A, (bp, by) of B
    for level in range(n):
        off = 1 << level
        square, rect = ap % 2 == 0, bp % 2 == 1
        ax = np.concatenate((ax, ax + off, ax[square]))
        ap = np.concatenate((2 * ap, 2 * ap + 1, 2 * ap[square] + 1))
        by = np.concatenate((by + off, by, by[rect]))
        bp = np.concatenate((2 * bp, 2 * bp + 1, 2 * bp[rect]))
    return [(sparse._indptr(1 << n, p), x[np.lexsort((x, p))]) for p, x in ((ap, ax), (bp, by))]


def js_partition(n: int) -> RectPartition:
    """Partition the ones of R_n into all-ones squares and tall 2:1
    rectangles by the block recursion R_n = [[R', R'], [R', 0]] (see
    `_js_pieces`).  Side-length sums follow
    (s_n, r_n) = [[1,2],[1,1]] (s_{n-1}, r_{n-1}) with s_1 = r_1 = 1.
    """
    groups = []
    for ptr, idx in _js_pieces(n):
        ptr, idx = ptr.tolist(), idx.tolist()
        groups.append([tuple(idx[lo:hi]) for lo, hi in zip(ptr, ptr[1:])])
    return RectPartition(n, tuple(zip(*groups, [SQUARE, RECT] * (1 << (n - 1)))))


def js_factorization(n: int, ctx: FieldCtx) -> circuits.TwoFactorization:
    """R_n = A_n x B_n through one inner coordinate per partition piece:
    column p of A_n indicates the piece's rows, row p of B_n its columns.
    R_n is symmetric, so the transposed pair gives the primed ordering.
    """
    size = 1 << n  # also the number of pieces
    a_t, b = (
        SparseMatrix._from_csr(
            size, size, ctx, ptr, idx, sparse._value_array([ctx.one_raw()] * idx.size, ctx)
        )
        for ptr, idx in _js_pieces(n)
    )
    return circuits.TwoFactorization(
        disjointness_matrix(n, ctx), sparse.transpose(a_t), b, a_t, sparse.transpose(b)
    )


def js_side_sums(n: int):
    """(s_n, r_n) from the linear recursion, without building anything."""
    s, r = 1, 1
    for _ in range(n - 1):
        s, r = s + 2 * r, s + r
    return s, r


# -- entropy calculators ------------------------------------------------


def entropy(x) -> mpmath.mpf:
    """Binary entropy of a Fraction or mpf, at max(64, mpmath.mp.prec)
    bits of working precision; 0 outside (0, 1)."""
    with mpmath.workprec(max(64, mpmath.mp.prec)):
        if isinstance(x, Fraction):  # mpmath.mpf does not take a Fraction
            x = mpmath.mpf(x.numerator) / x.denominator
        x = mpmath.mpf(x)
        if x <= 0 or x >= 1:
            return mpmath.mpf(0)
        return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def entropy_identities_check(q: int, n: int, k: int) -> dict:
    """Numeric checks of H(1/q) = log2 q - ((q-1)/q) log2(q-1) and the
    binomial sandwich 2^{nH(p)}/(n+1) <= C(n, pn) <= 2^{nH(p)}."""
    with mpmath.workprec(64):
        lhs = entropy(Fraction(1, q))
        rhs = mpmath.log(q, 2) - mpmath.mpf(q - 1) / q * mpmath.log(q - 1, 2)
        identity_ok = abs(lhs - rhs) < mpmath.mpf(2) ** -50
        h = entropy(Fraction(k, n))
        mid = mpmath.mpf(comb(n, k))
        upper = mpmath.mpf(2) ** (n * h)
        sandwich_ok = (upper / (n + 1) <= mid + mpmath.mpf(2) ** -40) and (
            mid <= upper * (1 + mpmath.mpf(2) ** -40)
        )
    return {"identity_ok": bool(identity_ok), "sandwich_ok": bool(sandwich_ok)}


def critical_fraction(bits: int = 40):
    """Bisection root of (1-a) H((1-2a)/(1-a)) = 1/2 on (0, 1/2).

    Returns (a_star, H(a_star)): the removal fraction where the residual
    sparsity exponent crosses n/2, and the resulting rank exponent.
    """
    with mpmath.workprec(bits + 24):
        def g(a):
            return (1 - a) * entropy((1 - 2 * a) / (1 - a)) - mpmath.mpf(1) / 2

        # g is positive at a = 1/4 and negative near a = 1/2; we want the
        # upper crossing (the lower one sits near a = 0).
        lo, hi = mpmath.mpf("0.25"), mpmath.mpf("0.49")
        for _ in range(bits + 10):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        a_star = (lo + hi) / 2
        return a_star, entropy(a_star)
