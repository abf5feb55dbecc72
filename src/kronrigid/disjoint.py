"""The disjointness transform R_n and its two sparsity routes.

R_n is the 2^n x 2^n 0/1 matrix with a 1 exactly where the two index
strings have disjoint supports (nnz = 3^n).  This module provides its
generation, the dense row/column removal argument (low rank + sparse
residual), the two-factorization induced by the recursive partition of
its ones into all-ones squares and 2:1 rectangles, and the
entropy/binomial calculators the parameter analysis relies on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2, log10

import numpy as np

from . import circuits, sparse
from .errors import CapExceeded
from .fields import RATIONALS, FieldCtx
from .rigidity import RigidityDecomposition
from .sparse import SparseMatrix

LIST_CAP = 14  # coordinate-list materialization guard


def disjointness_matrix(n: int, ctx: FieldCtx) -> SparseMatrix:
    """R_n = R_1^{kron n} over ctx, entries 1 where x AND y = 0; R_0 is
    the 1x1 matrix [1]."""
    if n > LIST_CAP:
        raise CapExceeded(f"n = {n} exceeds the cap {LIST_CAP}")
    if n == 0:
        return sparse.identity(1, ctx)
    return sparse.kron_power(SparseMatrix.from_dense([[1, 1], [1, 0]], ctx), n)


def _popcount_table(n: int) -> np.ndarray:
    """popcount(x) for every x < 2^n, doubled one bit at a time: the
    upper half is the lower half plus one."""
    table = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        table = np.concatenate([table, table + 1])
    return table


# -- dense row/column removal -------------------------------------------


def binom_cum(n: int, k: int) -> int:
    """Sum of C(n, i) for i < k."""
    return sum(comb(n, i) for i in range(k))


@dataclass(frozen=True)
class RemovalReport:
    n: int
    k: int
    residual_row_nnz: int
    residual_col_nnz: int
    removed_count: int
    bound: int

    def as_csv_row(self) -> str:
        return (
            f"{self.n},{self.k},{self.removed_count},"
            f"{self.residual_row_nnz},{self.residual_col_nnz},{self.bound}"
        )


def dense_removal(n: int, k: int, method: str = "auto") -> RemovalReport:
    """Remove the dense rows/columns of R_n (popcount < k) and report the
    residual sparsity.

    Two exact paths, which must agree where both run; "auto" is the
    count path, and the scan is its measured cross-check.  The scan counts
    actual entries: row x keeps every y disjoint from x with |y| >= k,
    so its length is (R_n 1[|y| >= k])[x], one `sparse.kron_apply` of
    [R_1] * n over the integers, maximized over the surviving rows
    |x| >= k; it holds 2^n entries, so 2^n above sparse.DIMENSION_CAP
    raises CapExceeded.  The count path is closed-form: a row of weight w
    keeps sum_{j >= k} C(n-w, j) entries, which falls as w grows, so the
    maximum is at w = k: `bound`, 2^(n-k) less the k binomials C(n-k, j<k).
    Both counts are below 2^n, so where 2^n has more digits than Python
    converts to text (sys.get_int_max_str_digits()) n raises CapExceeded
    before any sum is taken.
    """
    if not 1 <= k <= n / 2:
        raise ValueError("need 1 <= k <= n/2")
    if method not in ("auto", "scan", "count"):
        raise ValueError(f"unknown method {method!r}")
    if method == "scan":
        sparse.capped_power(2, n, "entries")
    digits = sys.get_int_max_str_digits()
    if digits and n * log10(2) >= digits:
        raise CapExceeded(f"2^{n} has more than the {digits} digits Python converts to text")
    removed_count = binom_cum(n, k)
    bound = best = 2 ** (n - k) - binom_cum(n - k, k)
    if method == "scan":
        heavy = _popcount_table(n) >= k
        # row lengths are integers of at most 2^n <= 2^26, so int32 is exact
        rn = [disjointness_matrix(1, RATIONALS)] * n
        best = int(sparse.kron_apply(rn, heavy.astype(np.int32))[heavy].max())
    # R_n is symmetric, so columns mirror rows.
    row_nnz = col_nnz = best
    return RemovalReport(n, k, row_nnz, col_nnz, removed_count, bound)


def rn_rigidity_decomposition(
    n: int, a: Fraction, ctx: FieldCtx
) -> RigidityDecomposition:
    """Witness that R_n is non-rigid: R_n = B_lr C_lr + S with rank
    2*C(n,<k), k = floor(a*n), the light indices those of popcount < k.

    C_lr stacks the light rows of R_n over the identity rows e_y^T of the
    light columns y; B_lr puts the identity columns e_x of the light rows
    x beside the light columns of R_n restricted to the heavy rows.  S is
    the heavy-by-heavy rest.
    """
    k = int(a * n)
    target = disjointness_matrix(n, ctx)
    size = 1 << n
    light = _popcount_table(n) < k
    lights = np.flatnonzero(light)
    h = lights.size
    slot = np.cumsum(light) - 1  # position of a light index among the light ones
    ones = np.full(h, 1, ctx.dtype)
    i, j, v = sparse._row_ids(target), target.indices, target.data
    in_c, in_b = light[i], ~light[i] & light[j]
    in_s = ~(in_c | light[j])

    def matrix(rows, cols, ii, jj, vv):
        return SparseMatrix._from_csr(rows, cols, ctx, *sparse._csr_from_coo(rows, cols, ctx, ii, jj, vv))

    b = matrix(size, 2 * h, np.concatenate((lights, i[in_b])),
               np.concatenate((np.arange(h), h + slot[j[in_b]])), np.concatenate((ones, v[in_b])))
    c = matrix(2 * h, size, np.concatenate((slot[i[in_c]], h + np.arange(h))),
               np.concatenate((j[in_c], lights)), np.concatenate((v[in_c], ones)))
    s = matrix(size, size, i[in_s], j[in_s], v[in_s])
    return RigidityDecomposition(target, 2 * h, b, c, s)


# -- recursive all-ones partition ---------------------------------------


def js_factorization(n: int, ctx: FieldCtx) -> circuits.TwoFactorization:
    """R_n = A_n x B_n through one inner coordinate per piece of a
    partition of R_n's ones into all-ones squares and tall 2:1
    rectangles: piece p's rows are column p of A_n and its columns are
    row p of B_n.  Piece p is a square when p is even and a rectangle
    when p is odd.  R_n is symmetric, so the transposed pair gives the
    primed ordering.  R_n itself is not built.

    The pieces follow the block recursion R_n = [[R', R'], [R', 0]].
    From A_0 = B_0 = [1], level l turns piece p into the square 2p and
    the rectangle 2p + 1.  A square keeps its (0,1)-block copy as a
    square and fuses its (0,0) and (1,0) copies into a rectangle; a
    rectangle fuses its (0,0) and (0,1) copies into a double-size square
    and keeps its (1,0) copy as a rectangle.  The side-length sums of the
    squares and of the rectangles follow
    (s_n, r_n) = [[1,2],[1,1]] (s_{n-1}, r_{n-1}) with s_1 = r_1 = 1.
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
    size = 1 << n  # also the number of pieces
    # row p of A_n^T (of B_n) lists piece p's rows (columns)
    a_t, b = (
        SparseMatrix._from_csr(
            size, size, ctx, sparse._indptr(size, p), x[np.lexsort((x, p))],
            np.full(x.size, 1, ctx.dtype),
        )
        for p, x in ((ap, ax), (bp, by))
    )
    return circuits.TwoFactorization(sparse.transpose(a_t), b, a_t, sparse.transpose(b))


def js_side_sums(n: int):
    """(s_n, r_n) from the linear recursion, without building anything."""
    s, r = 1, 1
    for _ in range(n - 1):
        s, r = s + 2 * r, s + r
    return s, r


# -- entropy calculators ------------------------------------------------


def entropy(x) -> float:
    """Binary entropy of x, a Fraction or float, in floats; 0 outside (0, 1)."""
    x = float(x)
    if x <= 0 or x >= 1:
        return 0.0
    return -x * log2(x) - (1 - x) * log2(1 - x)


def entropy_identities_check(q: int, n: int, k: int) -> dict:
    """Numeric checks of H(1/q) = log2 q - ((q-1)/q) log2(q-1) and the
    binomial sandwich 2^{nH(p)}/(n+1) <= C(n, pn) <= 2^{nH(p)}, the
    latter on log2 of its sides so that no side overflows a float."""
    rhs = log2(q) - (q - 1) / q * log2(q - 1)
    identity_ok = abs(entropy(Fraction(1, q)) - rhs) < 2**-50
    upper = n * entropy(Fraction(k, n))
    mid = log2(comb(n, k))
    slack = 2**-40 * max(1.0, upper)
    sandwich_ok = upper - log2(n + 1) <= mid + slack and mid <= upper + slack
    return {"identity_ok": identity_ok, "sandwich_ok": sandwich_ok}


def critical_fraction():
    """Bisection root of (1-a) H((1-2a)/(1-a)) = 1/2 on (0, 1/2), in
    floats until the interval stops shrinking.

    Returns (a_star, H(a_star)): the removal fraction where the residual
    sparsity exponent crosses n/2, and the resulting rank exponent.
    """
    def g(a):
        return (1 - a) * entropy((1 - 2 * a) / (1 - a)) - 0.5

    # g is positive at a = 1/4 and negative near a = 1/2; we want the
    # upper crossing (the lower one sits near a = 0).
    lo, hi = 0.25, 0.49
    while lo < (mid := (lo + hi) / 2) < hi:
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return mid, entropy(mid)
