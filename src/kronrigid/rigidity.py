"""Low-rank-plus-sparse decompositions and the brute-force certifier.

A decomposition witnesses target = B_lr x C_lr + S with rank at most r and
nnz(S) = changes.  Alongside the explicit constructions for the 4x4 and
16x16 Hadamard matrices and the cube of an outer-1 2x2 base, this module
has the exhaustive minimum-changes search, outer-1 normalization, the
product composition rule, and the Fourier (DFT) lower-bound formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, islice
from math import comb

import numpy as np

from . import sparse
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    ExceedsBound,
    OuterZero,
    RationalUnsupported,
    WorkCapExceeded,
)
from .fields import FieldCtx, primitive_root_of_unity
from .sparse import SparseMatrix

# Work is candidates times matrix cells, since every candidate costs one
# elimination of the whole matrix (run in F_p batches, one array rank test
# per chunk of candidates): 10^7 candidates of a 4x4 matrix.
DEFAULT_WORK_CAP = 16 * 10_000_000
# A chunk holds at most this many candidates and this many cells, so each
# array of the batched elimination stays near 128 KB.
CHUNK_CANDIDATES = 2**10
CHUNK_CELLS = 2**14


@dataclass(frozen=True)
class RigidityDecomposition:
    target: SparseMatrix
    rank_bound: int
    B_lr: SparseMatrix
    C_lr: SparseMatrix
    S: SparseMatrix

    @property
    def changes(self) -> int:
        return self.S.nnz

    @property
    def low_rank(self) -> SparseMatrix:
        return sparse.matmul(self.B_lr, self.C_lr)

    def verify(self) -> bool:
        """target = B_lr x C_lr + S, rank of the low part <= rank_bound."""
        low = self.low_rank
        if sparse.add_mat(low, self.S) != self.target:
            return False
        return sparse.rank(low) <= self.rank_bound


def low_rank_factor(m: SparseMatrix, r: int):
    """Rank factorization m = B x C with B m.rows x r, C r x m.cols.

    Requires rank(m) <= r; unused columns/rows stay structurally zero.
    B takes the pivot columns of m, C the nonzero rows of the RREF.
    """
    ctx = m.ctx
    dense = m.to_array()
    rref = dense[None].copy()
    rank = int(sparse._eliminate(rref, ctx)[0])
    if rank > r:
        raise ValueError(f"rank {rank} exceeds requested bound {r}")
    rows = rref[0, :rank]
    pivots = (np.cumsum(rows != 0, axis=1) == 0).sum(axis=1)  # each row's leading zeros
    b = [(i, k, v) for i, row in enumerate(dense[:, pivots].tolist()) for k, v in enumerate(row)]
    c = [(k, j, v) for k, row in enumerate(rows.tolist()) for j, v in enumerate(row)]
    return (
        SparseMatrix.from_triplets(m.rows, r, ctx, b),
        SparseMatrix.from_triplets(r, m.cols, ctx, c),
    )


def decomposition_from_low_rank(
    target: SparseMatrix, low: SparseMatrix, r: int
) -> RigidityDecomposition:
    b, c = low_rank_factor(low, r)
    s = sparse.sub_mat(target, low)
    return RigidityDecomposition(target, r, b, c, s)


# -- brute-force search -------------------------------------------------


def brute_force_rigidity(
    m: SparseMatrix, r: int, max_changes: int, work_cap: int = DEFAULT_WORK_CAP
):
    """Exact minimum number of entry changes bringing rank(m) down to <= r.

    Enumerates change-support patterns in increasing size (combinations
    order within a size) and, for each, every assignment of values other
    than the originals to the changed cells (product order, last cell
    fastest); the first hit wins, so output is deterministic.  Candidates
    are tested in F_p batches: a chunk of consecutive candidates is
    decoded from its index range in base p - 1, and a copy of it goes
    through one `sparse._eliminate`.  Returns (minimum, witness); raises
    ExceedsBound if no pattern of size <= max_changes works, and
    WorkCapExceeded up front if the candidates times the matrix cells
    exceed work_cap.

    A matrix of rank <= r has every (r+1)-minor zero, so a pattern that
    misses a nonsingular (r+1)-minor of m cannot succeed and is skipped
    before its values are enumerated (_minor_incidence, _meeting).  The
    patterns left keep their order, so the first hit is the same; the
    work cap still counts every candidate.
    """
    ctx = m.ctx
    if not ctx.is_prime_field:
        raise RationalUnsupported("brute-force search needs a small prime field")
    if r < 0 or max_changes < 0:
        raise ValueError("rank bound and change budget must be non-negative")
    p = ctx.modulus
    cells = m.rows * m.cols
    sizes = range(min(max_changes, cells) + 1)  # no pattern has more changes than cells
    est = cells * sum(comb(cells, k) * (p - 1) ** k for k in sizes)
    if est > work_cap:
        raise WorkCapExceeded(est, work_cap)
    dense = m.to_array()
    flat = dense.reshape(cells)
    hit = _minor_incidence(dense, ctx, r, est)
    batch = max(1, min(CHUNK_CANDIDATES, CHUNK_CELLS // max(cells, 1)))
    base = p - 1  # a changed cell takes one of the p - 1 other values
    for size in sizes:
        per = base**size  # assignments of one pattern, below the work cap
        place = base ** np.arange(size - 1, -1, -1, dtype=np.int64)
        step = min(per, batch)
        patterns = _meeting(combinations(range(cells), size), size, hit)
        while group := list(islice(patterns, max(1, batch // per))):
            at = np.array(group, dtype=np.intp).reshape(len(group), 1, size)
            for start in range(0, per, step):
                digits = np.arange(start, min(start + step, per))[:, None] // place % base
                # value j stands for j + (j >= original), skipping the original
                values = digits + (digits >= flat[at])
                cand = np.tile(flat, (len(group), len(digits), 1))
                np.put_along_axis(cand, np.broadcast_to(at, values.shape), values, axis=2)
                cand = cand.reshape(len(group) * len(digits), m.rows, m.cols)
                hits = sparse._eliminate(cand.copy(), ctx, r) <= r  # cand keeps the witness
                if hits.any():
                    low = SparseMatrix.from_dense(cand[hits.argmax()].tolist(), ctx)
                    return size, decomposition_from_low_rank(m, low, r)
    raise ExceedsBound(max_changes)


def _minor_incidence(a: np.ndarray, ctx: FieldCtx, r: int, est: int) -> np.ndarray:
    """Cell-by-minor incidence (a.size x K booleans) of nonsingular
    (r+1)-minors of the dense matrix a: the first K <= CHUNK_CELLS // a.size
    of them in (row set, column set) combinations order.  K = 0 when the
    minors' (r+1)^2 cells in all exceed est, the search's own work.

    Any subset of the nonsingular minors prunes exactly.  The minors are
    tested in chunks of about CHUNK_CELLS cells, one batched
    `sparse._eliminate` with the rank bound r each.
    """
    rows, cols = a.shape
    k = r + 1
    limit = CHUNK_CELLS // max(a.size, 1)
    found = []
    if comb(rows, k) * comb(cols, k) * k * k <= est:
        sets = (i + j for i in combinations(range(rows), k) for j in combinations(range(cols), k))
        flat = chain.from_iterable(sets)
        step = 2 * k * max(1, CHUNK_CELLS // (k * k))
        while len(found) < limit and (idx := np.fromiter(islice(flat, step), dtype=np.intp)).size:
            idx = idx.reshape(-1, 2, k)
            i, j = idx[:, 0, :, None], idx[:, 1, None, :]
            full = sparse._eliminate(a[i, j], ctx, r) > r
            found.extend((i * cols + j).reshape(-1, k * k)[full])
    found = np.array(found[:limit], dtype=np.intp).reshape(-1, k * k)
    hit = np.zeros((a.size, len(found)), dtype=bool)
    hit[found, np.arange(len(found))[:, None]] = True
    return hit


def _meeting(patterns, size: int, hit: np.ndarray):
    """The patterns (tuples of `size` cells) that share a cell with every
    minor of the incidence hit, in their order, tested a chunk at a time."""
    chunk = max(1, CHUNK_CELLS // max(size * hit.shape[1], 1))
    while group := list(islice(patterns, chunk)):
        at = np.array(group, dtype=np.intp).reshape(len(group), size)
        yield from compress(group, hit[at].any(axis=1).all(axis=1))


# -- explicit constructions ---------------------------------------------


def hadamard_matrix(n: int, ctx: FieldCtx) -> SparseMatrix:
    """H_n = H_1^{kron n}, the 2^n-point Walsh-Hadamard transform."""
    h1 = SparseMatrix.from_dense([[1, 1], [1, -1]], ctx)
    return sparse.kron_power(h1, n)


_H2_LOW = ([1, -1, -1, -1], [-1, 1, 1, 1])  # column and row of H_2's rank-1 part


def _rank1_split(target: SparseMatrix, col, row) -> RigidityDecomposition:
    """target = b c + S for the column b and the row c made of the values
    in col and row; S is the rest."""
    b = SparseMatrix.from_dense([[v] for v in col], target.ctx)
    c = SparseMatrix.from_dense([row], target.ctx)
    return RigidityDecomposition(target, 1, b, c, sparse.sub_mat(target, sparse.matmul(b, c)))


def h2_rank1_decomposition(ctx: FieldCtx) -> RigidityDecomposition:
    """H_2 = rank-1 + 4 changes: first row of the rank-1 part is
    (-1, 1, 1, 1) and the other rows are its negation; the sparse part is
    twice a permutation, one entry per row and column."""
    return _rank1_split(hadamard_matrix(2, ctx), *_H2_LOW)


def cube_rank1_decomposition(m: SparseMatrix) -> RigidityDecomposition:
    """Rank-1 approximation of the cube M^{kron 3} of an outer-1 2x2 base.

    With omega = M[1,1], the low part is L[x,y] = omega^{-1} when
    x = y = 0, 1 on the rest of row/column 0, and omega elsewhere; it is
    the outer product of u = (omega^{-1}, 1, ..., 1) and
    v = (1, omega, ..., omega).  L agrees with M^{kron 3} wherever the
    inner product of the index strings is 1, leaving at most 23
    mismatches (22 when omega = -1).
    """
    ctx = m.ctx
    if (m.rows, m.cols) != (2, 2):
        raise DimensionMismatch("base must be 2x2")
    one = ctx.one_raw()
    if m.get(0, 0) != one or m.get(0, 1) != one or m.get(1, 0) != one:
        raise ValueError("base must be outer-1 (normalize first)")
    omega = m.get(1, 1)
    if not omega:
        raise DivisionByZero("corner entry is zero; its inverse defines the low part")
    return _rank1_split(sparse.kron_power(m, 3), [ctx.inv_raw(omega)] + [one] * 7, [one] + [omega] * 7)


def h4_rank1_decomposition(ctx: FieldCtx) -> RigidityDecomposition:
    """H_4 = rank-1 + 96 changes: the low part is the square Kronecker
    power of the 4x4 rank-1 matrix used for H_2."""
    col, row = ([x * y for x in v for y in v] for v in _H2_LOW)
    return _rank1_split(hadamard_matrix(4, ctx), col, row)


def normalize_outer1(m: SparseMatrix):
    """Split M = D x M' x D' with D, D' invertible diagonal and M' outer-1.

    D = diag(M[i,0]) and D' = diag(M[0,j] / M[0,0]), so M' has 1 in every
    entry of row 0 and column 0.  Requires those entries of M nonzero:
    OuterZero names the first zero, column 0 scanned before row 0.
    """
    ctx = m.ctx
    col = [m.get(i, 0) for i in range(m.rows)]
    row = [m.get(0, j) for j in range(m.cols)]
    for i, x in enumerate(col):
        if not x:
            raise OuterZero(i, 0)
    for j, x in enumerate(row):
        if not x:
            raise OuterZero(0, j)
    inv_col = [ctx.inv_raw(x) for x in col]
    d = sparse.diagonal(col, ctx)
    dp = sparse.diagonal([ctx.mul_raw(x, inv_col[0]) for x in row], ctx)
    # M' = D^-1 M D'^-1: row i over M[i,0], column j times M[0,0] / M[0,j]
    d_inv = sparse.diagonal(inv_col, ctx)
    dp_inv = sparse.diagonal([ctx.mul_raw(col[0], ctx.inv_raw(x)) for x in row], ctx)
    return d, sparse.matmul(sparse.matmul(d_inv, m), dp_inv), dp


def compose_nonrigid(
    da: RigidityDecomposition, diag: SparseMatrix, db: RigidityDecomposition
) -> RigidityDecomposition:
    """Decomposition of A x D x B from decompositions of A and B.

    Grouping L_A D (L_B + S_B) + S_A D L_B + S_A D S_B puts everything
    except the last term into the low part, so the rank bound is the sum
    of the two input bounds and the sparse part is S_A x D x S_B; its
    per-row and per-column sparsity multiply.
    """
    a = da.target
    b = db.target
    if a.cols != diag.rows or diag.cols != b.rows:
        raise DimensionMismatch("dimensions do not chain")
    target = sparse.matmul(sparse.matmul(a, diag), b)
    # L_A D B = B_A x (C_A D B); S_A D L_B = (S_A D B_B) x C_B.
    left1 = da.B_lr
    right1 = sparse.matmul(sparse.matmul(da.C_lr, diag), b)
    left2 = sparse.matmul(sparse.matmul(da.S, diag), db.B_lr)
    right2 = db.C_lr
    b_lr = sparse.concat_h(left1, left2)
    c_lr = sparse.stack_v(right1, right2)
    s = sparse.matmul(sparse.matmul(da.S, diag), db.S)
    return RigidityDecomposition(target, da.rank_bound + db.rank_bound, b_lr, c_lr, s)


def shparlinski_bound(n: int, r: int) -> Fraction:
    """(N - r)^2 / (r + 1): changes needed to bring an N-point DFT to rank r."""
    if not n > r >= 0:
        raise ValueError("need N > r >= 0")
    return Fraction((n - r) ** 2, r + 1)


def dft_matrix(n: int, ctx: FieldCtx) -> SparseMatrix:
    """F_N[i,j] = w^(i*j) for a primitive Nth root of unity w in F_p."""
    w = primitive_root_of_unity(ctx, n)
    p = ctx.modulus
    rows = [[pow(w, i * j, p) for j in range(n)] for i in range(n)]
    return SparseMatrix.from_dense(rows, ctx)


# -- witness file format ------------------------------------------------
#
# Header `rigidity q r changes field`, then the three blocks B_lr, C_lr, S
# in the matrix text format, separated by `---` lines.


def dump_witness(d: RigidityDecomposition) -> str:
    if not d.target.is_square:  # the header states one size
        raise DimensionMismatch(f"a witness file holds a square target, not {d.target.rows}x{d.target.cols}")
    header = (
        f"rigidity {d.target.rows} {d.rank_bound} {d.changes} "
        f"{d.target.ctx.modulus}"
    )
    blocks = [sparse.dump_matrix(x).rstrip("\n") for x in (d.B_lr, d.C_lr, d.S)]
    return header + "\n" + "\n---\n".join(blocks) + "\n"


def parse_witness(text: str) -> RigidityDecomposition:
    """Read a witness back; ValueError unless B_lr is q x r, C_lr r x q and
    S q x q with `changes` entries, all over the header's field."""
    head, *blocks = sparse._blocks(text.lstrip(), "---")
    (q, r, changes, field), first = sparse._header(head, "rigidity", 4)
    if len(blocks) != 2:
        raise ValueError("expected three blocks separated by ---")
    ctx = FieldCtx(field)
    b, c, s = (sparse.parse_matrix(block) for block in (first, *blocks))
    if any(m.ctx != ctx for m in (b, c, s)):
        raise ValueError(f"a block is not over the header's field {field}")
    shapes = [(m.rows, m.cols) for m in (b, c, s)]
    if shapes != [(q, r), (r, q), (q, q)]:
        raise ValueError(f"blocks of shapes {shapes} do not fit q = {q}, r = {r}")
    if s.nnz != changes:
        raise ValueError("header change count does not match sparse block")
    target = sparse.add_mat(sparse.matmul(b, c), s)
    return RigidityDecomposition(target, r, b, c, s)


def save_witness(d: RigidityDecomposition, path) -> None:
    text = dump_witness(d)  # before open(), so a refused witness leaves no file
    with open(path, "w") as fh:
        fh.write(text)


def load_witness(path) -> RigidityDecomposition:
    with open(path) as fh:
        return parse_witness(fh.read())
