"""Union-indexed transforms: V_f[x,y] = f(x OR y) and the fast path.

V_f factors as R_n x D_f x R_n where R_n is the disjointness transform
and D_f holds the coefficients of f in the R_n basis.  Since R_n has a
butterfly circuit with (N/2) log2 N additions, batch sums of the form
sum_t f(s OR t) cost N log2 N additions and N multiplications instead of
quadratic work.  Every digit-wise transform here is one
`sparse.kron_apply`: R_n = R_1^{kron n} and its inverse (over Q on
integers over one common denominator), the inclusion-exclusion expansion
of f for bases q > 2 (where OR becomes entrywise max), and the truth
table of the weighted-permutation conjugation turning any Kronecker
product of 2x2 matrices into a V_f.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import sparse
from .errors import (
    CapExceeded,
    LengthMismatch,
    LengthNotPowerOfTwo,
    ModulusTooSmallWarning,
    OuterZero,
)
from .fields import FieldCtx, Scalar
from .sparse import IndexCodec, SparseMatrix

GENERAL_CAP = 4096


@dataclass(frozen=True)
class TruthTable:
    """f: [q]_0^n -> F as a value sequence in IndexCodec order."""

    q: int
    n: int
    ctx: FieldCtx
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.q**self.n:
            raise LengthMismatch(
                f"expected {self.q ** self.n} values, got {len(self.values)}"
            )

    def __call__(self, digits):
        return self.values[IndexCodec(self.q, self.n).encode(digits)]


def vf_matrix(f: TruthTable) -> SparseMatrix:
    """V_f[x,y] = f(x OR y) for a q = 2 truth table: OR is the digit-wise
    max on bits."""
    if f.q != 2:
        raise ValueError("vf_matrix is the q = 2 case; see vf_matrix_general")
    return vf_matrix_general(f)


def vf_matrix_general(f: TruthTable) -> SparseMatrix:
    """V_f[x,y] = f(digit-wise max of x and y) for bases q >= 2."""
    q, size = f.q, f.q**f.n
    if size > GENERAL_CAP:
        raise CapExceeded(f"q^n = {size} exceeds the cap {GENERAL_CAP}")
    digit_max = np.maximum.outer(np.arange(q), np.arange(q))
    index = np.zeros((1, 1), dtype=np.int32)
    for _ in range(f.n):  # one more low digit on both sides
        index = (q * index[:, None, :, None] + digit_max[:, None, :]).reshape(
            index.shape[0] * q, -1
        )
    values = sparse._value_array(f.values, f.ctx)[index]
    i, j = np.nonzero(values)
    return SparseMatrix._from_csr(size, size, f.ctx, sparse._indptr(size, i), j, values[i, j])


def fast_rn_apply(ctx: FieldCtx, x, inverse: bool = False):
    """R_n (or its inverse) applied to a raw vector by `sparse.kron_apply`
    on [R_1] * n, N/2 operations per level; over Q on the numerators over
    the common denominator.  Returns (result list, {"adds": a, "subs": s}).
    """
    size = len(x)
    n = size.bit_length() - 1
    if size < 1 or size != 1 << n:
        raise LengthNotPowerOfTwo(f"length {size} is not a power of two")
    ops = {"adds": 0, "subs": 0}
    ops["subs" if inverse else "adds"] = n * size // 2
    if ctx.is_prime_field:
        return _rn(ctx, np.array(x, dtype=np.int64), inverse).tolist(), ops
    den, nums = sparse._numerators(x)
    return [Fraction(v, den) for v in _rn(ctx, nums, inverse)], ops


def _rn(ctx: FieldCtx, u: np.ndarray, inverse: bool = False) -> np.ndarray:
    """R_n (or its inverse) times u, a power-of-two array of int64 residues
    over F_p or of Python integers over Q; u is consumed."""
    # forward (u0, u1) -> (u0 + u1, u0), inverse (u0, u1) -> (u1, u0 - u1)
    r1 = SparseMatrix.from_dense([[0, 1], [1, -1]] if inverse else [[1, 1], [1, 0]], ctx)
    return sparse.kron_apply([r1] * (u.size.bit_length() - 1), u)


@dataclass(frozen=True)
class VfWitness:
    n: int
    D_f: SparseMatrix
    b_f: tuple

    def verify_against(self, f: TruthTable) -> bool:
        """Dense reconstruction: R x D_f x R = V_f."""
        from .disjoint import disjointness_matrix

        r = disjointness_matrix(self.n, f.ctx)
        rebuilt = sparse.matmul(sparse.matmul(r, self.D_f), r)
        return rebuilt == vf_matrix(f)


def build_vf_witness(f: TruthTable) -> VfWitness:
    """b_f = R_n^{-1} a_f via the inverse butterfly; D_f = diag(b_f)."""
    if f.q != 2:
        raise ValueError("the witness machinery is the q = 2 case")
    b_f, _ = fast_rn_apply(f.ctx, list(f.values), inverse=True)
    return VfWitness(f.n, sparse.diagonal(b_f, f.ctx), tuple(b_f))


def batch_sums(f: TruthTable, points, convention: str = "or"):
    """For each point s, the sum over the input multiset of f(s OR t)
    (or f(s AND t) under the AND convention, served by bit-complement).

    Cost: one diagonal scaling between two forward butterflies, i.e.
    N log2 N additions and N multiplications.  Multiplicities are counted
    in the field, so in F_p they wrap at p (warned); use the rationals
    for plain integer counts.  Returns (dict point -> Scalar, op counts).
    """
    if f.q != 2:
        raise ValueError("batch sums operate on q = 2 truth tables")
    if convention not in ("or", "and"):
        raise ValueError("convention must be 'or' or 'and'")
    ctx = f.ctx
    n = f.n
    size = 1 << n
    p = ctx.modulus
    if p and len(points) >= p:
        warnings.warn(
            f"{len(points)} points with modulus {p}: multiplicities "
            "wrap; consider the rational field",
            ModulusTooSmallWarning,
        )
    for s in points:
        if not 0 <= s < size:
            raise LengthMismatch(f"point {s} does not fit in {n} bits")
    if p:
        den, values = 1, np.array(f.values, dtype=np.int64)
    else:  # integers over one denominator; a Fraction only per answer
        den, values = sparse._numerators(f.values)
    work = np.array(points, dtype=np.int64)
    if convention == "and":
        # f(s AND t) = f'(~s OR ~t) with f'(z) = f(~z); ~z is size - 1 - z
        values = values[::-1]
        work = size - 1 - work
    counts = np.bincount(work, minlength=size)
    counts = counts % p if p else counts.astype(object)
    # residues below 2^31, so each product is below 2^62
    mid = _rn(ctx, values, inverse=True) * _rn(ctx, counts)
    if p:
        mid %= p
    w = _rn(ctx, mid).tolist()
    answers = {s: Scalar(ctx, w[ws] if p else Fraction(w[ws], den))
               for s, ws in zip(points, work.tolist())}
    return answers, {"adds": n * size, "mults": size}


def kron2_to_vf(m_list):
    """Write a Kronecker product of 2x2 matrices as Pi x V_f x Pi'.

    Each base M is conjugated by the bit swap and split off diagonals:
    M = X D V_g D' X with g(0) = M[1,1] M[0,0] / (M[1,0] M[0,1]) and
    g(1) = 1, so Pi and Pi' are weighted permutations and
    f(z) = prod_i g_i(z[i]).  The three outer entries of each M must be
    nonzero; the corner M[1,1] (hence g(0)) may be zero.
    """
    n = len(m_list)
    if n == 0:
        raise ValueError("need at least one base matrix")
    ctx = m_list[0].ctx
    pi_parts = []
    pip_parts = []
    columns = []
    for m in m_list:
        a = m.get(0, 0)
        b = m.get(0, 1)
        c = m.get(1, 0)
        d = m.get(1, 1)
        if not a:
            raise OuterZero(0, 0)
        if not b:
            raise OuterZero(0, 1)
        if not c:
            raise OuterZero(1, 0)
        # M = X D V_g D' X with D = diag(c/a, 1), D' = diag(b, a)
        d0 = ctx.mul_raw(c, ctx.inv_raw(a))
        g0 = ctx.mul_raw(
            ctx.mul_raw(d, a), ctx.inv_raw(ctx.mul_raw(c, b))
        )
        one = ctx.one_raw()
        # X x D = [[0, 1], [d0, 0]]; D' x X = [[0, b], [a, 0]]
        pi_parts.append(
            SparseMatrix(2, 2, ctx, [(0, 1, one), (1, 0, d0)], _checked=True)
        )
        pip_parts.append(
            SparseMatrix(2, 2, ctx, [(0, 1, b), (1, 0, a)], _checked=True)
        )
        columns.append(SparseMatrix.from_dense([[g0], [one]], ctx))
    pi = sparse.kron_all(pi_parts)
    pip = sparse.kron_all(pip_parts)
    # f(z) = prod_i g_i(z[i]): the Kronecker product of the columns (g_i(0), g_i(1))
    values = sparse.kron_apply(columns, sparse._value_array([ctx.one_raw()], ctx)).tolist()
    f = TruthTable(2, n, ctx, tuple(values))
    return pi, f, pip


# -- inclusion-exclusion expansion for general bases ---------------------


def inclusion_exclusion_expand(f: TruthTable):
    """The signed expansion f_S(w) = sum over T subset of S of
    (-1)^(|S|-|T|) f(x_T), where x_T places w[i]+1 in slot i for i in T
    and 0 elsewhere.  Each f_S is a truth table over base q-1 on the
    slots of S; telescoping gives f(z) = sum over S subset of supp(z) of
    f_S(z restricted to S, shifted down by 1).

    The step v -> (v_0, v_1 - v_0, ..., v_{q-1} - v_0) on every digit
    maps f to g(z) = f_{supp z}(z restricted to supp z, shifted down), so
    one `sparse.kron_apply` makes every table: f_S is the slice of g with
    the digits of S positive and the others 0.
    """
    q, n, ctx = f.q, f.n, f.ctx
    if q**n > GENERAL_CAP:
        raise CapExceeded(f"q^n = {q ** n} exceeds the cap {GENERAL_CAP}")
    step = [[int(j == i) - int(j == 0 < i) for j in range(q)] for i in range(q)]
    g = sparse.kron_apply(
        [SparseMatrix.from_dense(step, ctx)] * n, sparse._value_array(f.values, ctx)
    ).reshape((q,) * n)
    out = {}
    for size in range(n + 1):
        for s in combinations(range(n), size):
            cut = np.ravel(g[tuple(slice(1, None) if i in s else 0 for i in range(n))])
            out[frozenset(s)] = TruthTable(q - 1, size, ctx, tuple(cut.tolist()))
    return out


# -- truth-table file format --------------------------------------------


def dump_truthtable(f: TruthTable) -> str:
    values = sparse._value_array(f.values, f.ctx)
    return f"truthtable {f.q} {f.n} {f.ctx.modulus}\n" + sparse._text_lines(values).decode()


def parse_truthtable(text: str) -> TruthTable:
    """Read a truth table back from its text; ValueError if it is
    malformed, DimensionCapExceeded if q^n passes sparse.DIMENSION_CAP."""
    (q, n, field), body = sparse._header(text.lstrip(), "truthtable", 3)
    if q < 1 or n < 0:
        raise ValueError(f"a truth table needs q >= 1 and n >= 0, not q = {q}, n = {n}")
    # q >= 2 makes q^n >= 2^n, so n is cut at the cap's bit length first
    size = q ** min(n, sparse.DIMENSION_CAP.bit_length())
    sparse._check_dims(size)
    ctx = FieldCtx(field)
    (values,) = sparse._numbers(body, ctx, 1, size)
    return TruthTable(q, n, ctx, tuple(values.tolist()))


def save_truthtable(f: TruthTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_truthtable(f))


def load_truthtable(path) -> TruthTable:
    with open(path) as fh:
        return parse_truthtable(fh.read())


def parse_points(text: str):
    """One bitstring per line."""
    points = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln:
            points.append(int(ln, 2))
    return points
