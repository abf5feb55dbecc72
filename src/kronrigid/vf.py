"""Union-indexed transforms: V_f[x,y] = f(x OR y) and the fast path.

V_f factors as R_n x D_f x R_n where R_n is the disjointness transform
and D_f holds the coefficients of f in the R_n basis.  Since R_n has a
butterfly circuit with (N/2) log2 N additions, batch sums of the form
sum_t f(s OR t) cost N log2 N additions and N multiplications instead of
quadratic work.  One builder, `vf_matrix`, makes V_f for every base
q >= 2, where OR becomes the digit-wise max.  Every digit-wise transform
here is one `sparse.kron_apply`: R_n = R_1^{kron n} and its inverse (over
Q on integers over one common denominator), the inclusion-exclusion
expansion of f for bases q > 2, and the truth table of the
weighted-permutation conjugation turning any Kronecker product of 2x2
matrices into a V_f.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat

import numpy as np

from . import sparse
from .errors import CapExceeded, DimensionMismatch, ModulusTooSmallWarning
from .fields import FieldCtx
from .rigidity import normalize_outer1
from .sparse import SparseMatrix

GENERAL_CAP = 4096


@dataclass(frozen=True)
class TruthTable:
    """f: [q]_0^n -> F as a value sequence in C order: digit 0 is the most
    significant."""

    q: int
    n: int
    ctx: FieldCtx
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.q**self.n:
            raise DimensionMismatch(f"expected {self.q ** self.n} values, got {len(self.values)}")

    def __call__(self, digits):
        return self.values[int(np.ravel_multi_index(tuple(digits), (self.q,) * self.n))]


def vf_matrix(f: TruthTable) -> SparseMatrix:
    """V_f[x,y] = f(digit-wise max of x and y) for bases q >= 2; for q = 2
    the max is x OR y."""
    q, size = f.q, f.q**f.n
    if size > GENERAL_CAP:
        raise CapExceeded(f"q^n = {size} exceeds the cap {GENERAL_CAP}")
    digit_max = np.maximum.outer(np.arange(q), np.arange(q))
    index = np.zeros((1, 1), dtype=np.int32)
    for _ in range(f.n):  # one more low digit on both sides
        index = (q * index[:, None, :, None] + digit_max[:, None, :]).reshape(
            index.shape[0] * q, -1
        )
    values = np.array(f.values, f.ctx.dtype)[index]
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
        raise DimensionMismatch(f"length {size} is not a power of two")
    ops = {"adds": 0, "subs": 0}
    ops["subs" if inverse else "adds"] = n * size // 2
    if ctx.is_prime_field:
        return _rn(ctx, np.array(x, dtype=np.int64), inverse).tolist(), ops
    den, nums = sparse._numerators(x)
    return [ctx.coerce(Fraction(v, den)) for v in _rn(ctx, nums, inverse)], ops


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
    for plain integer counts.  Returns (answers, op counts), answers a
    dict keyed by the distinct points: point -> raw field value.
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
    # on the Python integers: a point may be too long for int64
    if len(points) and not (0 <= min(points) and max(points) < size):
        bad = next(s for s in points if not 0 <= s < size)
        raise DimensionMismatch(f"point {bad} does not fit in {n} bits")
    if p:
        den, values = 1, np.array(f.values, dtype=np.int64)
    else:  # integers over one denominator; a Fraction only per non-integral answer
        den, values = sparse._numerators(f.values)
    work = np.array(points, dtype=np.int64)
    if convention == "and":
        # f(s AND t) = f'(~s OR ~t) with f'(z) = f(~z); ~z is size - 1 - z
        values = values[::-1]
        work = size - 1 - work
    multiplicity = np.bincount(work, minlength=size)
    # before the reduction: a point repeated a multiple of p times has count 0
    hit = np.flatnonzero(multiplicity)
    keys = (hit if convention == "or" else size - 1 - hit).tolist()
    counts = ctx.reduce(multiplicity.astype(ctx.dtype))
    # residues below 2^31, so each product is below 2^62
    w = _rn(ctx, ctx.reduce(_rn(ctx, values, inverse=True) * _rn(ctx, counts)))[hit].tolist()
    answers = dict(zip(keys, w if den == 1 else (ctx.coerce(Fraction(v, den)) for v in w)))
    return answers, {"adds": n * size, "mults": size}


def kron2_to_vf(m_list):
    """Write a Kronecker product of 2x2 matrices as Pi x V_f x Pi'.

    Each base splits as M = D M' D' by `rigidity.normalize_outer1`, and
    its outer-1 part is M' = X V_g X for the bit swap X, with
    g(0) = M'[1,1] and g(1) = 1.  So Pi = kron of the D X and
    Pi' = kron of the X D' are weighted permutations and
    f(z) = prod_i g_i(z[i]).  The three outer entries of each M must be
    nonzero (OuterZero); the corner M'[1,1], hence g(0), may be zero.
    """
    if not m_list:
        raise ValueError("need at least one base matrix")
    ctx = m_list[0].ctx
    swap = SparseMatrix(2, 2, ctx, [(0, 1, 1), (1, 0, 1)])
    pi_parts, pip_parts, columns = [], [], []
    for m in m_list:
        d, mprime, dp = normalize_outer1(m)
        pi_parts.append(sparse.matmul(d, swap))
        pip_parts.append(sparse.matmul(swap, dp))
        columns.append(SparseMatrix.from_dense([[mprime.get(1, 1)], [1]], ctx))
    # f(z) = prod_i g_i(z[i]): the Kronecker product of the columns (g_i(0), g_i(1))
    values = sparse.kron_apply(columns, np.full(1, 1, ctx.dtype)).tolist()
    f = TruthTable(2, len(m_list), ctx, tuple(values))
    return sparse.kron_all(pi_parts), f, sparse.kron_all(pip_parts)


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
        [SparseMatrix.from_dense(step, ctx)] * n, np.array(f.values, ctx.dtype)
    ).reshape((q,) * n)
    out = {}
    for size in range(n + 1):
        for s in combinations(range(n), size):
            cut = np.ravel(g[tuple(slice(1, None) if i in s else 0 for i in range(n))])
            out[frozenset(s)] = TruthTable(q - 1, size, ctx, tuple(cut.tolist()))
    return out


# -- truth-table file format --------------------------------------------


def dump_truthtable(f: TruthTable) -> str:
    values = np.array(f.values, f.ctx.dtype)
    return f"truthtable {f.q} {f.n} {f.ctx.modulus}\n" + sparse._text_lines(values).decode()


def parse_truthtable(text: str) -> TruthTable:
    """Read a truth table back from its text; ValueError if it is
    malformed, CapExceeded if q^n passes sparse.DIMENSION_CAP."""
    (q, n, field), body = sparse._header(text.lstrip(), "truthtable", 3)
    if q < 1 or n < 0:
        raise ValueError(f"a truth table needs q >= 1 and n >= 0, not q = {q}, n = {n}")
    size = sparse.capped_power(q, n, "values")
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
    """One bitstring of 0s and 1s per line; blank lines and surrounding
    whitespace are ignored.  ValueError for any other character, as int()
    alone would take "0b11", "1_0" or "+1".

    Every line boundary is whitespace to str.split, so the text is valid
    when each token is made of 0s and 1s and no line holds two tokens;
    the lines are read one by one only to name the first bad one."""
    tokens = text.split()
    lines = text.splitlines()
    filled = len(lines) - lines.count("") - sum(map(str.isspace, lines))
    joined = "".join(tokens)  # bytes.translate deletes far faster than str.strip("01") walks
    if not joined.isascii() or joined.encode().translate(None, b"01") or len(tokens) != filled:
        for ln in lines:
            if ln.strip().strip("01"):
                raise ValueError(f"not a bitstring: {ln.strip()!r}")
    return list(map(int, tokens, repeat(2)))
