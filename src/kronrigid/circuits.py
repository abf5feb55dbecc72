"""Depth-d synchronous circuits for Kronecker powers M^{kron n}.

A synchronous circuit is an ordered factor chain A_1, ..., A_d whose
product is the target transform; its cost is the wire count, the sum of
factor nonzeros.  `synthesize` is the one depth-d builder: it turns a
two-factorization of a base power (from a low-rank-plus-sparse
decomposition, or a rectangle partition) into circuits that beat the
classical butterfly baseline of d * N^(1+1/d) wires.  The butterfly
itself and exponent balancing are here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sparse
from .errors import (
    CapExceeded,
    ContextMismatch,
    DepthTooSmall,
    DimensionCapExceeded,
    DimensionMismatch,
    GroupMismatch,
    NotSquare,
    UnverifiedInput,
)
from .fields import FieldCtx, is_prime
from .rigidity import RigidityDecomposition
from .sparse import SparseMatrix, identity, kron, kron_all, kron_power, matmul


# Most wires a circuit may have to be built as explicit factors: building
# takes about 25 B of peak memory per wire, so 2^27 wires is about 3.4 GB.
WIRE_CAP = 2**27


class SynchronousCircuit:
    """Factor chain A_1 x ... x A_d with exact wire accounting.

    Each layer is kept as its list of small Kronecker operands, left
    operand on the high digits; a plain SparseMatrix is a one-operand
    layer.  Kron multiplies shapes and nnz, so shapes and wires are
    products over the operands, and a layer is built as one explicit
    matrix only when `factor`, `factors` or `product` asks for it.

    base/base_power record that the circuit computes base^{kron base_power}
    when known, which lets lift_power raise it to higher powers.
    """

    def __init__(self, layers, base=None, base_power=None):
        self.layers = [list(x) if isinstance(x, (list, tuple)) else [x] for x in layers]
        if not self.layers or not all(self.layers):
            raise ValueError("a circuit needs at least one factor, and a factor an operand")
        ctx = self.layers[0][0].ctx
        if any(m.ctx != ctx for ops in self.layers for m in ops):
            raise DimensionMismatch("factors in different fields")
        self.shapes = [
            (math.prod(m.rows for m in ops), math.prod(m.cols for m in ops))
            for ops in self.layers
        ]
        for (_, a_cols), (b_rows, _) in zip(self.shapes, self.shapes[1:]):
            if a_cols != b_rows:
                raise DimensionMismatch(
                    f"factor chain breaks: {a_cols} cols vs {b_rows} rows"
                )
        self.base = base
        self.base_power = base_power

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def rows(self) -> int:
        return self.shapes[0][0]

    @property
    def cols(self) -> int:
        return self.shapes[-1][1]

    @property
    def ctx(self):
        return self.layers[0][0].ctx

    @property
    def wires(self) -> int:
        return sum(self.per_factor_nnz)

    @property
    def per_factor_nnz(self):
        return [math.prod(m.nnz for m in ops) for ops in self.layers]

    def check_caps(self) -> None:
        """Raise before building a circuit too large to hold: a factor side
        above sparse.DIMENSION_CAP, or more than WIRE_CAP wires."""
        side = max(max(shape) for shape in self.shapes)
        if side > sparse.DIMENSION_CAP:
            raise DimensionCapExceeded(f"size {side} exceeds cap {sparse.DIMENSION_CAP}")
        if self.wires > WIRE_CAP:
            raise CapExceeded(f"{self.wires} wires exceed the cap {WIRE_CAP} for explicit factors")

    def factor(self, j: int) -> SparseMatrix:
        """Layer j as an explicit matrix, after check_caps."""
        self.check_caps()
        return kron_all(self.layers[j])

    @property
    def factors(self):
        """Every layer as an explicit matrix, built anew on each access."""
        return [self.factor(j) for j in range(self.depth)]

    def product(self) -> SparseMatrix:
        return functools.reduce(matmul, (self.factor(j) for j in range(self.depth)))

    def __repr__(self):
        return (
            f"SynchronousCircuit(depth={self.depth}, {self.rows}x{self.cols}, "
            f"wires={self.wires})"
        )


@dataclass(frozen=True)
class TwoFactorization:
    """M = B x C = C' x B' through an inner dimension h."""

    target: SparseMatrix
    B: SparseMatrix  # q x h
    C: SparseMatrix  # h x q
    B_prime: SparseMatrix  # h x q
    C_prime: SparseMatrix  # q x h

    @property
    def q(self) -> int:
        return self.target.rows

    @property
    def h(self) -> int:
        return self.B.cols

    @property
    def exponent(self) -> float:
        """The wire-growth exponent c = log_q(nnz(B) nnz(C)) - 2: the
        depth-d circuit has about d * N^(1+c/d) wires."""
        return math.log(self.B.nnz * self.C.nnz, self.q) - 2

    def verify(self) -> bool:
        return (
            matmul(self.B, self.C) == self.target
            and matmul(self.C_prime, self.B_prime) == self.target
        )


def two_factor_from_rigidity(d: RigidityDecomposition) -> TwoFactorization:
    """M = (S | B_lr) x (I_q / C_lr), inner dimension h = q + r.

    The primed pair comes from the transposed decomposition:
    M = (I_q | B_lr) x (S / C_lr), so either ordering puts the sparse
    block first or last.
    """
    m = d.target
    if not m.is_square:
        raise NotSquare("two-factorization needs a square target")
    q = m.rows
    b = sparse.concat_h(d.S, d.B_lr)
    c = sparse.stack_v(identity(q, m.ctx), d.C_lr)
    c_prime = sparse.concat_h(identity(q, m.ctx), d.B_lr)
    b_prime = sparse.stack_v(d.S, d.C_lr)
    return TwoFactorization(m, b, c, b_prime, c_prime)


def _expressions(tf: TwoFactorization, d: int):
    """The d ways to write M as a product of d terms.

    Expression i (0-based i < d-1) is I...I B C I...I with B at position
    i; the last expression is C' I_h...I_h B'.  The interior identities
    of the last expression live in the inner dimension h so the chain
    types check.
    """
    q = tf.q
    ctx = tf.target.ctx
    iq = identity(q, ctx)
    ih = identity(tf.h, ctx)
    exprs = []
    for i in range(d - 1):
        exprs.append([iq] * i + [tf.B, tf.C] + [iq] * (d - i - 2))
    exprs.append([tf.C_prime] + [ih] * (d - 2) + [tf.B_prime])
    return exprs


def symmetrized_depth_d(tf: TwoFactorization, d: int) -> SynchronousCircuit:
    """Depth-d circuit for M^{kron d}: factor j is the Kronecker product,
    over the d expressions, of their position-j terms.  The mixed-product
    property makes the factor product equal M^{kron d} directly, with no
    explicit permutations."""
    if d < 2:
        raise DepthTooSmall("depth must be at least 2")
    exprs = _expressions(tf, d)
    layers = [[e[j] for e in exprs] for j in range(d)]
    return SynchronousCircuit(layers, base=tf.target, base_power=d)


def lift_power(circ: SynchronousCircuit, n: int) -> SynchronousCircuit:
    """Raise a circuit for M^{kron t} to one for M^{kron n}, t | n: each
    layer's operand list is repeated n/t times, so per-factor nnz is
    exactly b_j^{n/t}.  ValueError when n is not a multiple of t."""
    if circ.base is None or circ.base_power is None:
        raise ValueError("circuit does not record its base power")
    t = circ.base_power
    if n == t:
        return circ
    if n < 1 or n % t:
        raise ValueError(f"n = {n} is not a positive multiple of the base power {t}")
    layers = [ops * (n // t) for ops in circ.layers]
    return SynchronousCircuit(layers, base=circ.base, base_power=n)


def unit_power(tf: TwoFactorization, unit: SparseMatrix) -> int:
    """The t with tf.target = unit^{kron t}; ValueError if there is none."""
    q = unit.rows
    t = max(1, round(math.log(tf.q, q)))
    if kron_power(unit, t) != tf.target:
        raise ValueError(
            f"the two-factorization is not of a Kronecker power of the {q}x{q} unit"
        )
    return t


def synthesize(
    tf: TwoFactorization, unit: SparseMatrix, n: int, d: int
) -> SynchronousCircuit:
    """Depth-d circuit for unit^{kron n} from a two-factorization of
    unit^{kron t}; t is read off the matrix sizes.

    The largest multiple of t*d digits is the symmetrized circuit lifted
    by Kronecker powers.  The k digits left over ride along in k one-digit
    butterfly slots at the end of every layer: factor j is widened by
    I x unit^{kron k_j} x I, the k_j as even as possible and the earlier
    factors taking the extra copies."""
    if d < 2:
        raise DepthTooSmall("depth must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    t = unit_power(tf, unit)
    reps, k = divmod(n, t * d)
    sym = lift_power(symmetrized_depth_d(tf, d), reps * d).layers if reps else [[]] * d
    slots = _slots([unit] * k, [k // d + (j < k % d) for j in range(d)], identity(unit.rows, unit.ctx))
    return SynchronousCircuit([a + b for a, b in zip(sym, slots)], base=unit, base_power=n)


def _slots(mats, counts, pad):
    """One operand list per count c_j, all len(mats) long: the next c_j of
    mats in their own slots, pad in every other slot."""
    layers, before = [], 0
    for c in counts:
        layers.append([pad] * before + list(mats[before : before + c]) + [pad] * (len(mats) - before - c))
        before += c
    return layers


def butterfly_circuit(m_list, group: int = 1) -> SynchronousCircuit:
    """Classical fast-transform factorization of a Kronecker product.

    Factor l is I (kron of earlier dims) x (group l of the inputs) x I;
    the product telescopes to the full Kronecker product.  group must
    divide the list length."""
    n = len(m_list)
    if n == 0 or n % group != 0:
        raise GroupMismatch(f"group {group} does not divide {n}")
    ctx = m_list[0].ctx
    q = m_list[0].rows
    for m in m_list:
        if not m.is_square or m.rows != q or m.ctx != ctx:
            raise DimensionMismatch("all inputs must be square, same size, same field")
    return SynchronousCircuit(_slots(m_list, [group] * (n // group), identity(q, ctx)))


def balanced_exponent(exponents) -> Fraction:
    """Common balanced target: a = 1 + (a* - 1)/(1 + d a* - sum a_j)."""
    a = [Fraction(x) for x in exponents]
    d = len(a)
    astar = max(a)
    return 1 + (astar - 1) / (1 + d * astar - sum(a))


def balance_exponents(
    base: SparseMatrix, factor_builder, n: int, exponents=None, sym=False
) -> SynchronousCircuit:
    """Rebalance an unbalanced factorization family of base^{kron n}.

    factor_builder(m) must return the d factors of base^{kron m} for any
    m >= 0.  With per-factor exponent estimates a_j (measured as
    log_q(nnz)/n when not given), the power is resplit as
    n = b n + sum b_j n with b = 1/(1 + sum(a* - a_j)) and
    b_j = (a* - a_j) b; factor j becomes A_{bn,j} kron (identity padding
    with one dense base^{kron b_j n} block in slot j).  Rounding is down,
    remainder absorbed by the b n part.  With sym=True the input family
    is first replaced by the symmetric pairing
    A_{m/2,j} kron A_{m/2,d+1-j}^T (base must be symmetric, n even).
    """
    q = base.rows
    builder = factor_builder
    if sym:
        def builder(m):  # noqa: F811 - deliberate shadowing
            if m % 2:
                raise ValueError("symmetric pairing needs even powers")
            if m == 0:
                return factor_builder(0)
            half = factor_builder(m // 2)
            d0 = len(half)
            return [
                kron(half[j], sparse.transpose(half[d0 - 1 - j]))
                for j in range(d0)
            ]

    input_factors = builder(n)
    d = len(input_factors)
    if not verify_circuit(SynchronousCircuit(input_factors), [base] * n):
        raise UnverifiedInput("input factorization does not multiply to the target")
    if exponents is None:
        exponents = [
            Fraction(math.log(f.nnz, q)).limit_denominator(10**6) / n
            for f in input_factors
        ]
    a = [Fraction(x) for x in exponents]
    astar = max(a)
    b = 1 / (1 + sum(astar - aj for aj in a))
    bjs = [(astar - aj) * b for aj in a]
    ms = [int(bj * n) for bj in bjs]
    m0 = n - sum(ms)
    if sym and m0 % 2:
        # keep the balanced part even; shift one copy to the max slot
        m0 -= 1
        ms[a.index(astar)] += 1
    core = builder(m0) if m0 else [identity(1, base.ctx)] * d
    slots = _slots([base] * sum(ms), ms, identity(q, base.ctx))
    return SynchronousCircuit([[c] + b for c, b in zip(core, slots)], base=base, base_power=n)


def verify_circuit(circ: SynchronousCircuit, target) -> bool:
    """Whether the circuit's product equals target, compared exactly by
    one block check mod p, over F_p and Q alike.

    target is a matrix or, like a layer, a list of Kronecker operands.  Its
    sides are checked against sparse.DIMENSION_CAP, then against the
    circuit's shape, before anything is built.

    Over F_p no N x N array is built: the trailing operands form a dense
    `tail`, the longest suffix whose row block keeps at most 2^20 entries
    (8 MB of int64).  The product is walked in aligned row blocks
    lead_a x tail, lead_a the Kronecker product of one row of each leading
    operand, and each column group is compared with v * tail mod p.

    Over Q each operand m, of every layer and of the target, times den_m,
    the lcm of its denominators, is an integer matrix whose largest
    absolute row sum r_m bounds its entries.  That row sum is
    multiplicative under kron and submultiplicative along the chain, so
    with S and T the products of the circuit's and the target's den_m,
    D = T (S P) - S (T target) is an integer matrix with
    |D| <= T prod r_circuit + S prod r_target.  The block check runs on
    the operands reduced mod primes q downward from 2^31 - 1, skipping
    those that divide S T, until the product of the q passes twice that
    bound: D is zero exactly when it is zero mod each q.
    """
    one = identity(1, circ.ctx)  # keeps the leading operands and the tail non-empty
    ops = [one, *(target if isinstance(target, (list, tuple)) else [target])]
    rows = cols = 1
    for m in ops:  # one operand at a time: a side far above the cap stops at once
        rows, cols = rows * m.rows, cols * m.cols
        if max(rows, cols) > sparse.DIMENSION_CAP:
            raise DimensionCapExceeded(f"a target side is above the cap {sparse.DIMENSION_CAP}")
    if (circ.rows, circ.cols) != (rows, cols):
        raise DimensionMismatch(f"circuit is {circ.rows}x{circ.cols}, the target {rows}x{cols}")
    if any(m.ctx != circ.ctx for m in ops):
        raise ContextMismatch("circuit and target are over different fields")
    if circ.ctx.modulus:
        return _blocks_equal(circ, ops)
    layers = [[_integers(m) for m in layer] for layer in circ.layers]
    target = [_integers(m) for m in ops]
    s, r_circ = (math.prod(x[i] for layer in layers for x in layer) for i in (1, 3))
    t, r_target = (math.prod(x[i] for x in target) for i in (1, 3))
    return all(
        _blocks_equal(
            SynchronousCircuit([[_mod(x, ctx) for x in layer] for layer in layers]),
            [_mod(x, ctx) for x in target],
        )
        for ctx in _moduli(s * t, t * r_circ + s * r_target)
    )


def _blocks_equal(circ: SynchronousCircuit, ops) -> bool:
    """The F_p block check of verify_circuit; ops[0] is the 1 x 1 identity."""
    p = circ.ctx.modulus
    first, *rest = circ.factors
    rest = [f.to_csr() for f in rest]
    k = len(ops)
    while k > 1 and math.prod(m.rows for m in ops[k - 1 :]) * circ.cols <= 1 << 20:
        k -= 1
    tail = kron_all([ops[0], *ops[k:]]).to_csr().toarray()
    step, width = tail.shape
    for a, digits in enumerate(itertools.product(*(range(m.rows) for m in ops[:k]))):
        block = first.row_block(a * step, (a + 1) * step).to_csr()
        for f in rest:
            block = sparse._csr_mulmod(block, f, p)
        lead_a = kron_all([m.row_block(i, i + 1) for m, i in zip(ops, digits)])
        values, groups = np.unique(lead_a.to_csr().toarray(), return_inverse=True)
        want = values[:, None, None] * tail % p  # one reduction per distinct value
        got = block.toarray().reshape(step, -1, width)
        if not np.array_equal(got, want[groups.ravel()].swapaxes(0, 1)):
            return False
    return True


def _integers(m: SparseMatrix):
    """(m, den_m, nums, r_m) for m over Q: den_m is the lcm of m's
    denominators, nums the integer values of den_m * m, and r_m the
    largest absolute row sum of den_m * m."""
    den, nums = sparse._numerators(m.data)
    sums = np.cumsum(np.concatenate(([0], np.abs(nums))))
    return m, den, nums, max(sums[m.indptr[1:]] - sums[m.indptr[:-1]], default=0)


def _moduli(avoid: int, bound: int):
    """F_q for primes q downward from 2^31 - 1 that do not divide avoid,
    until the product of the q passes 2 * bound."""
    q, product = 2**31 + 1, 1
    while product <= 2 * bound:
        q -= 2
        if avoid % q and is_prime(q):
            product *= q
            yield FieldCtx(q)


def _mod(integers, ctx: FieldCtx) -> SparseMatrix:
    """The matrix m = nums / den_m of `_integers` reduced into ctx, by one
    inverse of den_m, which must be prime to ctx's p."""
    m, den, nums, _ = integers
    p = ctx.modulus
    values = (nums % p).astype(np.int64) * pow(den, -1, p) % p
    return sparse._summed(m.rows, m.cols, ctx, sparse._row_ids(m), m.indices, values)


# -- circuit file format ------------------------------------------------
#
# Header `circuit depth rows cols field wires`; then per factor a line
# `factor idx rows cols nnz` followed by its triplets.


def _circuit_text(circ: SynchronousCircuit):
    """The circuit file as a sequence of ASCII bytes, one whole block each."""
    yield f"circuit {circ.depth} {circ.rows} {circ.cols} {circ.ctx.modulus} {circ.wires}\n".encode()
    for idx in range(circ.depth):
        f = circ.factor(idx)
        yield f"factor {idx} {f.rows} {f.cols} {f.nnz}\n".encode()
        yield from sparse._format_entries(f)
        del f  # built one layer at a time: drop it before the next is built


def dump_circuit(circ: SynchronousCircuit) -> str:
    return b"".join(_circuit_text(circ)).decode()


def parse_circuit(text: str) -> SynchronousCircuit:
    """Read a circuit back from its text; ValueError if it is malformed.

    Each factor block must hold exactly its sub-header's nnz entries, and
    the header's depth, shape and wire count must match the factors.
    """
    head, *blocks = sparse._blocks(text.lstrip(), "factor")
    (depth, rows, cols, field, wires), rest = sparse._header(head, "circuit", 5)
    if rest.strip():
        raise ValueError("text between the header and the first factor")
    ctx = FieldCtx(field)
    if len(blocks) != depth:
        raise ValueError(f"header says {depth} factors, the file has {len(blocks)}")
    factors = []
    for idx, block in enumerate(blocks):
        (fidx, frows, fcols, fnnz), body = sparse._header(block, None, 4)
        if fidx != idx:
            raise ValueError(f"factor {fidx} found where factor {idx} belongs")
        factors.append(sparse._entries(body, frows, fcols, ctx, fnnz))
    circ = SynchronousCircuit(factors)
    if (circ.rows, circ.cols) != (rows, cols):
        raise ValueError("header shape does not match factors")
    if circ.wires != wires:
        raise ValueError("header wire count does not match factors")
    return circ


def save_circuit(circ: SynchronousCircuit, path) -> None:
    circ.check_caps()  # before the file is created
    with open(path, "wb") as fh:
        fh.writelines(_circuit_text(circ))


def load_circuit(path) -> SynchronousCircuit:
    with open(path) as fh:
        return parse_circuit(fh.read())
