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
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sparse
from .errors import CapExceeded, ContextMismatch, DimensionMismatch, KronRigidError
from .fields import FieldCtx, is_prime
from .rigidity import RigidityDecomposition
from .sparse import SparseMatrix, identity, kron, kron_all, matmul


# Most wires a circuit may have to be built as explicit factors or written:
# `factors` takes about 25 B of peak memory per wire, so 2^27 wires
# is about 3.4 GB; the writer builds no layer, so for
# `--out` the cap bounds the file: about 14 B per wire at F_5 (1.8 GB),
# more for larger fields.
WIRE_CAP = 2**27


class SynchronousCircuit:
    """Factor chain A_1 x ... x A_d with exact wire accounting.

    Each layer is kept as its list of small Kronecker operands, left
    operand on the high digits; a plain SparseMatrix is a one-operand
    layer.  Kron multiplies shapes and nnz, so shapes and wires are
    products over the operands, and a layer is built as one explicit
    matrix only when `factors` asks for it.

    base_power, when known, is the t with the circuit computing the t-th
    Kronecker power of its base, which lets lift_power raise it further.
    """

    def __init__(self, layers, base_power=None):
        self.layers = [list(x) if isinstance(x, (list, tuple)) else [x] for x in layers]
        if not self.layers or not all(self.layers):
            raise ValueError("a circuit needs at least one factor, and a factor an operand")
        ctx = self.layers[0][0].ctx
        if any(m.ctx != ctx for ops in self.layers for m in ops):
            raise ContextMismatch("factors in different fields")
        self.shapes = [
            (math.prod(m.rows for m in ops), math.prod(m.cols for m in ops))
            for ops in self.layers
        ]
        for (_, a_cols), (b_rows, _) in zip(self.shapes, self.shapes[1:]):
            if a_cols != b_rows:
                raise DimensionMismatch(
                    f"factor chain breaks: {a_cols} cols vs {b_rows} rows"
                )
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
        sparse._check_dims(*itertools.chain.from_iterable(self.shapes))
        if self.wires > WIRE_CAP:
            raise CapExceeded(f"{self.wires} wires exceed the cap {WIRE_CAP} for explicit factors")

    @property
    def factors(self):
        """Every layer as an explicit matrix, after check_caps; built anew on each access."""
        self.check_caps()
        return [kron_all(ops) for ops in self.layers]

    def __repr__(self):
        return (
            f"SynchronousCircuit(depth={self.depth}, {self.rows}x{self.cols}, "
            f"wires={self.wires})"
        )


@dataclass(frozen=True)
class TwoFactorization:
    """M = B x C = C' x B' through an inner dimension h.  M is not kept:
    prove_power checks each circuit built from the operands against its
    family's unit."""

    B: SparseMatrix  # q x h
    C: SparseMatrix  # h x q
    B_prime: SparseMatrix  # h x q
    C_prime: SparseMatrix  # q x h

    @property
    def q(self) -> int:
        return self.B.rows

    @property
    def h(self) -> int:
        return self.B.cols

    @property
    def exponent(self) -> float:
        """The wire-growth exponent c = log_q(nnz(B) nnz(C)) - 2: the
        depth-d circuit has about d * N^(1+c/d) wires."""
        return math.log(self.B.nnz * self.C.nnz, self.q) - 2


def two_factor_from_rigidity(d: RigidityDecomposition) -> TwoFactorization:
    """M = (S | B_lr) x (I_q / C_lr), inner dimension h = q + r.

    The primed pair comes from the transposed decomposition:
    M = (I_q | B_lr) x (S / C_lr), so either ordering puts the sparse
    block first or last.
    """
    m = d.target
    if not m.is_square:
        raise DimensionMismatch("two-factorization needs a square target")
    q = m.rows
    b = sparse.concat_h(d.S, d.B_lr)
    c = sparse.stack_v(identity(q, m.ctx), d.C_lr)
    c_prime = sparse.concat_h(identity(q, m.ctx), d.B_lr)
    b_prime = sparse.stack_v(d.S, d.C_lr)
    return TwoFactorization(b, c, b_prime, c_prime)


def symmetrized_depth_d(tf: TwoFactorization, d: int) -> SynchronousCircuit:
    """Depth-d circuit for M^{kron d}: factor j is the Kronecker product,
    over the d ways to write M as a product of d terms, of their
    position-j terms.  Expression i < d-1 is I_q...I_q B C I_q...I_q with
    B at position i; the last is C' I_h...I_h B', its interior identities
    in the inner dimension h so the chain types check.  The mixed-product
    property makes the factor product equal M^{kron d} directly, with no
    explicit permutations."""
    if d < 2:
        raise DimensionMismatch("depth must be at least 2")
    iq = identity(tf.q, tf.B.ctx)
    ih = identity(tf.h, tf.B.ctx)
    exprs = [[iq] * i + [tf.B, tf.C] + [iq] * (d - i - 2) for i in range(d - 1)]
    exprs.append([tf.C_prime] + [ih] * (d - 2) + [tf.B_prime])
    layers = [[e[j] for e in exprs] for j in range(d)]
    return SynchronousCircuit(layers, base_power=d)


def lift_power(circ: SynchronousCircuit, n: int) -> SynchronousCircuit:
    """Raise a circuit for M^{kron t} to one for M^{kron n}, t | n: each
    layer's operand list is repeated n/t times, so per-factor nnz is
    exactly b_j^{n/t}.  ValueError when n is not a multiple of t."""
    if circ.base_power is None:
        raise ValueError("circuit does not record its base power")
    t = circ.base_power
    if n == t:
        return circ
    if n < 1 or n % t:
        raise ValueError(f"n = {n} is not a positive multiple of the base power {t}")
    layers = [ops * (n // t) for ops in circ.layers]
    return SynchronousCircuit(layers, base_power=n)


def base_digits(tf: TwoFactorization, unit: SparseMatrix) -> int:
    """The t with tf.q = unit.rows^t, the digits one base operand covers;
    ValueError when tf.q is no power of the unit's size."""
    q = unit.rows
    t = max(1, round(math.log(tf.q, q)))
    if q**t != tf.q:
        raise ValueError(f"a base of {tf.q} rows is no Kronecker power of the {q}x{q} unit")
    return t


def synthesize(
    tf: TwoFactorization, unit: SparseMatrix, n: int, d: int
) -> SynchronousCircuit:
    """Depth-d circuit for unit^{kron n} from a two-factorization of
    unit^{kron t}; t is base_digits(tf, unit).  Whether the base really is
    unit^{kron t} is for prove_power to decide on the circuit.

    The largest multiple of t*d digits is the symmetrized circuit lifted
    by Kronecker powers.  The k digits left over ride along in k one-digit
    butterfly slots at the end of every layer: factor j is widened by
    I x unit^{kron k_j} x I, the k_j as even as possible and the earlier
    factors taking the extra copies."""
    if d < 2:
        raise DimensionMismatch("depth must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    reps, k = divmod(n, base_digits(tf, unit) * d)
    sym = lift_power(symmetrized_depth_d(tf, d), reps * d).layers if reps else [[]] * d
    slots = _slots([unit] * k, [k // d + (j < k % d) for j in range(d)], identity(unit.rows, unit.ctx))
    return SynchronousCircuit([a + b for a, b in zip(sym, slots)], base_power=n)


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
        raise DimensionMismatch(f"group {group} does not divide {n}")
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
        raise KronRigidError("input factorization does not multiply to the target")
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
    return SynchronousCircuit([[c] + b for c, b in zip(core, slots)], base_power=n)


def prove_power(circ: SynchronousCircuit, unit: SparseMatrix, n: int, shapes=()):
    """Whether the circuit's product is unit^{kron n}, decided exactly on
    Kronecker operands: True, False, or None when undecided.

    A one-operand layer, as read from a file, is peeled by
    sparse.kron_split, trying the unit's shape, then `shapes`.  A cut is
    where each layer's column prefix size equals the next one's row prefix
    size and the first layer's row prefix the last one's column prefix, so
    by the mixed-product property the product is the Kronecker product of
    the chain products between cuts.  Each distinct chain (identities
    dropped, compared by value) must be lambda_g unit^{kron t_g}, and the
    lambda_g must multiply to 1.  None when n < 1, the sizes are not q^n,
    a layer stays one operand, there is no cut, or a chain is not a
    multiple of a unit power.  A chain is multiplied out one row block of
    unit^{kron t_g} at a time (_row_blocks), with one lambda_g for all.
    All of it is exact in the circuit's own field, Q included.
    """
    q, ctx = unit.rows, unit.ctx
    if n < 1 or circ.ctx != ctx or (circ.rows, circ.cols) != (q**n, q**n):
        return None
    candidates = [(r, c) for r, c in [(q, q), *shapes] if r * c > 1]
    layers = [ops if len(ops) > 1 else _peel(ops[0], candidates) for ops in circ.layers]
    if any(len(ops) == 1 for ops in layers):
        return None
    rows, cols = ([list(itertools.accumulate((getattr(m, side) for m in ops), operator.mul, initial=1))
                   for ops in layers] for side in ("rows", "cols"))
    where = [{v: k for k, v in reversed(list(enumerate(r)))} for r in rows]
    ends = [len(ops) for ops in layers]
    cuts = [[0] * len(layers)]
    for k0 in range(1, ends[0]):
        ks = [k0]
        for j in range(1, len(layers)):  # -1: no such prefix, refused below
            ks.append(where[j].get(cols[j - 1][ks[-1]], -1))
        if cols[-1][ks[-1]] == rows[0][k0] and all(a < b < e for a, b, e in zip(cuts[-1], ks, ends)):
            cuts.append(ks)
    if len(cuts) == 1:
        return None
    seen, total = {}, 1
    for lo, hi in zip(cuts, cuts[1:] + [ends]):
        chain = tuple(kron_all(ops[a:b]) for ops, a, b in zip(layers, lo, hi)
                      if not all(m == identity(m.rows, ctx) for m in ops[a:b]))
        size = rows[0][hi[0]] // rows[0][lo[0]]
        key = (size, tuple((m.rows, m.cols, m.nnz) for m in chain))
        for other, lam in seen.get(key, ()):
            if all(a is b or a == b for a, b in zip(chain, other)):
                break
        else:
            t = round(math.log(size, q))
            if size == 1:  # a 1 x 1 chain product is its lambda, times unit^{kron 0}
                lam = functools.reduce(matmul, chain, identity(1, ctx)).get(0, 0)
            elif q**t != size or not chain:
                return None
            else:
                lams = set()
                for r, a, b in _row_blocks([unit] * t):
                    u = kron(a, b)
                    m = functools.reduce(matmul, chain[1:], chain[0].row_block(r, r + u.rows))
                    if u.nnz or m.nnz:  # empty rows of the unit power need empty rows of the chain
                        lams.add(_multiple(m, u))
                lam = lams.pop() if len(lams) == 1 else None
            seen.setdefault(key, []).append((chain, lam))
        if lam is None:
            return None
        total = ctx.mul_raw(total, lam)
    return total == 1


def _peel(m: SparseMatrix, shapes) -> list:
    """m as a list of Kronecker operands: the first of shapes that splits
    off the front of m, then the operands of the rest."""
    for r, c in shapes:
        split = (r, c) != (m.rows, m.cols) and sparse.kron_split(m, r, c)
        if split:
            return [split[0], *_peel(split[1], shapes)]
    return [m]


def _multiple(m: SparseMatrix, u: SparseMatrix):
    """The lambda with m == lambda u, or None."""
    if not m.nnz or m.nnz != u.nnz:
        return None
    ctx = m.ctx
    lam = ctx.mul_raw(m.data[:1].tolist()[0], ctx.inv_raw(u.data[:1].tolist()[0]))
    return lam if sparse.scale(u, lam) == m else None


def verify_circuit(circ: SynchronousCircuit, target) -> bool:
    """Whether the circuit's product equals target, compared exactly by
    one block check mod p, over F_p and, on its images mod primes (see
    _images), over Q.

    target is a matrix or, like a layer, a list of Kronecker operands.  Its
    sides are checked against sparse.DIMENSION_CAP, then against the
    circuit's shape, before anything is built.

    The block check first multiplies both sides by k seeded random columns
    X over F_p, p^k >= 2^20 (Freivalds 1979): the circuit's layers last
    first, the target by sparse.kron_apply with a factor I_k, both exactly
    mod p.  P X != T X proves P != T, so a mismatch decides False at a cost
    of wires * k plus k kron_apply passes; an unequal product gets past all
    k columns with probability at most 2^-20, which costs only time.  The
    columns go in passes of c, the most (at least one) with c times the
    larger side at most 2^20, so X and T X hold O(max(2^20, N)) entries.

    Then no N x N array is built: the trailing operands form a dense
    `tail`, the longest suffix whose row block keeps at most 2^20 entries
    (8 MB of int64).  The product is walked in aligned row blocks
    lead_a x tail, lead_a the Kronecker product of one row of each leading
    operand, and each column group is compared with v * tail mod p.  Only
    this walk decides True.
    """
    one = identity(1, circ.ctx)  # keeps the leading operands and the tail non-empty
    ops = [one, *(target if isinstance(target, (list, tuple)) else [target])]
    rows = cols = 1
    for m in ops:  # one operand at a time: a side far above the cap stops at once
        rows, cols = rows * m.rows, cols * m.cols
        sparse._check_dims(rows, cols)
    if (circ.rows, circ.cols) != (rows, cols):
        raise DimensionMismatch(f"circuit is {circ.rows}x{circ.cols}, the target {rows}x{cols}")
    if any(m.ctx != circ.ctx for m in ops):
        raise ContextMismatch("circuit and target are over different fields")
    if circ.ctx.modulus:
        return _blocks_equal(circ, ops)
    return all(_blocks_equal(c, o) for c, o in _images(circ, ops))


def _blocks_equal(circ: SynchronousCircuit, ops) -> bool:
    """The F_p block check of verify_circuit, seeded random columns first;
    ops[0] is the 1 x 1 identity."""
    import scipy.sparse  # loaded here alone, as in SparseMatrix.to_csr

    p = circ.ctx.modulus
    first, *rest = circ.factors
    rest = [f.to_csr() for f in rest]
    cols = next(c for c in itertools.count(1) if p**c >= 1 << 20)  # a slip has chance p^-cols <= 2^-20
    chunk = max(1, (1 << 20) // max(circ.rows, circ.cols))  # columns per pass
    rng, down = np.random.default_rng(0), [*rest[::-1], first.to_csr()]
    for start in range(0, cols, chunk):
        c = min(chunk, cols - start)
        x = rng.integers(0, p, (circ.cols, c))
        got = scipy.sparse.csr_matrix(x)
        for f in down:
            got = sparse._csr_mulmod(f, got, p)
        want = sparse.kron_apply([*ops, identity(c, circ.ctx)], x)  # consumes x
        if not np.array_equal(got.toarray(), want.reshape(-1, c)):
            return False
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


def _images(circ: SynchronousCircuit, target):
    """(image, image_target) pairs: the images over F_q of a circuit over
    Q and of its target's Kronecker operands, for enough primes q that the
    product equals the target over Q exactly when it does on every image.

    Each operand m, of every layer and of the target, times den_m, the lcm
    of its denominators, is an integer matrix whose largest absolute row
    sum r_m bounds its entries.  That row sum is multiplicative under kron
    and submultiplicative along the chain, so with S and T the products of
    the circuit's and the target's den_m, D = T (S P) - S (T target) is an
    integer matrix with |D| <= T prod r_circuit + S prod r_target.  The
    primes q go downward from 2^31 - 1, skipping those that divide S T,
    until their product passes twice that bound: D is zero exactly when it
    is zero mod each q.  Each distinct operand is reduced once per prime.
    """
    distinct = {id(m): m for m in (*itertools.chain.from_iterable(circ.layers), *target)}
    integers = {key: _integers(m) for key, m in distinct.items()}
    s, r_circ = (math.prod(integers[id(m)][i] for layer in circ.layers for m in layer) for i in (1, 3))
    t, r_target = (math.prod(integers[id(m)][i] for m in target) for i in (1, 3))
    for ctx in _moduli(s * t, t * r_circ + s * r_target):
        image = {key: _mod(x, ctx) for key, x in integers.items()}
        yield (SynchronousCircuit([[image[id(m)] for m in layer] for layer in circ.layers]),
               [image[id(m)] for m in target])


def _integers(m: SparseMatrix):
    """(m, den_m, nums, r_m) for m over Q: den_m is the lcm of m's
    denominators, nums the integer values of den_m * m, and r_m the
    largest absolute row sum of den_m * m."""
    den, nums = sparse._numerators(m.data)
    if nums.size and np.abs(nums).max() < 2**31:  # prefix sums of < 2^32 such entries fit int64
        nums = nums.astype(np.int64)
    sums = np.cumsum(np.concatenate(([0], np.abs(nums))))
    return m, den, nums, int(max(sums[m.indptr[1:]] - sums[m.indptr[:-1]], default=0))


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


# Entries per run of _row_blocks (written layers, proved unit powers): a block
# holds at most twice this, or one longer product row and under this many more.
WRITE_BLOCK = 1 << 16


def _circuit_text(circ: SynchronousCircuit):
    """The circuit file as a sequence of ASCII bytes, one whole block each."""
    yield f"circuit {circ.depth} {circ.rows} {circ.cols} {circ.ctx.modulus} {circ.wires}\n".encode()
    for idx, (ops, (rows, cols), nnz) in enumerate(zip(circ.layers, circ.shapes, circ.per_factor_nnz)):
        yield f"factor {idx} {rows} {cols} {nnz}\n".encode()
        yield from sparse._kron_lines(_row_blocks(ops), nnz)


def _row_blocks(ops):
    """kron_all(ops) as (first row, head block, tail block) triples in row
    order, kron(head block, tail block) the product's rows from the first
    row on.  No block is built.

    tail is the Kronecker product of the longest operand suffix after the
    first operand with at most WRITE_BLOCK entries, head that of the
    operands before it.  Rows lo..hi-1 of head x tail are head's rows
    lo..hi-1 x tail (Van Loan 2000), so head's rows are cut into _runs.  A
    head row whose entries times tail's pass WRITE_BLOCK is cut over tail's
    rows instead, and the rest of its run, which may hold no entry, follows.
    """
    s = 1
    while s < len(ops) and math.prod(m.nnz for m in ops[s:]) > WRITE_BLOCK:
        s += 1
    head = kron_all(ops[:s])
    tail = kron_all(ops[s:]) if s < len(ops) else identity(1, head.ctx)
    for lo, hi in _runs(head.indptr * tail.nnz):
        weight = int(head.indptr[lo + 1] - head.indptr[lo])
        if weight * tail.nnz > WRITE_BLOCK:
            for a, b in _runs(tail.indptr * weight):
                yield lo * tail.rows + a, head.row_block(lo, lo + 1), tail.row_block(a, b)
            lo += 1
        if lo < hi:
            yield lo * tail.rows, head.row_block(lo, hi), tail


def _runs(ends):
    """(lo, hi) runs of the rows whose entries end at ends[1:], cut at row 0 and at the row
    holding each multiple of WRITE_BLOCK: a run is empty rows before the first entry, or its
    first row and under WRITE_BLOCK more entries."""
    cuts = np.union1d(0, np.searchsorted(ends, np.arange(0, ends[-1], WRITE_BLOCK), side="right") - 1)
    return zip(cuts.tolist(), [*cuts[1:].tolist(), len(ends) - 1])


def dump_circuit(circ: SynchronousCircuit) -> str:
    circ.check_caps()
    return b"".join(_circuit_text(circ)).decode()


def parse_circuit(text: str) -> SynchronousCircuit:
    """Read a circuit back from its text; ValueError if it is malformed.

    A header of more than WIRE_CAP wires raises CapExceeded before any
    factor is read.  Each factor block must hold exactly its sub-header's
    nnz entries, and the header's depth, shape and wire count must match
    the factors.
    """
    head, *blocks = sparse._blocks(text.lstrip(), "factor")
    (depth, rows, cols, field, wires), rest = sparse._header(head, "circuit", 5)
    if wires > WIRE_CAP:  # what save_circuit would refuse to write
        raise CapExceeded(f"{wires} wires exceed the cap {WIRE_CAP}")
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
