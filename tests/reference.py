"""Reference code for the tests, kept apart from the package.

Each check here has its own loops and shares no algorithm with the code it
checks: the seeded generator the randomized tests draw from, the quadratic
oracle for batch sums, the subset-by-subset inclusion-exclusion expansion,
its two identity checks, the exhaustive check of a rectangle partition,
the tuple recursion that builds that partition, and the entry-by-entry
split of R_n into a low-rank part and a sparse rest.
"""

from fractions import Fraction
from itertools import combinations

from kronrigid.disjoint import RECT, SQUARE, RectPartition
from kronrigid.fields import Scalar
from kronrigid.sparse import IndexCodec, SparseMatrix
from kronrigid.vf import TruthTable, inclusion_exclusion_expand, vf_matrix_general

_MASK = (1 << 64) - 1


class SplitMix64:
    """Reproducible 64-bit PRNG (splitmix64): byte-stable draws across
    platforms and Python versions, unlike random.Random internals."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, a: int, b: int) -> int:
        """Uniform in [a, b] inclusive."""
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def field_element(self, ctx):
        """Uniform raw residue; small random fraction in rational mode."""
        if ctx.is_prime_field:
            return self.randrange(ctx.modulus)
        return Fraction(self.randint(-8, 8), self.randint(1, 8))

    def nonzero_field_element(self, ctx):
        if not ctx.is_prime_field:
            return Fraction(self.randint(1, 8), self.randint(1, 8))
        return 1 + self.randrange(ctx.modulus - 1)


def batch_sums_oracle(f: TruthTable, points, convention: str = "or"):
    """Quadratic reference: direct double loop over the multiset."""
    ctx = f.ctx
    out = {}
    for s in points:
        acc = ctx.zero_raw()
        for t in points:
            z = (s | t) if convention == "or" else (s & t)
            acc = ctx.add_raw(acc, f.values[z])
        out[s] = Scalar(ctx, acc)
    return out


def inclusion_exclusion_reference(f: TruthTable):
    """f_S(w) = sum over T subset of S of (-1)^(|S|-|T|) f(x_T), each sum
    enumerated subset by subset."""
    q, n, ctx = f.q, f.n, f.ctx
    codec = IndexCodec(q, n)
    out = {}
    for size in range(n + 1):
        for s in combinations(range(n), size):
            sub = IndexCodec(q - 1, size)
            values = []
            for widx in range((q - 1) ** size):
                w = sub.decode(widx)
                acc = ctx.zero_raw()
                for tsize in range(size + 1):
                    for t in combinations(s, tsize):
                        x = [0] * n
                        for pos, slot in enumerate(s):
                            if slot in t:
                                x[slot] = w[pos] + 1
                        val = f.values[codec.encode(x)]
                        if (size - tsize) % 2:
                            acc = ctx.sub_raw(acc, val)
                        else:
                            acc = ctx.add_raw(acc, val)
                values.append(acc)
            out[frozenset(s)] = TruthTable(q - 1, size, ctx, tuple(values))
    return out


def expansion_identity_check(f: TruthTable, expansion=None) -> bool:
    """f(z) = sum over S subset of supp(z) of f_S at every point z."""
    if expansion is None:
        expansion = inclusion_exclusion_expand(f)
    q, n, ctx = f.q, f.n, f.ctx
    codec = IndexCodec(q, n)
    for z in range(q**n):
        dz = codec.decode(z)
        supp = [i for i in range(n) if dz[i]]
        acc = ctx.zero_raw()
        for size in range(len(supp) + 1):
            for s in combinations(supp, size):
                table = expansion[frozenset(s)]
                w = tuple(dz[i] - 1 for i in s)
                acc = ctx.add_raw(acc, table(w))
        if acc != f.values[z]:
            return False
    return True


def expansion_matrix_identity_check(f: TruthTable, expansion=None) -> bool:
    """Dense check that V_f (entrywise max) is the sum over S of the
    padded V_{f_S} blocks Kronecker-interleaved with all-ones slots."""
    if expansion is None:
        expansion = inclusion_exclusion_expand(f)
    q, n, ctx = f.q, f.n, f.ctx
    size = q**n
    codec = IndexCodec(q, n)
    target = vf_matrix_general(f)
    acc = {}
    for s, table in expansion.items():
        slots = sorted(s)
        for x in range(size):
            dx = codec.decode(x)
            for y in range(size):
                dy = codec.decode(y)
                # the padded block covers pairs whose entrywise max is
                # positive on every slot of S
                if any(max(dx[i], dy[i]) == 0 for i in slots):
                    continue
                w = tuple(max(dx[i], dy[i]) - 1 for i in slots)
                v = table(w)
                if v:
                    key = (x, y)
                    acc[key] = ctx.add_raw(acc.get(key, ctx.zero_raw()), v)
    rebuilt = SparseMatrix.from_triplets(
        size, size, ctx, [(i, j, v) for (i, j), v in acc.items()]
    )
    return rebuilt == target


def validate_partition(part: RectPartition) -> bool:
    """Exhaustive check: pieces disjoint, all-ones, covering exactly."""
    seen = set()
    for rows, cols, kind in part.pieces:
        if kind == SQUARE and len(rows) != len(cols):
            return False
        if kind == RECT and len(rows) != 2 * len(cols):
            return False
        for x in rows:
            for y in cols:
                if x & y:
                    return False  # outside the support
                cell = (x, y)
                if cell in seen:
                    return False
                seen.add(cell)
    return len(seen) == 3**part.n


def js_pieces_reference(n: int) -> tuple:
    """The pieces (rows, cols, kind) of the R_n partition, built as tuples
    by the block recursion R_n = [[R', R'], [R', 0]]: each square piece of
    R_{n-1} leaves its (0,1)-block copy as a square and fuses its (0,0)
    and (1,0) copies into a tall rectangle; each rectangle leaves its
    (1,0) copy as a rectangle and fuses its (0,0) and (0,1) copies into a
    double-size square."""
    pieces = [((0,), (1,), SQUARE), ((0, 1), (0,), RECT)]
    for level in range(2, n + 1):
        off = 1 << (level - 1)
        nxt = []
        for rows, cols, kind in pieces:
            rows_hi = tuple(x + off for x in rows)
            cols_hi = tuple(y + off for y in cols)
            if kind == SQUARE:
                nxt.append((rows, cols_hi, SQUARE))
                nxt.append((rows + rows_hi, cols, RECT))
            else:
                nxt.append((rows, cols + cols_hi, SQUARE))
                nxt.append((rows_hi, cols, RECT))
        pieces = nxt
    return tuple(pieces)


def js_factors_reference(pieces, n: int, ctx):
    """(A_n, B_n) from the pieces: column p of A_n indicates piece p's
    rows, row p of B_n its columns."""
    one = ctx.one_raw()
    a_entries = []
    b_entries = []
    for p, (rows, cols, _) in enumerate(pieces):
        for x in rows:
            a_entries.append((x, p, one))
        for y in cols:
            b_entries.append((p, y, one))
    size, t = 1 << n, len(pieces)
    a = SparseMatrix(size, t, ctx, sorted(a_entries), _checked=True)
    b = SparseMatrix(t, size, ctx, sorted(b_entries), _checked=True)
    return a, b


def rn_split_reference(target, k: int):
    """(rank_bound, B, C, S) of target = R_n = B x C + S, walking R_n
    entry by entry: a light index (popcount < k) x gets the inner coordinates
    i and h + i, i its place among the h light indices.  An entry in a
    light row x goes to row i of C, one in a light column y of a heavy
    row to column h + i of B, and the rest to S; B then gets e_x in
    column i and C the row e_y^T at row h + i."""
    ctx, size = target.ctx, target.rows
    one = ctx.one_raw()
    removed = [x for x in range(size) if bin(x).count("1") < k]
    col_of = {x: i for i, x in enumerate(removed)}
    h = len(removed)
    b_entries, c_entries, s_entries = [], [], []
    for i, j, v in target.entries:
        if i in col_of:
            c_entries.append((col_of[i], j, v))
        elif j in col_of:
            b_entries.append((i, h + col_of[j], v))
        else:
            s_entries.append((i, j, v))
    for x in removed:
        b_entries.append((x, col_of[x], one))
        c_entries.append((h + col_of[x], x, one))
    b = SparseMatrix(size, 2 * h, ctx, sorted(b_entries), _checked=True)
    c = SparseMatrix(2 * h, size, ctx, sorted(c_entries), _checked=True)
    s = SparseMatrix(size, size, ctx, s_entries, _checked=True)
    return 2 * h, b, c, s
