"""Reference code for the tests, kept apart from the package.

Each check here has its own loops and shares no algorithm with the code it
checks: the seeded generator the randomized tests draw from, the
row-by-row sparse product with a dict per row, a matrix-vector product
and a circuit's product made of it, the entry-by-entry Kronecker product,
the multiply-until-one order scan for roots of unity, the line-by-line
points reader, the quadratic oracle for batch sums, the subset-by-subset
inclusion-exclusion expansion, its two identity checks, the exhaustive
check of a rectangle partition, the tuple recursion that builds that
partition, the entry-by-entry split of R_n into a low-rank part and a
sparse rest, the row-list Gaussian elimination, and the
candidate-by-candidate brute-force rigidity search built on it.
"""

import functools
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from kronrigid import sparse
from kronrigid.errors import ExceedsBound
from kronrigid.fields import FieldCtx
from kronrigid.rigidity import decomposition_from_low_rank
from kronrigid.sparse import SparseMatrix
from kronrigid.vf import TruthTable, inclusion_exclusion_expand, vf_matrix

_MASK = (1 << 64) - 1
SQUARE, RECT = "square", "rect"  # kinds of partition piece; a rect is a tall 2:1 rectangle


def triplets(m: SparseMatrix) -> list:
    """m's (i, j, value) triplets in row-major order."""
    return list(zip(sparse._row_ids(m).tolist(), m.indices.tolist(), m.data.tolist()))


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


def matmul_rows(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a x b row by row with the field's own arithmetic: one dict of
    partial sums per row of a, zero sums dropped."""
    ctx = a.ctx
    rows_a, rows_b = {}, {}
    for rows, m in ((rows_a, a), (rows_b, b)):
        for i, j, v in triplets(m):
            rows.setdefault(i, []).append((j, v))
    entries = []
    for i, row in rows_a.items():
        acc = {}
        for k, va in row:
            for j, vb in rows_b.get(k, ()):
                prod = ctx.mul_raw(va, vb)
                acc[j] = ctx.add_raw(acc[j], prod) if j in acc else prod
        entries += [(i, j, v) for j, v in acc.items() if v]
    return SparseMatrix(a.rows, b.cols, ctx, entries)


def apply_reference(a: SparseMatrix, x) -> list:
    """a times the vector x of raw values, as the product of a and the
    column x by matmul_rows."""
    ctx = a.ctx
    x = [ctx.coerce(v) for v in x]
    column = SparseMatrix(len(x), 1, ctx, [(k, 0, v) for k, v in enumerate(x) if v])
    out = [0] * a.rows
    for i, _, v in triplets(matmul_rows(a, column)):
        out[i] = v
    return out


def kron_reference(ops) -> SparseMatrix:
    """The Kronecker product of a list of operands, left operand on the
    high digits, one entry of each operand at a time from its triplets."""
    ctx = ops[0].ctx
    rows, cols, entries = 1, 1, [(0, 0, 1)]
    for m in ops:
        entries = [(i * m.rows + a, j * m.cols + b, ctx.mul_raw(v, w))
                   for i, j, v in entries for a, b, w in triplets(m)]
        rows, cols = rows * m.rows, cols * m.cols
    return SparseMatrix(rows, cols, ctx, entries)


def circuit_product(circ) -> SparseMatrix:
    """The product of a circuit's explicit factors, by matmul_rows."""
    return functools.reduce(matmul_rows, circ.factors)


def root_of_unity_reference(p: int, n: int) -> int:
    """The smallest w in F_p of order n, n | p - 1: w's order found by
    multiplying by w until the product is 1, at most n times."""
    for w in range(1, p):
        acc, order = w, 1
        while acc != 1 and order < n:
            acc, order = acc * w % p, order + 1
        if acc == 1 and order == n:
            return w
    raise ValueError(f"no element of order {n} in F_{p}")


def parse_points_reference(text: str):
    """One bitstring per line, read line by line: what vf.parse_points
    must accept, return and refuse."""
    points = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.strip("01"):
            raise ValueError(f"not a bitstring: {ln!r}")
        if ln:
            points.append(int(ln, 2))
    return points


def batch_sums_oracle(f: TruthTable, points, convention: str = "or"):
    """Quadratic reference: direct double loop over the multiset."""
    ctx = f.ctx
    out = {}
    for s in points:
        acc = 0
        for t in points:
            z = (s | t) if convention == "or" else (s & t)
            acc = ctx.add_raw(acc, f.values[z])
        out[s] = acc
    return out


def inclusion_exclusion_reference(f: TruthTable):
    """f_S(w) = sum over T subset of S of (-1)^(|S|-|T|) f(x_T), each sum
    enumerated subset by subset."""
    q, n, ctx = f.q, f.n, f.ctx
    out = {}
    for size in range(n + 1):
        for s in combinations(range(n), size):
            values = []
            for widx in range((q - 1) ** size):
                w = np.unravel_index(widx, (q - 1,) * size)
                acc = 0
                for tsize in range(size + 1):
                    for t in combinations(s, tsize):
                        x = [0] * n
                        for pos, slot in enumerate(s):
                            if slot in t:
                                x[slot] = w[pos] + 1
                        val = f.values[np.ravel_multi_index(x, (q,) * n)]
                        if (size - tsize) % 2:
                            acc = ctx.add_raw(acc, -val)
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
    for z in range(q**n):
        dz = np.unravel_index(z, (q,) * n)
        supp = [i for i in range(n) if dz[i]]
        acc = 0
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
    target = vf_matrix(f)
    acc = {}
    for s, table in expansion.items():
        slots = sorted(s)
        for x in range(size):
            dx = np.unravel_index(x, (q,) * n)
            for y in range(size):
                dy = np.unravel_index(y, (q,) * n)
                # the padded block covers pairs whose entrywise max is
                # positive on every slot of S
                if any(max(dx[i], dy[i]) == 0 for i in slots):
                    continue
                w = tuple(max(dx[i], dy[i]) - 1 for i in slots)
                v = table(w)
                if v:
                    key = (x, y)
                    acc[key] = ctx.add_raw(acc.get(key, 0), v)
    rebuilt = SparseMatrix.from_triplets(
        size, size, ctx, [(i, j, v) for (i, j), v in acc.items()]
    )
    return rebuilt == target


def validate_partition(pieces, n: int) -> bool:
    """Exhaustive check that pieces (rows, cols, kind) partition the ones
    of R_n: disjoint, all-ones, of their kind's shape, covering exactly."""
    seen = set()
    for rows, cols, kind in pieces:
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
    return len(seen) == 3**n


def side_sums(pieces) -> tuple:
    """(sum of the squares' sides, sum of the rectangles' short sides)."""
    return tuple(sum(len(cols) for _, cols, k in pieces if k == kind) for kind in (SQUARE, RECT))


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
    one = 1
    a_entries = []
    b_entries = []
    for p, (rows, cols, _) in enumerate(pieces):
        for x in rows:
            a_entries.append((x, p, one))
        for y in cols:
            b_entries.append((p, y, one))
    size, t = 1 << n, len(pieces)
    a = SparseMatrix(size, t, ctx, a_entries)
    b = SparseMatrix(t, size, ctx, b_entries)
    return a, b


def rn_split_reference(target, k: int):
    """(rank_bound, B, C, S) of target = R_n = B x C + S, walking R_n
    entry by entry: a light index (popcount < k) x gets the inner coordinates
    i and h + i, i its place among the h light indices.  An entry in a
    light row x goes to row i of C, one in a light column y of a heavy
    row to column h + i of B, and the rest to S; B then gets e_x in
    column i and C the row e_y^T at row h + i."""
    ctx, size = target.ctx, target.rows
    one = 1
    removed = [x for x in range(size) if bin(x).count("1") < k]
    col_of = {x: i for i, x in enumerate(removed)}
    h = len(removed)
    b_entries, c_entries, s_entries = [], [], []
    for i, j, v in triplets(target):
        if i in col_of:
            c_entries.append((col_of[i], j, v))
        elif j in col_of:
            b_entries.append((i, h + col_of[j], v))
        else:
            s_entries.append((i, j, v))
    for x in removed:
        b_entries.append((x, col_of[x], one))
        c_entries.append((h + col_of[x], x, one))
    b = SparseMatrix(size, 2 * h, ctx, b_entries)
    c = SparseMatrix(2 * h, size, ctx, c_entries)
    s = SparseMatrix(size, size, ctx, s_entries)
    return 2 * h, b, c, s


def eliminate_reference(rows, ctx: FieldCtx) -> list:
    """Reduce dense rows of raw values to reduced row echelon form, in
    place, and return the pivot columns; the first len(pivots) rows are
    then the nonzero RREF rows."""
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
        prow, rows[piv] = rows[piv], rows[k]
        inv = ctx.inv_raw(prow[c])
        if inv != 1:  # v - (1 - inv) v = inv v: scale to a leading 1
            prow = minus(prow, ctx.add_raw(1, -inv), prow)
        rows[k] = prow
        for i, row in enumerate(rows):
            if i != k and row[c]:
                rows[i] = minus(row, row[c], prow)
    return pivots


def brute_force_reference(m: SparseMatrix, r: int, max_changes: int):
    """(minimum, witness) of rigidity.brute_force_rigidity, one candidate
    at a time: patterns by size in combinations order, the values other
    than the originals in product order, one Gaussian elimination of a
    copied dense list per candidate; ExceedsBound past max_changes."""
    ctx, p = m.ctx, m.ctx.modulus
    dense = m.to_array().tolist()
    flat = [(i, j) for i in range(m.rows) for j in range(m.cols)]
    for size in range(max_changes + 1):
        for pattern in combinations(range(len(flat)), size):
            coords = [flat[c] for c in pattern]
            originals = [dense[i][j] for i, j in coords]
            choices = [[v for v in range(p) if v != orig] for orig in originals]
            for assignment in product(*choices):
                for (i, j), v in zip(coords, assignment):
                    dense[i][j] = v
                if len(eliminate_reference([list(row) for row in dense], ctx)) <= r:
                    low = SparseMatrix.from_dense(dense, ctx)
                    return size, decomposition_from_low_rank(m, low, r)
            for (i, j), v in zip(coords, originals):
                dense[i][j] = v
    raise ExceedsBound(max_changes)
