import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kronrigid import sparse, vf
from kronrigid.disjoint import disjointness_matrix
from kronrigid.errors import CapExceeded, ContextMismatch, DimensionMismatch
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.rigidity import hadamard_matrix
from kronrigid.sparse import SparseMatrix

from reference import SplitMix64, apply_reference, matmul_rows, triplets

F5 = FieldCtx(5)
F7 = FieldCtx(7)


def random_matrix(rng, rows, cols, ctx, density=10):
    entries = {}
    for _ in range(density):
        entries[(rng.randrange(rows), rng.randrange(cols))] = rng.randrange(
            ctx.modulus
        )
    return SparseMatrix.from_triplets(
        rows, cols, ctx, [(i, j, v) for (i, j), v in entries.items()]
    )


def dense_matmul_oracle(a, b):
    ctx = a.ctx
    da, db = a.to_array().tolist(), b.to_array().tolist()
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc = ctx.add_raw(acc, ctx.mul_raw(da[i][k], db[k][j]))
            row.append(acc)
        out.append(row)
    return SparseMatrix.from_dense(out, ctx)


def test_entry_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, F5, [(0, 0, 0)])  # explicit zero
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, F5, [(0, 0, 1), (0, 0, 2)])  # duplicate
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, F5, [(2, 0, 1)])  # out of bounds
    with pytest.raises(ValueError, match="is not a residue"):
        SparseMatrix(2, 2, F5, [(0, 0, 7)])
    with pytest.raises(ValueError, match="does not fit the matrix"):
        SparseMatrix(2, 2, F5, [(0, 0, 2**64)])


def test_entry_validation_over_q_takes_exact_rationals_only():
    # a float would be written as "0.5", which no reader takes back
    for bad in (0.5, 2.0, "3", None):
        with pytest.raises(ValueError, match=r"at \(0, 1\) is not an exact rational"):
            SparseMatrix(1, 2, RATIONALS, [(0, 0, 1), (0, 1, bad)])
    m = SparseMatrix(1, 3, RATIONALS, [(0, 0, 2), (0, 1, np.int64(-3)), (0, 2, Fraction(1, 2))])
    assert [type(v) for v in m.data.tolist()] == [int, int, Fraction]  # a numpy integer is stored as an int
    assert sparse.parse_matrix(sparse.dump_matrix(m)) == m


def test_kron_h2_display():
    # the 4x4 matrix H_2 = H_1 kron H_1
    h2 = hadamard_matrix(2, F5)
    expected = SparseMatrix.from_dense(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        F5,
    )
    assert h2 == expected


def test_kron_disjointness_nnz():
    r1 = disjointness_matrix(1, F5)
    r2 = sparse.kron(r1, r1)
    assert r2.nnz == 9
    assert r2 == disjointness_matrix(2, F5)


def test_kron_identity_neutral():
    rng = SplitMix64(21)
    a = random_matrix(rng, 3, 4, F7)
    assert sparse.kron(a, sparse.identity(1, F7)) == a
    assert sparse.kron(sparse.identity(1, F7), a) == a


def test_kron_nnz_multiplicativity():
    rng = SplitMix64(22)
    for _ in range(10):
        a = random_matrix(rng, 3, 3, F7)
        b = random_matrix(rng, 4, 2, F7)
        k = sparse.kron(a, b)
        assert k.nnz == a.nnz * b.nnz
        assert k.nnz_r == a.nnz_r * b.nnz_r
        assert k.nnz_c == a.nnz_c * b.nnz_c


def test_kron_ctx_mismatch_and_cap(monkeypatch):
    a = sparse.identity(2, F5)
    b = sparse.identity(2, F7)
    with pytest.raises(ContextMismatch):
        sparse.kron(a, b)
    monkeypatch.setattr(sparse, "DIMENSION_CAP", 3)
    with pytest.raises(CapExceeded):
        sparse.kron(sparse.identity(2, F5), sparse.identity(2, F5))


def test_matmul_r1_inverse():
    r1 = disjointness_matrix(1, F5)
    r1_inv = SparseMatrix.from_dense([[0, 1], [1, -1]], F5)
    assert sparse.matmul(r1, r1_inv) == sparse.identity(2, F5)


def test_matmul_permutations():
    p1 = SparseMatrix.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]], F5)
    p2 = SparseMatrix.from_dense([[0, 0, 1], [1, 0, 0], [0, 1, 0]], F5)
    prod = sparse.matmul(p1, p2)
    assert prod.nnz == 3 and prod.nnz_r == 1 and prod.nnz_c == 1


def test_mixed_product_property():
    rng = SplitMix64(23)
    for _ in range(10):
        a = random_matrix(rng, 3, 3, F7)
        b = random_matrix(rng, 3, 3, F7)
        c = random_matrix(rng, 3, 3, F7)
        d = random_matrix(rng, 3, 3, F7)
        lhs = sparse.matmul(sparse.kron(a, b), sparse.kron(c, d))
        rhs = sparse.kron(sparse.matmul(a, c), sparse.matmul(b, d))
        assert lhs == rhs


def test_matmul_against_dense_oracle():
    rng = SplitMix64(24)
    for _ in range(20):
        rows, mid, cols = rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 16)
        a = random_matrix(rng, rows, mid, F7, density=rows * mid // 2 + 1)
        b = random_matrix(rng, mid, cols, F7, density=mid * cols // 2 + 1)
        assert sparse.matmul(a, b) == dense_matmul_oracle(a, b)


def test_matmul_kernel_matches_row_loop():
    # both product kernels against the field-generic row loop, on dense-ish
    # input; over Q the entries have both signs and denominators 1 to 3
    rng = SplitMix64(25)
    pairs = [[random_matrix(rng, 40, 40, F7, density=700) for _ in range(2)]]
    for _ in range(2):
        pairs.append([SparseMatrix.from_triplets(40, 40, RATIONALS, [
            (rng.randrange(40), rng.randrange(40), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            for _ in range(700)
        ]) for _ in range(2)])
    # (1, 1) . (1/2, -1/2) cancels: the product stores no zero there
    half = Fraction(1, 2)
    pairs.append([SparseMatrix.from_dense([[1, 1], [1, 2]], RATIONALS),
                  SparseMatrix.from_dense([[half, 1], [-half, 1]], RATIONALS)])
    for a, b in pairs:
        got = sparse.matmul(a, b)
        assert got == matmul_rows(a, b)  # the same CSR arrays
        assert not (got.data == 0).any()
    assert got.to_array().tolist() == [[0, 2], [-half, 3]]


@pytest.mark.parametrize("ctx", [F5, FieldCtx(2**31 - 1), RATIONALS], ids=str)
def test_to_array_matches_the_triplets(ctx):
    rng = SplitMix64(12)
    # with empty rows, and with no rows or no columns at all
    mats = [random_matrix(rng, 6, 5, F5, density=12), sparse.identity(3, F5),
            SparseMatrix(4, 3, F5, [(2, 1, 4)]), SparseMatrix(0, 3, F5, []), SparseMatrix(3, 0, F5, [])]
    big = SparseMatrix(2, 2, ctx, [(0, 1, ctx.coerce(-1)), (1, 1, ctx.coerce(Fraction(2, 3)))])
    for m in [SparseMatrix.from_triplets(m.rows, m.cols, ctx, triplets(m)) for m in mats] + [big]:
        got = m.to_array()
        assert got.shape == (m.rows, m.cols) and got.dtype == np.dtype(ctx.dtype)
        want = [[0] * m.cols for _ in range(m.rows)]
        for i, j, v in triplets(m):
            want[i][j] = v
        assert got.tolist() == want
        assert all(type(v) is (int if v == round(v) else Fraction) for v in got.ravel().tolist())


def test_to_csr_holds_the_same_arrays_over_fp_only():
    m = random_matrix(SplitMix64(11), 6, 9, F7, density=20)
    c = m.to_csr()
    assert c.format == "csr" and c.shape == (6, 9)
    for got, want in ((c.indptr, m.indptr), (c.indices, m.indices), (c.data, m.data)):
        assert np.array_equal(got, want)
    assert np.shares_memory(c.data, m.data)  # scipy may narrow the index arrays to int32
    with pytest.raises(ValueError, match="^csr export requires a prime field$"):
        SparseMatrix(2, 2, RATIONALS, [(0, 1, Fraction(1, 2))]).to_csr()


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sparse.matmul(sparse.identity(2, F5), sparse.identity(3, F5))


def test_rank_examples():
    assert sparse.rank(hadamard_matrix(2, F5)) == 4
    ones = SparseMatrix.from_dense([[1] * 8 for _ in range(8)], F5)
    assert sparse.rank(ones) == 1


def test_rank_multiplicativity():
    rng = SplitMix64(26)
    for _ in range(50):
        a = random_matrix(rng, 4, 4, F7, density=9)
        b = random_matrix(rng, 4, 4, F7, density=9)
        assert sparse.rank(sparse.kron(a, b)) == sparse.rank(a) * sparse.rank(b)


def test_rank_rational():
    m = SparseMatrix.from_dense(
        [[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]], RATIONALS
    )
    assert sparse.rank(m) == 1


def test_kron_power_h3():
    h3 = sparse.kron_power(hadamard_matrix(1, F5), 3)
    assert h3.nnz == 64
    assert set(h3.data.tolist()) == {1, 4}  # +-1 mod 5


def test_apply_identity():
    v = [F5.coerce(x) for x in (1, 2, 3, 4)]
    assert sparse.kron_apply([sparse.identity(4, F5)], np.array(v)).tolist() == v


def _mixed_operands(rng, ctx, pick):
    """A shuffled run of 2x1, 3x3 and 2x2-with-a-zero-and-a-minus-one operands."""
    column = SparseMatrix.from_dense([[pick()], [pick()]], ctx)
    square = SparseMatrix.from_dense([[pick() for _ in range(3)] for _ in range(3)], ctx)
    signed = SparseMatrix.from_dense([[pick(), 0], [-1, pick()]], ctx)
    ops = [column, square, signed, column, signed]
    return [ops.pop(rng.randrange(len(ops))) for _ in range(len(ops) - rng.randrange(2))]


def _check_kron_apply(ops, u, ctx):
    want = apply_reference(sparse.kron_all(ops), u)
    got = sparse.kron_apply(ops, np.array(u, ctx.dtype))
    assert got.tolist() == want


def test_kron_apply_matches_the_built_product():
    rng = SplitMix64(32)
    for ctx in (F7, FieldCtx(101)):
        for _ in range(20):
            ops = _mixed_operands(rng, ctx, lambda: rng.randrange(ctx.modulus))
            size = np.prod([op.cols for op in ops])
            _check_kron_apply(ops, [rng.randrange(ctx.modulus) for _ in range(size)], ctx)


def test_kron_apply_at_the_largest_modulus():
    # every entry p - 1: each product and sum is as large as it gets in int64
    ctx = FieldCtx(2**31 - 1)
    rng = SplitMix64(33)
    for _ in range(10):
        ops = _mixed_operands(rng, ctx, lambda: ctx.modulus - 1)
        _check_kron_apply(ops, [ctx.modulus - 1] * np.prod([op.cols for op in ops]), ctx)
    many = SparseMatrix.from_dense([[ctx.modulus - 1] * 8, [ctx.modulus - 2] * 8], ctx)
    _check_kron_apply([many] * 3, [ctx.modulus - 1] * 512, ctx)


def test_kron_apply_over_q_with_mixed_denominators():
    rng = SplitMix64(34)
    values = [Fraction(1, 3), Fraction(-2, 5), Fraction(7), Fraction(0), Fraction(5, 6)]
    for _ in range(10):
        ops = _mixed_operands(rng, RATIONALS, lambda: rng.choice(values))
        size = np.prod([op.cols for op in ops])
        _check_kron_apply(ops, [rng.choice(values) for _ in range(size)], RATIONALS)


def test_kron_apply_small_cases():
    r1 = disjointness_matrix(1, F7)
    u = np.array([1, 2, 3, 4], dtype=np.int64)
    assert sparse.kron_apply([r1, r1], u).tolist() == [10 % 7, 4, 3, 1]
    with pytest.raises(DimensionMismatch):
        sparse.kron_apply([r1, r1], np.zeros(8, dtype=np.int64))
    assert sparse.kron_apply([], np.array([3])).tolist() == [3]


def test_concat_stack_prop():
    # (X1 | X3) x (X2 / X4) = X1 X2 + X3 X4
    rng = SplitMix64(27)
    for _ in range(10):
        x1 = random_matrix(rng, 3, 3, F7)
        x2 = random_matrix(rng, 3, 2, F7)
        x3 = random_matrix(rng, 3, 3, F7)
        x4 = random_matrix(rng, 3, 2, F7)
        lhs = sparse.matmul(sparse.concat_h(x1, x3), sparse.stack_v(x2, x4))
        rhs = sparse.add_mat(sparse.matmul(x1, x2), sparse.matmul(x3, x4))
        assert lhs == rhs


def test_diagonal_scaling_preserves_sparsity():
    rng = SplitMix64(28)
    a = random_matrix(rng, 5, 5, F7, density=12)
    d = sparse.diagonal([rng.nonzero_field_element(F7) for _ in range(5)], F7)
    left = sparse.matmul(d, a)
    right = sparse.matmul(a, d)
    for scaled in (left, right):
        assert scaled.nnz == a.nnz
        assert scaled.nnz_r == a.nnz_r
        assert scaled.nnz_c == a.nnz_c


def test_nnz_r_submultiplicative():
    rng = SplitMix64(29)
    for _ in range(10):
        a = random_matrix(rng, 4, 4, F7, density=8)
        b = random_matrix(rng, 4, 4, F7, density=8)
        assert sparse.matmul(a, b).nnz_r <= a.nnz_r * b.nnz_r


def test_transpose():
    rng = SplitMix64(30)
    a = random_matrix(rng, 3, 5, F7)
    assert sparse.transpose(sparse.transpose(a)) == a


def test_text_format_roundtrip(tmp_path):
    rng = SplitMix64(31)
    a = random_matrix(rng, 6, 4, F7, density=10)
    path = tmp_path / "m.mat"
    sparse.save_matrix(a, path)
    assert sparse.load_matrix(path) == a
    # rationals with fractional values
    b = SparseMatrix.from_dense(
        [[Fraction(1, 3), 0], [2, Fraction(-5, 7)]], RATIONALS
    )
    sparse.save_matrix(b, path)
    assert sparse.load_matrix(path) == b


def test_text_format_header():
    a = sparse.identity(2, F5)
    text = sparse.dump_matrix(a)
    assert text.splitlines()[0] == "2 2 5"


def test_blank_entry_block_is_an_empty_matrix():
    # numpy reads a blank string as [0]
    assert sparse.parse_matrix("2 2 5\n\n") == SparseMatrix(2, 2, F5, [])
    with pytest.raises(ValueError):
        vf.parse_truthtable("truthtable 2 0 5\n \n")


def test_numpy_refuses_a_partial_parse():
    # the reader takes numpy's ValueError on "num/den" as its cue to read
    # the text as fractions; numpy before 2.3 only warned and returned the
    # numbers read so far, which is why pyproject.toml asks for 2.3
    with pytest.raises(ValueError):
        np.fromstring("0 0 1/2", np.int64, sep=" ")
    assert sparse.parse_matrix("1 1 0\n0 0 1/2\n").to_array().tolist() == [[Fraction(1, 2)]]


@pytest.mark.parametrize("value,calls", [(1, 1), (2**31 - 2, 3)])
def test_mulmod_splits_only_for_large_entries(monkeypatch, value, calls):
    # the bound is each operand's largest stored entry, not p: a 0/1
    # product at p = 2^31 - 1 is one int64 product, entries near p are
    # split into 16-bit limbs
    ctx = FieldCtx(2**31 - 1)
    row = SparseMatrix(1, 8, ctx, [(0, k, value) for k in range(8)])
    col = SparseMatrix(8, 1, ctx, [(k, 0, value) for k in range(8)])
    seen, mulmod = [], sparse._mulmod
    monkeypatch.setattr(sparse, "_mulmod", lambda *args: seen.append(args) or mulmod(*args))
    assert sparse._csr_mulmod(row.to_csr(), col.to_csr(), ctx.modulus).toarray().tolist() == [
        [8 * value * value % ctx.modulus]]
    assert len(seen) == calls


def test_matmul_long_inner_product_at_largest_prime():
    # 70000 terms, each the largest product (p-1)^2 = 1 mod p: matmul reduces
    # each term before it sums them, and the block check's int64 sum is
    # exact only with both operands split into 16-bit limbs
    p = 2**31 - 1
    ctx = FieldCtx(p)
    n = 70000
    row = SparseMatrix(1, n, ctx, [(0, k, p - 1) for k in range(n)])
    col = SparseMatrix(n, 1, ctx, [(k, 0, p - 1) for k in range(n)])
    assert sparse.matmul(row, col).to_array().tolist() == [[n]]
    assert sparse._csr_mulmod(row.to_csr(), col.to_csr(), p).toarray().tolist() == [[n]]
    assert sparse.kron_apply([row], np.full(n, p - 1)).tolist() == [n]


@pytest.mark.parametrize("ctx", [FieldCtx(2**31 - 1), RATIONALS], ids=str)
def test_matmul_holds_a_bounded_share_of_its_terms(ctx):
    # R_10 R_10 sums 3^10 entries of R_10 times their rows of R_10: 9.8M
    # terms, made in passes of at most about 2^20 terms; held at once over Q
    # they peaked near 600 MiB.  The mixed-product property gives the result.
    r1, r10 = disjointness_matrix(1, ctx), disjointness_matrix(10, ctx)
    tracemalloc.start()
    try:
        got = sparse.matmul(r10, r10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == sparse.kron_power(sparse.matmul(r1, r1), 10)
    assert peak < 128 * 2**20
