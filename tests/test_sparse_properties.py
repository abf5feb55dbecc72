"""Property tests of the sparse kernels against a dense pure-Python reference,
of Gaussian elimination, and of the four text formats (matrix, circuit,
witness, truth table), over F_5, F_(2^31 - 1) and Q."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronrigid import circuits, rigidity, sparse, vf
from kronrigid.circuits import SynchronousCircuit
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.sparse import SparseMatrix

from reference import eliminate_reference

FIELDS = [FieldCtx(5), FieldCtx(2**31 - 1), RATIONALS]
PROPS = settings(max_examples=60, deadline=None)


# -- reference arithmetic, independent of FieldCtx -------------------------


def _mul(p, x, y):
    return x * y % p if p else x * y


def _add(p, x, y):
    return (x + y) % p if p else x + y


def _zero(p):
    return 0 if p else Fraction(0)


def ref_kron(p, a, b, ca, cb):
    """a kron b as dense lists; a has ca columns and b has cb."""
    return [
        [_mul(p, ra[ja], rb[jb]) for ja in range(ca) for jb in range(cb)]
        for ra in a
        for rb in b
    ]


def ref_matmul(p, a, b, cols):
    """a times b as dense lists; b has len(a[0]) rows and cols columns."""
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = _zero(p)
            for k, x in enumerate(row):
                acc = _add(p, acc, _mul(p, x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


# -- strategies -------------------------------------------------------------


def values(ctx):
    if ctx.is_prime_field:
        nonzero = st.integers(1, ctx.modulus - 1)
        zero = st.just(0)
    else:
        nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
        zero = st.just(Fraction(0))
    return st.one_of(zero, zero, nonzero)  # sparse: zero two times in three


@st.composite
def dense(draw, ctx, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return [[draw(values(ctx)) for _ in range(cols)] for _ in range(rows)]


def to_sparse(d, rows, cols, ctx):
    entries = [(i, j, v) for i, row in enumerate(d) for j, v in enumerate(row) if v]
    return SparseMatrix(rows, cols, ctx, entries)


def assert_canonical(m):
    """Sorted columns within rows, in bounds, no explicit zeros."""
    assert m.indptr.dtype == m.indices.dtype == np.int64
    assert m.data.dtype == (np.int64 if m.ctx.is_prime_field else object)
    assert len(m.indptr) == m.rows + 1 and m.indptr[0] == 0
    assert (np.diff(m.indptr) >= 0).all() and m.indptr[-1] == m.nnz
    for i in range(m.rows):
        cols = m.indices[m.indptr[i] : m.indptr[i + 1]]
        assert (np.diff(cols) > 0).all()
    assert ((m.indices >= 0) & (m.indices < m.cols)).all()
    assert all(v != 0 for v in m.data.tolist())
    if m.ctx.is_prime_field:
        assert ((m.data > 0) & (m.data < m.ctx.modulus)).all()


def check(m, ref, rows, cols):
    assert_canonical(m)
    assert (m.rows, m.cols) == (rows, cols)
    assert m.to_array().tolist() == ref


# -- kernels ----------------------------------------------------------------


@PROPS
@given(st.data())
def test_kron_matches_dense(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    p = ctx.modulus
    ra, ca, rb, cb = (data.draw(st.integers(0, 4)) for _ in range(4))
    da = data.draw(dense(ctx, ra, ca))
    db = data.draw(dense(ctx, rb, cb))
    k = sparse.kron(to_sparse(da, ra, ca, ctx), to_sparse(db, rb, cb, ctx))
    check(k, ref_kron(p, da, db, ca, cb), ra * rb, ca * cb)
    # kron_all of 1 to 5 operands (a balanced fold) against the left fold
    shapes = [(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
              for _ in range(data.draw(st.integers(1, 5)))]
    mats = [data.draw(dense(ctx, r, c)) for r, c in shapes]
    ref, rows, cols = mats[0], *shapes[0]
    for m, (r, c) in zip(mats[1:], shapes[1:]):
        ref, rows, cols = ref_kron(p, ref, m, cols, c), rows * r, cols * c
    got = sparse.kron_all([to_sparse(m, r, c, ctx) for m, (r, c) in zip(mats, shapes)])
    check(got, ref, rows, cols)


@PROPS
@given(st.data())
def test_matmul_and_apply_match_dense(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    p = ctx.modulus
    rows, inner, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    da = data.draw(dense(ctx, rows, inner))
    db = data.draw(dense(ctx, inner, cols))
    a = to_sparse(da, rows, inner, ctx)
    check(sparse.matmul(a, to_sparse(db, inner, cols, ctx)), ref_matmul(p, da, db, cols), rows, cols)
    x = [data.draw(values(ctx)) for _ in range(inner)]
    expected = [row[0] for row in ref_matmul(p, da, [[v] for v in x], 1)]
    if rows and inner:  # kron_apply takes no empty operand
        assert sparse.kron_apply([a], np.array(x, ctx.dtype)).tolist() == expected


@PROPS
@given(st.data())
def test_transpose_and_scale_match_dense(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    p = ctx.modulus
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    d = data.draw(dense(ctx, rows, cols))
    m = to_sparse(d, rows, cols, ctx)
    check(sparse.transpose(m), [[d[i][j] for i in range(rows)] for j in range(cols)], cols, rows)
    s = data.draw(values(ctx))
    check(sparse.scale(m, s), [[_mul(p, v, s) for v in row] for row in d], rows, cols)


@PROPS
@given(st.data())
def test_concat_and_stack_match_dense(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    rows, c1, c2 = (data.draw(st.integers(0, 4)) for _ in range(3))
    d1 = data.draw(dense(ctx, rows, c1))
    d2 = data.draw(dense(ctx, rows, c2))
    h = sparse.concat_h(to_sparse(d1, rows, c1, ctx), to_sparse(d2, rows, c2, ctx))
    check(h, [r1 + r2 for r1, r2 in zip(d1, d2)], rows, c1 + c2)
    r2 = data.draw(st.integers(0, 4))
    d3 = data.draw(dense(ctx, r2, c1))
    v = sparse.stack_v(to_sparse(d1, rows, c1, ctx), to_sparse(d3, r2, c1, ctx))
    check(v, d1 + d3, rows + r2, c1)


@PROPS
@given(st.data())
def test_add_sub_cancel_to_canonical(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    p = ctx.modulus
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    d1 = data.draw(dense(ctx, rows, cols))
    d2 = data.draw(dense(ctx, rows, cols))
    a, b = to_sparse(d1, rows, cols, ctx), to_sparse(d2, rows, cols, ctx)
    check(sparse.add_mat(a, b),
          [[_add(p, x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(d1, d2)], rows, cols)
    assert sparse.sub_mat(a, a).nnz == 0


# -- elimination ------------------------------------------------------------


@PROPS
@given(st.data())
def test_rank_of_transpose(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m = to_sparse(data.draw(dense(ctx, rows, cols)), rows, cols, ctx)
    assert sparse.rank(m) == sparse.rank(sparse.transpose(m)) <= min(rows, cols)


@PROPS
@given(st.data())
def test_rank_of_product_at_most_inner_dimension(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    rows, inner, cols = (data.draw(st.integers(0, n)) for n in (5, 3, 5))
    x = to_sparse(data.draw(dense(ctx, rows, inner)), rows, inner, ctx)
    y = to_sparse(data.draw(dense(ctx, inner, cols)), inner, cols, ctx)
    assert sparse.rank(sparse.matmul(x, y)) <= inner


@PROPS
@given(st.data())
def test_low_rank_factor_at_the_rank(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m = to_sparse(data.draw(dense(ctx, rows, cols)), rows, cols, ctx)
    r = sparse.rank(m)
    for bound in (r, r + data.draw(st.integers(1, 2))):
        b, c = rigidity.low_rank_factor(m, bound)
        assert (b.rows, b.cols, c.rows, c.cols) == (rows, bound, bound, cols)
        assert sparse.matmul(b, c) == m
    if r:
        with pytest.raises(ValueError):
            rigidity.low_rank_factor(m, r - 1)


def _batch(data, ctx):
    """Up to 4 matrices of one shape, as the (K, rows, cols) array that
    sparse._eliminate reduces, and as dense lists."""
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    batch = data.draw(st.lists(dense(ctx, rows, cols), min_size=1, max_size=4))
    return np.array(batch, dtype=ctx.dtype).reshape(len(batch), rows, cols), batch


@PROPS
@given(st.data())
def test_eliminate_leaves_the_rref(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    a, batch = _batch(data, ctx)
    ranks = sparse._eliminate(a, ctx)
    for got, rank, d in zip(a, ranks, batch):
        want = [list(row) for row in d]
        pivots = eliminate_reference(want, ctx)
        assert rank == len(pivots) and got.tolist() == want
        # and both are in RREF: a leading 1 in each of the first rank rows,
        # alone in its column, and zero rows below
        assert pivots == sorted(set(pivots))
        for k, row in enumerate(want):
            if k >= len(pivots):
                assert not any(row)
                continue
            assert not any(row[: pivots[k]]) and row[pivots[k]] == 1
            assert [want[i][pivots[k]] for i in range(len(pivots)) if i != k] == [0] * (len(pivots) - 1)


@PROPS
@given(st.data())
def test_eliminate_stops_above_the_bound(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    a, batch = _batch(data, ctx)
    r = data.draw(st.integers(0, 5))
    got = sparse._eliminate(a, ctx, r) <= r
    assert got.tolist() == [len(eliminate_reference([list(row) for row in d], ctx)) <= r for d in batch]


# -- text formats -------------------------------------------------------------


@PROPS
@given(st.data())
def test_circuit_dump_parse_roundtrip(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    factors = [
        to_sparse(data.draw(dense(ctx, r, c)), r, c, ctx) for r, c in zip(dims, dims[1:])
    ]
    circ = SynchronousCircuit(factors)
    text = circuits.dump_circuit(circ)
    back = circuits.parse_circuit(text)
    assert back.factors == circ.factors
    assert circuits.dump_circuit(back) == text
    m = factors[0]
    assert sparse.parse_matrix(sparse.dump_matrix(m)) == m


@PROPS
@given(st.data())
def test_witness_dump_parse_roundtrip(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    q, r = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
    b, c, s = (
        to_sparse(data.draw(dense(ctx, rows, cols)), rows, cols, ctx)
        for rows, cols in ((q, r), (r, q), (q, q))
    )
    w = rigidity.RigidityDecomposition(sparse.add_mat(sparse.matmul(b, c), s), r, b, c, s)
    text = rigidity.dump_witness(w)
    assert rigidity.parse_witness(text) == w


@PROPS
@given(st.data())
def test_truthtable_dump_parse_roundtrip(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    q, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    size = q**n
    table = vf.TruthTable(
        q, n, ctx, tuple(data.draw(st.lists(values(ctx), min_size=size, max_size=size)))
    )
    text = vf.dump_truthtable(table)
    assert vf.parse_truthtable(text) == table


def test_text_formats_golden():
    f5 = FieldCtx(5)
    circ = SynchronousCircuit(
        [SparseMatrix.from_dense([[1, 2], [0, 4]], f5), sparse.identity(2, f5)]
    )
    assert circuits.dump_circuit(circ) == (
        "circuit 2 2 2 5 5\n"
        "factor 0 2 2 3\n"
        "0 0 1\n"
        "0 1 2\n"
        "1 1 4\n"
        "factor 1 2 2 2\n"
        "0 0 1\n"
        "1 1 1\n"
    )
    q = SparseMatrix.from_dense([[Fraction(1, 2), 0], [-3, Fraction(-5, 7)]], RATIONALS)
    assert sparse.dump_matrix(q) == "2 2 0\n0 0 1/2\n1 0 -3\n1 1 -5/7\n"
    assert sparse.parse_matrix(sparse.dump_matrix(q)) == q
    witnesses = [
        (
            f5, [[1], [3]], [[2, 4]], [[0, 0], [0, 1]],
            "rigidity 2 1 1 5\n2 1 5\n0 0 1\n1 0 3\n---\n"
            "1 2 5\n0 0 2\n0 1 4\n---\n2 2 5\n1 1 1\n",
        ),
        (
            RATIONALS, [[1], [Fraction(1, 2)]], [[2, Fraction(-1, 3)]], [[0, 0], [0, Fraction(5, 7)]],
            "rigidity 2 1 1 0\n2 1 0\n0 0 1\n1 0 1/2\n---\n"
            "1 2 0\n0 0 2\n0 1 -1/3\n---\n2 2 0\n1 1 5/7\n",
        ),
    ]
    for ctx, b, c, s, text in witnesses:
        b, c, s = (SparseMatrix.from_dense(x, ctx) for x in (b, c, s))
        w = rigidity.RigidityDecomposition(sparse.add_mat(sparse.matmul(b, c), s), 1, b, c, s)
        assert rigidity.dump_witness(w) == text
        assert rigidity.parse_witness(text) == w
    tables = [
        (vf.TruthTable(2, 1, f5, (1, 4)), "truthtable 2 1 5\n1\n4\n"),
        (vf.TruthTable(2, 1, RATIONALS, (Fraction(-1, 2), Fraction(3))), "truthtable 2 1 0\n-1/2\n3\n"),
    ]
    for table, text in tables:
        assert vf.dump_truthtable(table) == text
        assert vf.parse_truthtable(text) == table


# -- the Q value rule ---------------------------------------------------------


def exact(v):
    """Whether v is a value the Q kernels may hold: an int or a Fraction,
    never a float or a numpy scalar."""
    return type(v) in (int, Fraction)


def canonical(v):
    """Whether v is a Q value as coerce, inv_raw and the reader make it:
    an int when it is integral, a Fraction otherwise."""
    return type(v) is (int if v == round(v) else Fraction)


def q_values():
    """Nonzero ints and Fractions, integral Fractions among them."""
    return st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=6)).filter(bool)


@st.composite
def q_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)))) if rows and cols else ()
    return SparseMatrix(rows, cols, RATIONALS, [(i, j, draw(q_values())) for i, j in cells])


def all_exact(*mats):
    return all(exact(v) for m in mats for v in m.data.tolist())


@PROPS
@given(st.data())
def test_q_kernels_hold_only_ints_and_fractions(data):
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(q_matrices(rows, inner)), data.draw(q_matrices(inner, cols))
    c = data.draw(q_matrices(rows, inner))
    s = data.draw(q_values())
    assert all_exact(sparse.kron(a, b), sparse.matmul(a, b), sparse.add_mat(a, c), sparse.sub_mat(a, c),
                     sparse.scale(a, s), sparse.transpose(a))
    r = sparse.rank(a)
    assert type(r) is int
    low_b, low_c = rigidity.low_rank_factor(a, r)
    assert all_exact(low_b, low_c) and sparse.matmul(low_b, low_c) == a
    u = np.array([data.draw(st.one_of(st.just(0), q_values())) for _ in range(inner * cols)], object)
    assert all(exact(v) for v in sparse.kron_apply([a, b], u).tolist())
    x, y = sparse.kron_split(sparse.kron(a, b), a.rows, a.cols)
    assert all_exact(x, y) and sparse.kron(x, y) == sparse.kron(a, b)


@PROPS
@given(q_matrices(), st.lists(st.one_of(st.integers(-2**70, 2**70), st.fractions())))
def test_q_values_are_ints_where_integral(m, xs):
    back = sparse.parse_matrix(sparse.dump_matrix(m))
    assert back == m and all(canonical(v) for v in back.data.tolist())
    for x in xs:
        got = RATIONALS.coerce(x)
        assert got == x and canonical(got)
        if x:
            inverse = RATIONALS.inv_raw(x)
            assert inverse * x == 1 and canonical(inverse)


def test_an_integer_q_file_reads_as_ints():
    text = "2 3 0\n0 0 4\n0 2 -9223372036854775807\n1 1 1180591620717411303424\n"  # 2^70: past int64
    for m in (sparse.parse_matrix(text), sparse.parse_matrix(text.replace("1180591620717411303424", "1"))):
        assert all(type(v) is int for v in m.data.tolist())
    m = sparse.parse_matrix("1 1 0\n0 0 6/3\n")
    assert m.data.tolist() == [2] and type(m.get(0, 0)) is int


def test_low_rank_factor_of_an_integer_matrix_is_exact():
    # 1 / 3 was a float, and C held 6004799503160661/18014398509481984
    m = SparseMatrix(2, 2, RATIONALS, [(0, 0, 3), (0, 1, 1), (1, 0, 6), (1, 1, 2)])
    b, c = rigidity.low_rank_factor(m, 1)
    assert sparse.matmul(b, c) == m
    assert c.data.tolist() == [1, Fraction(1, 3)]
