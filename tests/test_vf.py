import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronrigid import sparse, vf
from kronrigid.disjoint import disjointness_matrix
from kronrigid.errors import CapExceeded, DimensionMismatch, ModulusTooSmallWarning, OuterZero
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.rigidity import hadamard_matrix
from kronrigid.sparse import SparseMatrix
from kronrigid.vf import (
    TruthTable,
    batch_sums,
    build_vf_witness,
    fast_rn_apply,
    inclusion_exclusion_expand,
    kron2_to_vf,
    vf_matrix,
)

from reference import (
    SplitMix64,
    apply_reference,
    batch_sums_oracle,
    expansion_identity_check,
    expansion_matrix_identity_check,
    inclusion_exclusion_reference,
    parse_points_reference,
)

F5 = FieldCtx(5)
F7 = FieldCtx(7)
F101 = FieldCtx(101)
P31 = FieldCtx(2**31 - 1)


def random_table(rng, q, n, ctx):
    return TruthTable(
        q, n, ctx, tuple(rng.randrange(ctx.modulus) for _ in range(q**n))
    )


def test_vf_matrix_constant_one():
    f = TruthTable(2, 1, F5, (1, 1))
    assert vf_matrix(f).to_array().tolist() == [[1, 1], [1, 1]]


def test_vf_matrix_cell_semantics():
    rng = SplitMix64(51)
    f = random_table(rng, 2, 2, F5)
    m = vf_matrix(f)
    # cell ((0,1),(1,0)) reads f(1,1)
    assert m.get(0b01, 0b10) == f.values[0b11]


def test_vf_indicator_of_zero():
    f = TruthTable(2, 2, F5, (1, 0, 0, 0))
    m = vf_matrix(f)
    assert m.nnz == 1 and m.get(0, 0) == 1
    assert m != disjointness_matrix(2, F5)


def test_fast_apply_n1():
    out, ops = fast_rn_apply(F5, [F5.coerce(3), F5.coerce(4)])
    assert out == [F5.coerce(7), F5.coerce(3)]
    assert ops == {"adds": 1, "subs": 0}


def test_fast_apply_matches_dense():
    rng = SplitMix64(52)
    for n in range(1, 11):
        r = disjointness_matrix(n, F7)
        x = [rng.randrange(7) for _ in range(1 << n)]
        fast, _ = fast_rn_apply(F7, x)
        assert fast == apply_reference(r, x)


def test_fast_apply_inverse_roundtrip():
    rng = SplitMix64(53)
    for _ in range(100):
        x = [rng.randrange(7) for _ in range(1 << 10)]
        fwd, _ = fast_rn_apply(F7, x)
        back, _ = fast_rn_apply(F7, fwd, inverse=True)
        assert back == x


def test_fast_apply_op_counts():
    x = [1] * 4096
    _, ops = fast_rn_apply(F5, x)
    assert ops["adds"] == 24576 and ops["subs"] == 0
    _, ops_inv = fast_rn_apply(F5, x, inverse=True)
    assert ops_inv["subs"] == 24576 and ops_inv["adds"] == 0


def test_fast_apply_at_the_largest_modulus():
    # every entry p - 1: the sums and differences of each level are as
    # large as they get in int64
    x_max = P31.modulus - 1
    for n in range(1, 9):
        r = disjointness_matrix(n, P31)
        x = [x_max] * (1 << n)
        fwd, _ = fast_rn_apply(P31, x)
        assert fwd == apply_reference(r, x)
        back, _ = fast_rn_apply(P31, x, inverse=True)
        assert apply_reference(r, back) == x


def test_fast_apply_over_q_with_mixed_denominators():
    values = [Fraction(1, 3), Fraction(-2, 5), Fraction(7), Fraction(0)]
    for n in range(1, 6):
        r = disjointness_matrix(n, RATIONALS)
        x = [values[i % 4] for i in range(1 << n)]
        fwd, _ = fast_rn_apply(RATIONALS, x)
        assert fwd == apply_reference(r, x)
        back, _ = fast_rn_apply(RATIONALS, fwd, inverse=True)
        assert back == x
        # the Q rule of `fields`: an int where integral, a Fraction otherwise
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in fwd + back)


def test_fast_apply_bad_length():
    for x in ([1, 2, 3], []):
        with pytest.raises(DimensionMismatch):
            fast_rn_apply(F5, x)


def test_witness_constant_one():
    f = TruthTable(2, 1, F5, (1, 1))
    w = build_vf_witness(f)
    assert w.b_f == (1, 0)
    assert w.verify_against(f)


def test_witness_random_dense_check():
    rng = SplitMix64(54)
    for _ in range(5):
        f = random_table(rng, 2, 10, F7)
        assert build_vf_witness(f).verify_against(f)


def test_witness_all_ones_indicator():
    n = 6
    values = [0] * (1 << n)
    values[(1 << n) - 1] = 1
    f = TruthTable(2, n, F7, tuple(values))
    w = build_vf_witness(f)
    # b_f has full +-1 support and matches the dense inverse apply
    assert all(v in (1, 6) for v in w.b_f)
    fwd, _ = fast_rn_apply(F7, list(w.b_f))
    assert fwd == list(f.values)


def test_batch_sums_hand_example():
    f = TruthTable(2, 2, F5, (1, 0, 0, 0))
    answers, _ = batch_sums(f, [0b00, 0b01])
    assert answers[0b00] == 1
    assert answers[0b01] == 0


def test_batch_sums_and_convention():
    # orthogonal-pairs counting: f = indicator of zero under AND
    n = 3
    values = [0] * 8
    values[0] = 1
    f = TruthTable(2, n, F7, tuple(values))
    pts = [0b100, 0b010, 0b001]
    answers, _ = batch_sums(f, pts, convention="and")
    # each point is orthogonal to the other two but not to itself
    for p in pts:
        assert answers[p] == 2


def test_batch_sums_vs_oracle():
    rng = SplitMix64(55)
    for conv in ("or", "and"):
        f = random_table(rng, 2, 8, F101)
        pts = [rng.randrange(256) for _ in range(60)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModulusTooSmallWarning)
            fast, ops = batch_sums(f, pts, convention=conv)
        slow = batch_sums_oracle(f, pts, convention=conv)
        assert fast == slow  # keyed by the distinct points
        assert ops["adds"] == 256 * 8
        assert ops["mults"] <= 3 * 256


def test_batch_sums_at_the_largest_modulus():
    rng = SplitMix64(56)
    x_max = P31.modulus - 1
    f = TruthTable(2, 6, P31, tuple(x_max - rng.randrange(3) for _ in range(64)))
    pts = [rng.randrange(64) for _ in range(40)]
    for conv in ("or", "and"):
        fast, _ = batch_sums(f, pts, convention=conv)
        slow = batch_sums_oracle(f, pts, convention=conv)
        assert all(fast[p] == slow[p] for p in pts)


@pytest.mark.parametrize("convention", ["or", "and"])
def test_batch_sums_point_beyond_n_bits(convention):
    f = TruthTable(2, 2, F5, (1, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        batch_sums(f, [0b01, 0b111], convention=convention)


@pytest.mark.parametrize("convention", ["or", "and"])
def test_batch_sums_answers_a_point_repeated_p_times(convention):
    # the count of 0b101 is 0 in F_3, yet it is one of the points
    f = random_table(SplitMix64(57), 2, 3, FieldCtx(3))
    pts = [0b101, 0b010, 0b101, 0b101]
    with pytest.warns(ModulusTooSmallWarning):
        fast, _ = batch_sums(f, pts, convention=convention)
    assert fast == batch_sums_oracle(f, pts, convention=convention)


def test_batch_sums_multiplicity_warning():
    f = TruthTable(2, 3, F5, tuple([1] * 8))
    with pytest.warns(ModulusTooSmallWarning):
        batch_sums(f, [0] * 6)
    # rational mode counts plainly
    fr = TruthTable(2, 3, RATIONALS, tuple(RATIONALS.coerce(1) for _ in range(8)))
    answers, _ = batch_sums(fr, [0] * 6)
    assert answers[0] == 6


def test_kron2_to_vf_hadamard():
    h1 = hadamard_matrix(1, F5)
    pi, f, pip = kron2_to_vf([h1] * 4)
    rebuilt = sparse.matmul(sparse.matmul(pi, vf_matrix(f)), pip)
    assert rebuilt == hadamard_matrix(4, F5)
    assert f.values[(1 << 4) - 1] == 1  # g(1) = 1 on every slot


def test_kron2_to_vf_r1_corner_zero_ok():
    r1 = disjointness_matrix(1, F5)
    pi, f, pip = kron2_to_vf([r1])
    assert f.values[0] == 0  # omega may be zero
    rebuilt = sparse.matmul(sparse.matmul(pi, vf_matrix(f)), pip)
    assert rebuilt == r1


def test_kron2_to_vf_random_pairs():
    rng = SplitMix64(56)
    for _ in range(5):
        mats = []
        for _ in range(2):
            dense = [
                [rng.nonzero_field_element(F7), rng.nonzero_field_element(F7)],
                [rng.nonzero_field_element(F7), rng.randrange(7)],
            ]
            mats.append(SparseMatrix.from_dense(dense, F7))
        pi, f, pip = kron2_to_vf(mats)
        rebuilt = sparse.matmul(sparse.matmul(pi, vf_matrix(f)), pip)
        assert rebuilt == sparse.kron(*mats)


def test_kron2_to_vf_outer_zero_rejected():
    bad = SparseMatrix.from_dense([[0, 1], [1, 1]], F5)
    with pytest.raises(OuterZero):
        kron2_to_vf([bad])


def _kron2_values(ctx):
    if ctx.is_prime_field:
        return st.integers(1, ctx.modulus - 1)
    return st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kron2_to_vf_conjugates_any_product_of_outer_nonzero_bases(data):
    ctx = data.draw(st.sampled_from([F5, FieldCtx(101), FieldCtx(2**31 - 1), RATIONALS]))
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        a, b, c = (data.draw(_kron2_values(ctx)) for _ in range(3))
        corner = data.draw(st.one_of(st.just(0), _kron2_values(ctx)))
        mats.append(SparseMatrix.from_dense([[a, b], [c, corner]], ctx))
    pi, f, pip = kron2_to_vf(mats)
    assert sparse.matmul(sparse.matmul(pi, vf_matrix(f)), pip) == sparse.kron_all(mats)
    # one zero outer entry, in any base, is named
    k = data.draw(st.integers(0, len(mats) - 1))
    i, j = data.draw(st.sampled_from([(0, 0), (0, 1), (1, 0)]))
    dense = mats[k].to_array().tolist()
    dense[i][j] = 0
    with pytest.raises(OuterZero) as info:
        kron2_to_vf(mats[:k] + [SparseMatrix.from_dense(dense, ctx)] + mats[k + 1 :])
    assert info.value.position == (i, j)


def test_expansion_constant_function():
    f = TruthTable(2, 3, F5, tuple([1] * 8))
    exp = inclusion_exclusion_expand(f)
    assert exp[frozenset()].values == (1,)
    for s, table in exp.items():
        if s:
            assert all(v == 0 for v in table.values)


def test_expansion_identity_q3():
    rng = SplitMix64(57)
    for _ in range(10):
        f = random_table(rng, 3, 2, F7)
        assert expansion_identity_check(f)


def test_expansion_matrix_identity_q3_n2():
    rng = SplitMix64(58)
    for _ in range(5):
        f = random_table(rng, 3, 2, F7)
        assert expansion_matrix_identity_check(f)


@pytest.mark.parametrize("ctx", [P31, RATIONALS], ids=str)
@pytest.mark.parametrize(
    "q,n", [(2, 1), (2, 5), (3, 3), (4, 2), (4, 3), (3, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
)
def test_expansion_matches_the_subset_enumeration(ctx, q, n):
    rng = SplitMix64(61)
    for _ in range(3):
        if ctx.is_prime_field:
            values = [ctx.modulus - 1 - rng.randrange(3) for _ in range(q**n)]
        else:
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(q**n)]
        f = TruthTable(q, n, ctx, tuple(values))
        got = inclusion_exclusion_expand(f)
        want = inclusion_exclusion_reference(f)
        assert list(got) == list(want)
        for s in want:
            assert got[s] == want[s]
            assert [type(v) for v in got[s].values] == [type(v) for v in want[s].values]
        assert expansion_identity_check(f, got)


def test_vf_matrix_against_the_definition():
    rng = SplitMix64(62)
    for q, n, ctx in [(2, 3, F7), (3, 2, F7), (4, 2, RATIONALS), (2, 0, F7)]:
        f = TruthTable(q, n, ctx, tuple(ctx.coerce(rng.randrange(3)) for _ in range(q**n)))
        digits = [np.unravel_index(x, (q,) * n) for x in range(q**n)]
        want = [[f(tuple(map(max, dx, dy))) for dy in digits] for dx in digits]
        assert vf_matrix(f) == SparseMatrix.from_dense(want, ctx)


def test_vf_matrix_cap():
    # q^n = 8192 is over vf.GENERAL_CAP: refused before a 2^26-entry index is built
    f = TruthTable(2, 13, F5, (0,) * 8192)
    with pytest.raises(CapExceeded):
        vf_matrix(f)


def test_vf_matrix_max_semantics():
    rng = SplitMix64(59)
    f = random_table(rng, 3, 2, F7)
    # (1, 2) is row 1 * 3 + 2, (2, 0) column 2 * 3 + 0; their max (2, 2) is 8
    assert vf_matrix(f).get(5, 6) == f.values[8] == f((2, 2))


def test_truthtable_reads_digits_in_c_order():
    f = TruthTable(3, 4, F101, tuple(range(81)))
    assert f((1, 0, 2, 1)) == 1 * 27 + 0 * 9 + 2 * 3 + 1
    assert [f(np.unravel_index(x, (3,) * 4)) for x in range(81)] == list(range(81))
    for digits in [(3, 0, 0, 0), (1, -1, 0, 0), (1, 0, 2), (1, 0, 2, 1, 0)]:
        with pytest.raises(ValueError):
            f(digits)
    assert TruthTable(3, 0, F101, (7,))(()) == 7


def test_truthtable_file_roundtrip(tmp_path):
    rng = SplitMix64(60)
    f = random_table(rng, 2, 4, F7)
    path = tmp_path / "f.tt"
    vf.save_truthtable(f, path)
    loaded = vf.load_truthtable(path)
    assert loaded == f
    assert path.read_text().splitlines()[0] == "truthtable 2 4 7"


def test_parse_points():
    assert vf.parse_points("101\n000\n 11 \n") == [5, 0, 3]


# 0s and 1s, characters int() would take in a bitstring, and whitespace:
# every line boundary of str.splitlines here, and \t, \xa0 and space, which are not
POINTS_TEXT = st.text(st.sampled_from(
    ["0", "1", "b", "_", "+", "-", "\r", "\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
     "\u2028", " "]
), max_size=40)


@settings(max_examples=400, deadline=None)
@given(POINTS_TEXT)
def test_parse_points_matches_the_line_by_line_reader(text):
    try:
        want = parse_points_reference(text)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            vf.parse_points(text)
        assert str(got.value) == str(e)
    else:
        assert vf.parse_points(text) == want
