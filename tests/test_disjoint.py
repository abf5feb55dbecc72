import sys
import tracemalloc
from fractions import Fraction
from functools import cache
from math import comb, log10

import mpmath
import numpy as np
import pytest

from kronrigid import circuits, sparse
from kronrigid.disjoint import (
    binom_cum,
    critical_fraction,
    dense_removal,
    disjointness_matrix,
    entropy,
    entropy_identities_check,
    js_factorization,
    js_side_sums,
    rn_rigidity_decomposition,
)
from kronrigid.errors import CapExceeded, DepthTooSmall
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.sparse import SparseMatrix

from reference import (
    circuit_product,
    js_factors_reference,
    js_pieces_reference,
    rn_split_reference,
    side_sums,
    validate_partition,
)

F5 = FieldCtx(5)


def rn_circuit(n, d):
    """Depth-d circuit for R_n from the R_m base, m = max(1, n // d)."""
    return circuits.synthesize(
        js_factorization(max(1, n // d), F5), disjointness_matrix(1, F5), n, d
    )


def test_r1_definition():
    r1 = disjointness_matrix(1, F5)
    assert r1.to_array().tolist() == [[1, 1], [1, 0]]


def test_r2_is_kron_square():
    r2 = disjointness_matrix(2, F5)
    assert r2.nnz == 9
    r1 = disjointness_matrix(1, F5)
    assert r2 == sparse.kron(r1, r1)


def test_rn_nnz_3_pow_n():
    for n in range(1, 9):
        assert disjointness_matrix(n, F5).nnz == 3**n


def test_cap():
    for n in (15, 27):
        with pytest.raises(CapExceeded):
            disjointness_matrix(n, F5)


def test_binom_cum():
    assert binom_cum(14, 6) == 3473
    assert binom_cum(8, 3) == 37
    assert binom_cum(20, 8) == sum(
        __import__("math").comb(20, i) for i in range(8)
    )


def test_dense_removal_small_by_hand():
    rep = dense_removal(2, 1)
    assert rep.removed_count == 1  # only the all-zero string
    assert rep.residual_row_nnz <= 1 == rep.bound


def test_dense_removal_n14():
    scan = dense_removal(14, 6, method="scan")
    count = dense_removal(14, 6, method="count")
    assert scan.removed_count == count.removed_count == 3473
    assert scan.residual_row_nnz == count.residual_row_nnz == 37
    assert scan.residual_row_nnz <= scan.bound == 37


def test_dense_removal_n20_count_path():
    rep = dense_removal(20, 8, method="count")
    assert rep.removed_count == binom_cum(20, 8)
    assert rep.bound == binom_cum(12, 5) == 794
    assert rep.residual_row_nnz <= rep.bound


def test_removal_paths_agree_small():
    for n in range(2, 21):
        for k in range(1, n // 2 + 1):
            scan = dense_removal(n, k, method="scan")
            count = dense_removal(n, k, method="count")
            assert dense_removal(n, k) == count  # auto is the closed form
            assert scan.residual_row_nnz == count.residual_row_nnz, (n, k)
            assert scan.residual_row_nnz <= scan.bound


def test_residual_attained_at_weight_k():
    # the sparsest surviving row weight k attains the counting bound
    for n in range(4, 11):
        for k in range(1, n // 2 + 1):
            rep = dense_removal(n, k, method="scan")
            expected = max(
                sum(comb(n - w, j) for j in range(k, n - w + 1))
                for w in range(k, n - k + 1)
            )
            assert rep.residual_row_nnz == expected
            assert expected == sum(comb(n - k, j) for j in range(k, n - k + 1))


def test_count_path_is_the_max_over_row_weights():
    # the count path's closed form against the maximum over every
    # surviving row weight w of sum_{j >= k} C(n - w, j)
    @cache
    def kept(m, k):  # entries of a row of weight n - m kept by the removal
        return sum(comb(m, j) for j in range(k, m + 1))

    for n in range(2, 201):
        for k in range(1, n // 2 + 1):
            best = max(kept(n - w, k) for w in range(k, n - k + 1))
            rep = dense_removal(n, k, method="count")
            assert rep.residual_row_nnz == rep.residual_col_nnz == best, (n, k)


def test_count_bound_is_the_old_sum_of_binomials():
    # 2^(n-k) less k binomials equals the sum of n - 2k + 1 binomials
    for n in range(2, 201):
        for k in range(1, n // 2 + 1):
            old = binom_cum(n - k, n - 2 * k + 1)
            assert 2 ** (n - k) - binom_cum(n - k, k) == old
            assert dense_removal(n, k, method="count").bound == old, (n, k)


def test_count_path_stops_where_python_cannot_print_its_counts():
    # 2^n of more digits than sys.get_int_max_str_digits() (4,300 by default)
    digits = sys.get_int_max_str_digits()
    top = int(digits / log10(2))  # 2^top has exactly `digits` digits
    assert len(str(2**top)) == digits
    rep = dense_removal(top, 3, method="count")
    assert str(rep.bound) and str(rep.removed_count)
    with pytest.raises(CapExceeded):
        dense_removal(top + 1, 3, method="count")


def test_removal_split_csr():
    # the split's own matrices at n = 14, k = floor(14 * 3/7) = 6
    dec = rn_rigidity_decomposition(14, Fraction(3, 7), F5)
    low = dec.low_rank
    assert sparse.add_mat(low, dec.S) == disjointness_matrix(14, F5)
    light = np.array([bin(x).count("1") < 6 for x in range(1 << 14)])
    assert (light[sparse._row_ids(low)] | light[low.indices]).all()
    assert dec.rank_bound == dec.B_lr.cols == 2 * binom_cum(14, 6) == 6946
    assert dec.S.nnz_r <= binom_cum(8, 3) == 37


@pytest.mark.parametrize("ctx", [F5, FieldCtx(2**31 - 1), RATIONALS], ids=str)
def test_rn_split_matches_the_entry_by_entry_reference(ctx):
    for n in range(11):
        for k in range(n + 1):
            dec = rn_rigidity_decomposition(n, Fraction(k, max(n, 1)), ctx)
            want = rn_split_reference(dec.target, k)
            assert (dec.rank_bound, dec.B_lr, dec.C_lr, dec.S) == want, (n, k)


def test_rn_rigidity_decomposition():
    dec = rn_rigidity_decomposition(8, Fraction(5, 12), F5)
    # k = floor(8 * 5/12) = 3
    assert dec.rank_bound == 2 * binom_cum(8, 3)
    assert sparse.add_mat(dec.low_rank, dec.S) == dec.target
    assert sparse.rank(dec.low_rank) <= dec.rank_bound
    assert dec.S.nnz_r <= binom_cum(5, 3)


def test_rn_rigidity_decomposition_tiny():
    dec = rn_rigidity_decomposition(2, Fraction(1, 2), F5)
    assert dec.rank_bound == 2
    assert sparse.add_mat(dec.low_rank, dec.S) == dec.target
    assert dec.S.nnz_r <= 1


def test_js_partition_small():
    p1, p2 = js_pieces_reference(1), js_pieces_reference(2)
    assert side_sums(p1) == (1, 1)
    assert side_sums(p2) == (3, 2)
    assert validate_partition(p1, 1) and validate_partition(p2, 2)


def test_js_recursion_and_growth():
    s, r = 1, 1
    growth = 1 + mpmath.sqrt(2)
    c_const = 2 / float(growth)  # from n = 1
    for n in range(1, 13):
        part_s, part_r = js_side_sums(n)
        assert (part_s, part_r) == (s, r)
        assert part_s <= c_const * float(growth) ** n + 1e-9
        s, r = s + 2 * r, s + r


def test_js_partition_matches_recursion():
    for n in range(1, 11):
        pieces = js_pieces_reference(n)
        assert side_sums(pieces) == js_side_sums(n)
        assert sum(len(rows) * len(cols) for rows, cols, _ in pieces) == 3**n
        assert len(pieces) == 2**n
        assert validate_partition(pieces, n)


def test_js_arrays_match_the_tuple_recursion():
    for n in range(1, 13):
        pieces = js_pieces_reference(n)
        tf = js_factorization(n, F5)
        assert (tf.B, tf.C) == js_factors_reference(pieces, n, F5)
    tf = js_factorization(3, RATIONALS)
    assert (tf.B, tf.C) == js_factors_reference(js_pieces_reference(3), 3, RATIONALS)


def test_js_factorization_product():
    for n in (1, 2, 4, 8):
        tf = js_factorization(n, F5)
        rn = disjointness_matrix(n, F5)
        assert sparse.matmul(tf.B, tf.C) == rn == sparse.matmul(tf.C_prime, tf.B_prime)
        s, r = js_side_sums(n)
        assert tf.B.nnz == s + 2 * r
        assert tf.C.nnz == s + r


def test_rn_depth_2():
    circ = rn_circuit(8, 2)
    assert circ.wires < 2 * 2**12  # butterfly baseline 8192
    assert circuit_product(circ) == disjointness_matrix(8, F5)
    # exact count: 2 * nnz(A_4 kron B_4') pattern = 2 * 41 * 29
    assert circ.wires == 2 * 41 * 29


def test_rn_depth_3():
    circ = rn_circuit(12, 3)
    assert circuits.verify_circuit(circ, [disjointness_matrix(1, F5)] * 12)


def test_rn_depth_remainder():
    # (1, 2) and (3, 4) have n < d: every digit rides in a butterfly slot
    for n, d in [(5, 2), (1, 2), (3, 4)]:
        circ = rn_circuit(n, d)
        assert circuit_product(circ) == disjointness_matrix(n, F5)


@pytest.mark.parametrize("d", [0, 1, -2])
def test_rn_depth_below_two(d):
    with pytest.raises(DepthTooSmall):
        circuits.synthesize(js_factorization(4, F5), disjointness_matrix(1, F5), 4, d)


def test_synthesize_remainder_of_at_least_depth():
    # R_7 from the R_2 base at depth 2: one lifted unit of 4 digits, and
    # the k = 3 >= d digits left over split 2 + 1 over the factors
    tf = js_factorization(2, F5)
    circ = circuits.synthesize(tf, disjointness_matrix(1, F5), 7, 2)
    assert circuit_product(circ) == disjointness_matrix(7, F5)


def test_js_factorization_does_not_build_r_n():
    # R_14's own arrays hold 73 MB; A_14 and B_14 about 16 MB
    tracemalloc.start()
    try:
        js_factorization(14, F5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def mp_entropy(x):
    """The 64-bit mpmath oracle of disjoint.entropy, on (0, 1)."""
    with mpmath.workprec(64):
        x = mpmath.mpf(x)
        return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def test_entropy_values():
    assert entropy(Fraction(1, 2)) == 1
    val = entropy(Fraction(1, 4))
    with mpmath.workprec(64):
        expected = 2 - mpmath.mpf(3) / 4 * mpmath.log(3, 2)
    assert abs(val - expected) < mpmath.mpf(2) ** -50
    assert abs(float(val) - 0.811278) < 1e-6


def test_entropy_identities():
    for q in (2, 3, 4, 7):
        res = entropy_identities_check(q, 20, 7)
        assert res["identity_ok"] and res["sandwich_ok"]


def test_critical_fraction():
    a_star, h_val = critical_fraction()
    with mpmath.workprec(64):
        lhs = (1 - a_star) * mp_entropy((1 - 2 * mpmath.mpf(a_star)) / (1 - a_star))
        assert abs(lhs - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -38
        # the same bisection in 64-bit mpmath, run for 64 halvings
        lo, hi = mpmath.mpf("0.25"), mpmath.mpf("0.49")
        for _ in range(64):
            mid = (lo + hi) / 2
            if (1 - mid) * mp_entropy((1 - 2 * mid) / (1 - mid)) > 0.5:
                lo = mid
            else:
                hi = mid
        assert abs(a_star - (lo + hi) / 2) < 1e-15
        assert abs(h_val - mp_entropy(a_star)) < 1e-15
    assert abs(float(a_star) - 0.41777) < 1e-4
    assert abs(float(h_val) - 0.9804) < 1e-3


def test_residual_below_sqrt_regime():
    # near the critical fraction the residual sparsity drops below 2^(n/2)
    n = 14
    k = int(Fraction(4178, 10000) * n)  # floor(a* n) = 5
    rep = dense_removal(n, k, method="count")
    assert rep.residual_row_nnz < 2 ** (n / 2) * 4  # finite-n slack
