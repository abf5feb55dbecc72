"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a
single pass line with the measured numbers.  Every pinned constant is
either checked against an independent oracle inside the test or is a
direct consequence of definitions (counts of materialized objects).
"""

import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from kronrigid import circuits, disjoint, mmbridge, rigidity, sparse, vf
from kronrigid.circuits import (
    balance_exponents,
    balanced_exponent,
    butterfly_circuit,
    lift_power,
    symmetrized_depth_d,
    two_factor_from_rigidity,
)
from kronrigid.disjoint import (
    binom_cum,
    dense_removal,
    js_factorization,
    js_side_sums,
)
from kronrigid.errors import DivisionByZero, ExceedsBound, ModulusTooSmallWarning
from kronrigid.fields import FieldCtx
from kronrigid.mmbridge import NaiveBackend, StrassenBackend, butterflytomm_apply
from kronrigid.rigidity import brute_force_rigidity, dft_matrix, hadamard_matrix
from kronrigid.sparse import SparseMatrix
from kronrigid.vf import TruthTable, batch_sums

from reference import (
    SplitMix64,
    apply_reference,
    batch_sums_oracle,
    circuit_product,
    expansion_identity_check,
    expansion_matrix_identity_check,
    js_factors_reference,
    js_pieces_reference,
    side_sums,
    validate_partition,
)

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F101 = FieldCtx(101)


def _ok(num, msg):
    print(f"criterion {num:02d}: PASS  {msg}")


def test_criterion_01_exact_minimum_for_h2():
    # exhaustive search certifies the 4x4 Hadamard power needs exactly
    # 4 changes to reach rank 1, over two small fields
    for ctx in (F3, F5):
        minimum, witness = brute_force_rigidity(hadamard_matrix(2, ctx), 1, 4)
        assert minimum == 4
        assert witness.verify()
        assert sparse.rank(witness.low_rank) <= 1
    _ok(1, "brute-force minimum changes to rank 1 is 4 for H_2 over F_3 and F_5")


def test_criterion_02_cube_and_h4_rank1():
    rng = SplitMix64(101)
    done = 0
    while done < 20:
        dense = [[rng.randrange(101) for _ in range(2)] for _ in range(2)]
        if any(v == 0 for row in dense for v in row):
            continue
        m = SparseMatrix.from_dense(dense, F101)
        # the cube construction expects an outer-1 base; diagonal
        # conjugation gets us there without changing sparsity counts
        _, normalized, _ = rigidity.normalize_outer1(m)
        try:
            dec = rigidity.cube_rank1_decomposition(normalized)
        except DivisionByZero:
            continue
        assert dec.changes <= 23
        assert dec.verify()
        assert sparse.rank(dec.low_rank) <= 1
        done += 1
    # omega = -1 specializes to 22 changes
    h1 = hadamard_matrix(1, F101)
    assert rigidity.cube_rank1_decomposition(h1).changes == 22
    # and the squared construction for the 16x16 power: 96 changes, rank 1
    d4 = rigidity.h4_rank1_decomposition(F101)
    assert d4.changes == 96
    assert d4.verify()
    assert sparse.rank(d4.low_rank) == 1
    _ok(2, "cube constructions stay within 22/23 changes; 16x16 power needs 96")


def test_criterion_03_h8_depth2_beats_butterfly():
    tf = two_factor_from_rigidity(rigidity.h4_rank1_decomposition(F5))
    circ = symmetrized_depth_d(tf, 2)
    h1 = hadamard_matrix(1, F5)
    assert circ.wires == 7168
    assert butterfly_circuit([h1] * 8, 4).wires == 8192
    assert circ.wires < 8192
    assert circuits.verify_circuit(circ, [h1] * 8)
    _ok(3, "H_8 depth-2 circuit: 7168 wires < 8192 butterfly, product verified")


def test_criterion_04_h12_depth3_beats_butterfly():
    tf = two_factor_from_rigidity(rigidity.h4_rank1_decomposition(F5))
    circ = symmetrized_depth_d(tf, 3)
    h1 = hadamard_matrix(1, F5)
    assert circ.wires == 175616
    assert butterfly_circuit([h1] * 12, 4).wires == 196608
    assert circ.wires < 196608
    assert circuits.verify_circuit(circ, [h1] * 12)
    _ok(4, "H_12 depth-3 circuit: 175616 wires < 196608 butterfly, product verified")


def test_criterion_05_wire_scaling():
    # the structural wire counts shrink relative to the generic
    # d * N^(1+1/d) butterfly envelope as the instance grows
    tf = two_factor_from_rigidity(rigidity.h4_rank1_decomposition(F5))
    ratios = []
    for m in (2, 4, 6):
        d = 2
        wires = lift_power(symmetrized_depth_d(tf, d), m).wires
        big_n = 16**m
        envelope = d * big_n ** (1 + 1 / d)
        assert wires < envelope
        ratios.append(wires / envelope)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    # small cross-check: the m = 2 structural count is the materialized count
    circ = symmetrized_depth_d(tf, 2)
    assert sum(f.nnz for f in circ.factors) == circ.wires
    _ok(5, f"wires / (d N^(1+1/d)) strictly decreasing: {[f'{r:.4f}' for r in ratios]}")


def test_criterion_06_dense_removal_n14():
    scan = dense_removal(14, 6, method="scan")
    count = dense_removal(14, 6, method="count")
    assert scan.removed_count == count.removed_count == 3473
    assert scan.residual_row_nnz == count.residual_row_nnz == 37
    assert 37 == binom_cum(8, 3)
    dec = disjoint.rn_rigidity_decomposition(14, Fraction(3, 7), F5)
    low = dec.low_rank
    assert sparse.add_mat(low, dec.S) == disjoint.disjointness_matrix(14, F5)
    assert dec.rank_bound == dec.B_lr.cols == 6946
    # every entry of the low-rank part sits in a removed row or column,
    # and it is B_lr x C_lr through 6946 inner coordinates
    light = np.array([bin(x).count("1") < 6 for x in range(1 << 14)])
    assert (light[sparse._row_ids(low)] | light[low.indices]).all()
    assert dec.S.nnz_r <= 37
    _ok(6, "n=14 k=6: 3473 removed, residual rows <= 37, rank bound 6946 certified")


def test_criterion_07_js_factorization():
    for n in range(1, 13):
        pieces = js_pieces_reference(n)
        assert validate_partition(pieces, n)
        assert side_sums(pieces) == js_side_sums(n)
        tf = js_factorization(n, F5)
        assert (tf.B, tf.C) == js_factors_reference(pieces, n, F5)
    for n in (2, 6, 12):
        tf = js_factorization(n, F5)
        s, r = js_side_sums(n)
        assert tf.B.nnz == s + 2 * r and tf.C.nnz == s + r
        prod = sparse.matmul(tf.B, tf.C)
        assert prod == disjoint.disjointness_matrix(n, F5)
    _ok(7, "partition factorization reproduces the disjointness pattern up to n=12")


def test_criterion_08_batch_sums_n12():
    rng = SplitMix64(108)
    n, big_n = 12, 4096
    oracle_rounds = 0
    for trial in range(100):
        f = TruthTable(
            2, n, F101, tuple(rng.randrange(101) for _ in range(big_n))
        )
        points = [rng.randrange(big_n) for _ in range(200)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModulusTooSmallWarning)
            fast, ops = batch_sums(f, points)
        assert ops["adds"] == 49152
        assert ops["mults"] <= 12288
        if trial % 10 == 0:
            slow = batch_sums_oracle(f, points)
            assert all(fast[p] == slow[p] for p in points)
            oracle_rounds += 1
    assert oracle_rounds == 10
    _ok(8, "batched sums at n=12: adds=49152, mults<=12288, matches the oracle")


def test_criterion_09_dft_resists_rank1():
    assert rigidity.shparlinski_bound(4, 1) == Fraction(9, 2)
    f4 = dft_matrix(4, F5)
    with pytest.raises(ExceedsBound):
        brute_force_rigidity(f4, 1, 4)
    _ok(9, "4-point DFT needs >= 5 changes to rank 1, matching the ceil(9/2) bound")


def test_criterion_10_inclusion_exclusion_q3():
    rng = SplitMix64(110)
    for _ in range(100):
        f = TruthTable(
            3, 3, F101, tuple(rng.randrange(101) for _ in range(27))
        )
        assert expansion_identity_check(f)
    for _ in range(5):
        f = TruthTable(3, 2, F101, tuple(rng.randrange(101) for _ in range(9)))
        assert expansion_matrix_identity_check(f)
    _ok(10, "sum over sub-supports reconstructs f (q=3), matrix identity included")


def test_criterion_11_mm_bridge_h8():
    h1 = hadamard_matrix(1, F101)
    rng = SplitMix64(111)
    v = [F101.coerce(rng.randrange(101)) for _ in range(256)]
    expected = apply_reference(hadamard_matrix(8, F101), v)
    out_n, rep_n = butterflytomm_apply([h1] * 8, 2, v, NaiveBackend())
    assert out_n == expected
    assert rep_n["mults"] == 8192 and rep_n["per_round_mults"] == [4096, 4096]
    out_s, rep_s = butterflytomm_apply(
        [h1] * 8, 2, v, StrassenBackend(threshold=4)
    )
    assert out_s == expected
    assert 0 < rep_s["per_round_mults"][0] == 49 * 64 < 4096
    _ok(11, "two matmul rounds evaluate H_8 exactly; naive cost 8192 mults")


def test_criterion_12_exponent_balancing():
    assert balanced_exponent([Fraction(3, 2), 1]) == Fraction(4, 3)
    h1 = hadamard_matrix(1, F5)

    def build(m):
        if m == 0:
            return [sparse.identity(1, F5), sparse.identity(1, F5)]
        return [sparse.kron_power(h1, m), sparse.identity(2**m, F5)]

    circ = balance_exponents(h1, build, 4)
    assert circuit_product(circ) == hadamard_matrix(4, F5)
    assert max(circ.per_factor_nnz) < max(f.nnz for f in build(4))
    _ok(12, "balancing (3/2, 1) -> 4/3 and reduces the widest factor on a split")
