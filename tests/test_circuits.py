import math
from fractions import Fraction

import numpy as np
import pytest

from kronrigid import circuits, cli, rigidity, sparse
from kronrigid.circuits import (
    SynchronousCircuit,
    balance_exponents,
    balanced_exponent,
    butterfly_circuit,
    lift_power,
    symmetrized_depth_d,
    two_factor_from_rigidity,
    verify_circuit,
)
from kronrigid.disjoint import disjointness_matrix, js_factorization
from kronrigid.errors import ContextMismatch, DimensionMismatch, KronRigidError
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.rigidity import hadamard_matrix
from kronrigid.sparse import SparseMatrix

from reference import SplitMix64, circuit_product

F5 = FieldCtx(5)


def h4_tf():
    return two_factor_from_rigidity(rigidity.h4_rank1_decomposition(F5))


def products(tf):
    """B x C and C' x B': both must be the base."""
    return sparse.matmul(tf.B, tf.C), sparse.matmul(tf.C_prime, tf.B_prime)


def test_two_factor_h4_counts():
    tf = h4_tf()
    assert tf.B.nnz == 112  # 96 changes + 16 low-rank column entries
    assert tf.C.nnz == 32  # 16 identity + 16 low-rank row entries
    assert tf.h == 17
    assert products(tf) == (hadamard_matrix(4, F5),) * 2
    assert tf.B_prime.nnz == tf.B.nnz
    assert tf.C_prime.nnz == tf.C.nnz


def test_two_factor_h2_counts():
    tf = two_factor_from_rigidity(rigidity.h2_rank1_decomposition(F5))
    assert tf.B.nnz == 8 and tf.C.nnz == 8 and tf.h == 5
    assert products(tf) == (hadamard_matrix(2, F5),) * 2


def test_symmetrized_depth2_h8():
    circ = symmetrized_depth_d(h4_tf(), 2)
    assert circ.per_factor_nnz == [3584, 3584]
    assert circ.wires == 7168
    assert circuit_product(circ) == hadamard_matrix(8, F5)
    assert circ.wires < butterfly_circuit([hadamard_matrix(1, F5)] * 8, 4).wires == 8192


# README "The N log N gap": wires / (N log2 N) of synthesize over every
# d | n.  The least is the butterfly's exactly 2, met only where the base
# covers no digit; a layer of s whole bits costs 2^(cs)/s, above 2 here.
BEST_COVERING_AT_64 = {  # (least ratio, its d) where the base covers a digit
    "h2": (Fraction(79, 32), 32),
    "h3cube": (Fraction(1065, 256), 16),
    "h4": (Fraction(945, 256), 16),
}


@pytest.mark.parametrize("n", [16, 64, 256])
def test_no_depth_beats_the_butterfly_per_n_log_n(n):
    unit = hadamard_matrix(1, F5)
    for name in ("h2", "h3cube", "h4"):
        tf = cli._base_factorization("hadamard", name, n, 2, F5)
        deepest = n // circuits.base_digits(tf, unit)  # the base covers a digit up to this d
        ratios = {
            d: Fraction(circuits.synthesize(tf, unit, n, d).wires, 2**n * n)
            for d in range(2, n + 1) if n % d == 0
        }
        assert min(ratios.values()) == Fraction(2)
        assert {d for d, r in ratios.items() if r == 2} == {d for d in ratios if d > deepest}, name
        if n == 64:
            assert min((r, d) for d, r in ratios.items() if d <= deepest) == BEST_COVERING_AT_64[name]


def test_symmetrized_depth3_counts():
    circ = symmetrized_depth_d(h4_tf(), 3)
    assert circ.per_factor_nnz == [57344, 60928, 57344]
    assert circ.wires == 175616
    assert 60928 == 57344 * 17 // 16  # inner-dimension slack on the middle factor


def _circuits_of_every_builder():
    tf, h1, r1 = h4_tf(), hadamard_matrix(1, F5), disjointness_matrix(1, F5)
    d2 = rigidity.h2_rank1_decomposition(F5)
    for d in (2, 3, 4):
        yield symmetrized_depth_d(tf, d)
    yield lift_power(symmetrized_depth_d(two_factor_from_rigidity(d2), 2), 4)
    yield circuits.synthesize(tf, h1, 10, 2)  # two leftover digits
    yield circuits.synthesize(js_factorization(2, F5), r1, 7, 2)  # R_7 from R_2
    yield butterfly_circuit([h1] * 8, group=4)
    yield butterfly_circuit([h1, r1, h1], group=1)
    build = _trivial_builder(h1, F5)
    yield balance_exponents(h1, build, 4)
    yield balance_exponents(h1, build, 4, sym=True)


def test_structural_counts_match_materialized():
    # shapes and nnz are products over each layer's operands; building
    # the layers must give the same numbers
    for circ in _circuits_of_every_builder():
        factors = circ.factors
        assert circ.per_factor_nnz == [f.nnz for f in factors]
        assert circ.wires == sum(f.nnz for f in factors)
        assert circ.shapes == [(f.rows, f.cols) for f in factors]


def test_symmetrized_depth_too_small():
    with pytest.raises(DimensionMismatch):
        symmetrized_depth_d(h4_tf(), 1)


def test_degenerate_two_factorization():
    # B = M, C = I gives the trivial depth-2 circuit
    m = hadamard_matrix(1, F5)
    tf = circuits.TwoFactorization(m, sparse.identity(2, F5), m, sparse.identity(2, F5))
    assert tf.q == 2 and products(tf) == (m, m)
    circ = symmetrized_depth_d(tf, 2)
    assert circuit_product(circ) == hadamard_matrix(2, F5)
    assert circ.wires == 2 * m.nnz * 2  # 2 * nnz(M) * q


def test_lift_power_identity_and_divisible():
    tf = h4_tf()
    base = symmetrized_depth_d(tf, 2)
    assert lift_power(base, 2) is base
    lifted = lift_power(base, 4)
    assert lifted.per_factor_nnz == [3584**2, 3584**2]
    # exactness of the equality case on a small base
    tf2 = two_factor_from_rigidity(rigidity.h2_rank1_decomposition(F5))
    small = symmetrized_depth_d(tf2, 2)
    big = lift_power(small, 4)
    assert big.per_factor_nnz == [x**2 for x in small.per_factor_nnz]
    assert circuit_product(big) == hadamard_matrix(8, F5)


def test_lift_power_to_a_non_multiple_is_a_value_error():
    tf = two_factor_from_rigidity(rigidity.h2_rank1_decomposition(F5))
    base = symmetrized_depth_d(tf, 2)
    for n in (3, 0):
        with pytest.raises(ValueError):
            lift_power(base, n)


def test_synth_depth_d_divisible():
    d4 = rigidity.h4_rank1_decomposition(F5)
    circ = circuits.synthesize(two_factor_from_rigidity(d4), d4.target, 2, 2)
    assert circ.wires == 7168
    assert circuit_product(circ) == hadamard_matrix(8, F5)


def test_synth_depth_d_cube_base():
    h1 = hadamard_matrix(1, F5)
    dec = rigidity.cube_rank1_decomposition(h1)
    # two units of the 8x8 base
    circ = circuits.synthesize(two_factor_from_rigidity(dec), dec.target, 2, 2)
    assert circuit_product(circ) == hadamard_matrix(6, F5)


def test_synth_depth_d_equals_symmetrized_at_n_eq_d():
    d4 = rigidity.h4_rank1_decomposition(F5)
    tf = two_factor_from_rigidity(d4)
    assert (
        circuits.synthesize(tf, d4.target, 3, 3).per_factor_nnz
        == symmetrized_depth_d(tf, 3).per_factor_nnz
    )


def test_synth_depth_d_remainder():
    d2 = rigidity.h2_rank1_decomposition(F5)
    # 3 units of the 4x4 base, depth 2
    circ = circuits.synthesize(two_factor_from_rigidity(d2), d2.target, 3, 2)
    assert circuit_product(circ) == hadamard_matrix(6, F5)
    assert circ.depth == 2


def test_synthesize_remainder_in_butterfly_slots():
    # n = 10 over the 4-digit h4 base at depth 2: one lifted unit of 8
    # digits, and the 2 digits left over split one per factor
    circ = circuits.synthesize(h4_tf(), hadamard_matrix(1, F5), 10, 2)
    assert circ.depth == 2
    assert verify_circuit(circ, [hadamard_matrix(1, F5)] * 10)


def test_synthesize_rejects_a_base_of_another_unit():
    # the sizes fit, so synthesize builds the circuit; the proof refuses it
    for tf, unit in [(h4_tf(), disjointness_matrix(1, F5)), (js_factorization(4, F5), hadamard_matrix(1, F5))]:
        assert circuits.prove_power(circuits.synthesize(tf, unit, 8, 2), unit, 8) is not True
    # 8 rows are no power of 4: refused on the sizes
    cube = two_factor_from_rigidity(rigidity.cube_rank1_decomposition(hadamard_matrix(1, F5)))
    with pytest.raises(ValueError):
        circuits.synthesize(cube, hadamard_matrix(2, F5), 4, 2)


def test_factors_in_different_fields_are_a_context_mismatch():
    # the package's one error for operands of different fields, as in sparse
    with pytest.raises(ContextMismatch):
        SynchronousCircuit([[hadamard_matrix(1, F5), hadamard_matrix(1, FieldCtx(7))]])
    with pytest.raises(ContextMismatch):
        SynchronousCircuit([hadamard_matrix(1, F5), hadamard_matrix(1, FieldCtx(0))])


def test_verify_circuit_shape_mismatch():
    d2 = rigidity.h2_rank1_decomposition(F5)
    circ = circuits.synthesize(two_factor_from_rigidity(d2), d2.target, 2, 2)
    with pytest.raises(DimensionMismatch):
        verify_circuit(circ, [hadamard_matrix(1, F5)] * 5)


def test_butterfly_h8():
    h1 = hadamard_matrix(1, F5)
    circ = butterfly_circuit([h1] * 8, group=4)
    assert circ.depth == 2
    assert circ.per_factor_nnz == [4096, 4096]
    assert circuit_product(circ) == hadamard_matrix(8, F5)


def test_butterfly_single():
    h1 = hadamard_matrix(1, F5)
    circ = butterfly_circuit([h1], group=1)
    assert circ.depth == 1
    assert circuit_product(circ) == h1


def test_butterfly_mixed():
    h1 = hadamard_matrix(1, F5)
    r1 = disjointness_matrix(1, F5)
    circ = butterfly_circuit([h1, r1, h1], group=1)
    expected = sparse.kron(sparse.kron(h1, r1), h1)
    assert circuit_product(circ) == expected


def test_butterfly_group_mismatch():
    h1 = hadamard_matrix(1, F5)
    with pytest.raises(DimensionMismatch):
        butterfly_circuit([h1] * 5, group=2)


def test_c_exponent_ordering():
    # h4 beats the cube beats the plain 4x4 base
    decs = [
        rigidity.h4_rank1_decomposition(F5),
        rigidity.cube_rank1_decomposition(hadamard_matrix(1, F5)),
        rigidity.h2_rank1_decomposition(F5),
    ]
    c_h4, c_cube, c_h2 = (two_factor_from_rigidity(dec).exponent for dec in decs)
    assert c_h4 < c_cube < c_h2 == 1.0
    # the closed form log_q((r+1)(r + changes/q)) of a rank-r decomposition
    for dec, c in zip(decs, (c_h4, c_cube, c_h2)):
        q, r = dec.target.rows, dec.rank_bound
        assert abs(c - math.log((r + 1) * (r + dec.changes / q), q)) < 1e-12


def test_balanced_exponent_formula():
    assert balanced_exponent([Fraction(3, 2), 1]) == Fraction(4, 3)
    assert balanced_exponent([2, 1]) == Fraction(3, 2)
    assert balanced_exponent([1, 1]) == 1


def _trivial_builder(base, ctx):
    def build(m):
        if m == 0:
            return [sparse.identity(1, ctx), sparse.identity(1, ctx)]
        return [sparse.kron_power(base, m), sparse.identity(base.rows**m, ctx)]

    return build


def test_balance_trivial_split():
    h1 = hadamard_matrix(1, F5)
    build = _trivial_builder(h1, F5)
    circ = balance_exponents(h1, build, 4)
    assert circuit_product(circ) == hadamard_matrix(4, F5)
    assert max(circ.per_factor_nnz) < max(f.nnz for f in build(4))


def test_balance_already_balanced():
    # equal exponents keep the input family at full power
    h1 = hadamard_matrix(1, F5)

    def build(m):
        if m == 0:
            return [sparse.identity(1, F5)] * 2
        half = m // 2
        return [
            sparse.kron(sparse.kron_power(h1, half), sparse.identity(2 ** (m - half), F5)),
            sparse.kron(sparse.identity(2**half, F5), sparse.kron_power(h1, m - half)),
        ]

    circ = balance_exponents(h1, build, 4, exponents=[Fraction(3, 2), Fraction(3, 2)])
    assert circuit_product(circ) == hadamard_matrix(4, F5)
    assert circ.per_factor_nnz == [f.nnz for f in build(4)]


def test_balance_sym_variant():
    h1 = hadamard_matrix(1, F5)
    build = _trivial_builder(h1, F5)
    circ = balance_exponents(h1, build, 4, sym=True)
    assert circuit_product(circ) == hadamard_matrix(4, F5)
    assert max(circ.per_factor_nnz) < max(f.nnz for f in build(4))


def test_balance_unverified_input():
    h1 = hadamard_matrix(1, F5)

    def bad(m):
        return [sparse.identity(2**m, F5), sparse.identity(2**m, F5)]

    with pytest.raises(KronRigidError, match="does not multiply to the target"):
        balance_exponents(h1, bad, 3)


def test_verify_circuit_report_and_tamper():
    circ = symmetrized_depth_d(h4_tf(), 2)
    assert verify_circuit(circ, hadamard_matrix(8, F5)) is True
    assert circ.wires == 7168 and circ.depth == 2
    tampered = SynchronousCircuit(
        [circ.factors[0], sparse.scale(circ.factors[1], 2)]
    )
    assert verify_circuit(tampered, hadamard_matrix(8, F5)) is False


@pytest.mark.parametrize("unit_of,p", [(hadamard_matrix, 7), (disjointness_matrix, 2**31 - 1)])
def test_verify_circuit_finds_one_changed_entry_in_the_last_row_block(unit_of, p):
    # At N = 4096 the rows are compared in blocks of 2^20 / 4096 = 256, in
    # column groups of 256.  Adding 1 at (4095, 2431) of the first factor
    # of unit_6 x I_64, I_64 x unit_6 changes only row 4095 of the product,
    # in the columns of the second factor's row 2431: the last row block,
    # column group 9.
    ctx = FieldCtx(p)
    unit = unit_of(1, ctx)
    circ = butterfly_circuit([unit] * 12, 6)
    assert verify_circuit(circ, [unit] * 12) is True
    first, second = circ.factors
    changed = second.row_block(2431, 2432).indices
    assert changed.size and (changed // 256 == 9).all()
    one = SparseMatrix(4096, 4096, ctx, [(4095, 2431, 1)])
    tampered = SynchronousCircuit([sparse.add_mat(first, one), second])
    assert verify_circuit(tampered, [unit] * 12) is False


def test_circuit_file_roundtrip(tmp_path):
    circ = symmetrized_depth_d(
        two_factor_from_rigidity(rigidity.h2_rank1_decomposition(F5)), 2
    )
    path = tmp_path / "c.circ"
    circuits.save_circuit(circ, path)
    loaded = circuits.load_circuit(path)
    assert loaded.wires == circ.wires
    assert circuit_product(loaded) == circuit_product(circ)
    head = path.read_text().splitlines()[0]
    assert head.startswith("circuit 2 16 16 5 ")


def _dense_chain_product(dense_factors, p):
    """Pure-Python product of dense residue matrices mod p."""
    acc = dense_factors[0]
    for f in dense_factors[1:]:
        acc = [
            [sum(row[k] * f[k][j] for k in range(len(f))) % p for j in range(len(f[0]))]
            for row in acc
        ]
    return acc


def test_product_exact_at_largest_prime():
    # at p = 2^31 - 1 one product of residues needs 62 bits, so eight of
    # them summed overflow int64 unless the kernel splits into limbs
    p = 2**31 - 1
    ctx = FieldCtx(p)
    rng = SplitMix64(77)
    dense = [[[rng.randrange(p) for _ in range(8)] for _ in range(8)] for _ in range(3)]
    circ = SynchronousCircuit([SparseMatrix.from_dense(d, ctx) for d in dense])
    expected = _dense_chain_product(dense, p)
    assert circuit_product(circ).to_array().tolist() == expected
    assert verify_circuit(circ, SparseMatrix.from_dense(expected, ctx))


def test_synth_save_load_verify_build_no_entry_tuples(tmp_path):
    # a synthesized circuit saved and loaded back still verifies
    circ = circuits.synthesize(h4_tf(), hadamard_matrix(1, F5), 8, 2)
    path = tmp_path / "h8.circ"
    circuits.save_circuit(circ, path)
    loaded = circuits.load_circuit(path)
    assert verify_circuit(loaded, [hadamard_matrix(1, F5)] * 8)


# -- verify_circuit over Q: the block check modulo primes -----------------

Q = FieldCtx(0)
MERSENNE = 2**31 - 1


def _q_h2_circuit(n=4):
    tf = two_factor_from_rigidity(rigidity.h2_rank1_decomposition(Q))
    return circuits.synthesize(tf, hadamard_matrix(1, Q), n, 2)


def _record_moduli(monkeypatch):
    """The moduli of the block checks verify_circuit runs, in order."""
    used = []
    blocks_equal = circuits._blocks_equal

    def spy(circ, ops):
        used.append(circ.ctx.modulus)
        return blocks_equal(circ, ops)

    monkeypatch.setattr(circuits, "_blocks_equal", spy)
    return used


def _plus(m, i, j, delta):
    """m with delta added at (i, j)."""
    return sparse.add_mat(m, SparseMatrix(m.rows, m.cols, m.ctx, [(i, j, Fraction(delta))]))


@pytest.mark.parametrize("side", ["circuit", "target"])
@pytest.mark.parametrize("delta", [MERSENNE, -MERSENNE])
def test_q_verify_takes_a_second_prime_for_an_entry_moved_by_the_first(monkeypatch, side, delta):
    # the change vanishes mod 2^31 - 1, the first prime: the bound, with
    # absolute row sums on both sides, must call for a second one
    circ = _q_h2_circuit()
    target = [hadamard_matrix(1, Q)] * 4
    used = _record_moduli(monkeypatch)
    assert verify_circuit(circ, target) is True
    assert used == [MERSENNE]  # integer entries, a small bound: one prime
    if side == "circuit":
        first, second = circ.factors
        circ = SynchronousCircuit([_plus(first, 0, 0, delta), second])
    else:
        target = [_plus(target[0], 0, 0, delta), *target[1:]]
    used.clear()
    assert verify_circuit(circ, target) is False
    assert len(used) > 1 and used[0] == MERSENNE


@pytest.mark.parametrize("side", ["circuit", "target"])
def test_q_verify_bound_counts_the_denominators(monkeypatch, side):
    # 2^31 is 1 mod 2^31 - 1, so one side scaled by 1/2^31 still agrees
    # with the other mod the first prime; only the denominator's share of
    # the bound calls for a second prime
    circ = _q_h2_circuit()
    target = [hadamard_matrix(1, Q)] * 4
    if side == "circuit":
        (a, *rest), *others = circ.layers
        circ = SynchronousCircuit([[sparse.scale(a, Fraction(1, 2**31)), *rest], *others])
    else:
        target[0] = sparse.scale(target[0], Fraction(1, 2**31))
    used = _record_moduli(monkeypatch)
    assert verify_circuit(circ, target) is False
    assert len(used) > 1 and used[0] == MERSENNE


@pytest.mark.parametrize("down,up,equal", [
    (3, 3, True), (3, 2, False),
    (MERSENNE, MERSENNE, True), (MERSENNE, MERSENNE + 1, False),  # that prime is skipped
])
def test_q_verify_operands_scaled_down_and_up(monkeypatch, down, up, equal):
    circ = _q_h2_circuit()
    (a, *rest_a), (b, *rest_b) = circ.layers
    scaled = SynchronousCircuit(
        [[sparse.scale(a, Fraction(1, down)), *rest_a], [sparse.scale(b, up), *rest_b]]
    )
    used = _record_moduli(monkeypatch)
    assert verify_circuit(scaled, [hadamard_matrix(1, Q)] * 4) is equal
    assert used and all(down % q for q in used)


def _q_circuits():
    h1, r1 = hadamard_matrix(1, Q), disjointness_matrix(1, Q)
    h4 = two_factor_from_rigidity(rigidity.h4_rank1_decomposition(Q))
    yield circuits.synthesize(h4, h1, 8, 2), [h1] * 8
    yield _q_h2_circuit(6), [h1] * 6
    yield circuits.synthesize(js_factorization(3, Q), r1, 6, 2), [r1] * 6
    yield butterfly_circuit([h1, r1, h1, r1], 2), [h1, r1, h1, r1]


def _tampered(circ, rng):
    """The circuit as explicit factors, one of them changed at one
    position: a stored entry or any other, by a small fraction."""
    factors = circ.factors
    j = rng.randrange(len(factors))
    f = factors[j]
    if f.nnz and rng.randrange(2):
        k = rng.randrange(f.nnz)
        i, col = int(sparse._row_ids(f)[k]), int(f.indices[k])
    else:
        i, col = rng.randrange(f.rows), rng.randrange(f.cols)
    delta = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 7]))
    factors[j] = _plus(f, i, col, delta)
    return SynchronousCircuit(factors)


def test_q_verify_agrees_with_the_whole_product():
    rng = SplitMix64(2024)
    verdicts = []
    for circ, target in _q_circuits():
        want = sparse.kron_all(target)
        same = circuit_product(circ) == want  # as layers of operands and as explicit factors
        cases = [(circ, same), (SynchronousCircuit(circ.factors), same)]
        cases += [(c, circuit_product(c) == want) for c in (_tampered(circ, rng) for _ in range(2))]
        for c, expected in cases:
            assert verify_circuit(c, target) is expected
            assert verify_circuit(c, want) is expected
            verdicts.append(expected)
    assert True in verdicts and False in verdicts


# Built-in bases at sizes where each layer holds several Kronecker operands.
INTEGRAL = [(base, n, d) for base in ("h2", "h3cube", "h4") for n, d in ((12, 2), (12, 3), (16, 4))]
INTEGRAL += [(f"js:{m}", 2 * m, 2) for m in range(1, 7)]


@pytest.mark.parametrize("base,n,d", INTEGRAL)
def test_each_built_in_q_circuit_is_integral_and_reduces_to_its_fp_circuit(base, n, d):
    # an integral circuit proved over Q is an identity of integer matrices,
    # so it holds in every field: its image mod p is the F_p circuit
    family = "disjointness" if base.startswith("js:") else "hadamard"
    circ = cli._synth_row(family, base, n, d, RATIONALS)[1]
    assert all(type(v) is int for layer in circ.layers for m in layer for v in m.data.tolist())
    for p in (3, 7, 2**31 - 1):
        image = cli._synth_row(family, base, n, d, FieldCtx(p))[1]
        assert [len(layer) for layer in image.layers] == [len(layer) for layer in circ.layers]
        for a, b in zip(sum(circ.layers, []), sum(image.layers, [])):
            assert (a.rows, a.cols) == (b.rows, b.cols)
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            assert [v % p for v in a.data.tolist()] == b.data.tolist()
