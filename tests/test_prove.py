"""The structural proof: sparse.kron_split recovers Kronecker operands,
circuits.prove_power proves a circuit on them, and `verify` falls back to
the block check only when the proof is undecided."""

import dataclasses
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kronrigid import cli, circuits, rigidity, sparse
from kronrigid.circuits import SynchronousCircuit, prove_power, synthesize, verify_circuit
from kronrigid.cli import main
from kronrigid.errors import RationalUnsupported
from kronrigid.fields import FieldCtx
from kronrigid.sparse import SparseMatrix, identity, kron, kron_split, matmul

from reference import SplitMix64, circuit_product, kron_reference, triplets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ROUNDTRIP  # noqa: E402

F5, F7, FBIG, Q = FieldCtx(5), FieldCtx(7), FieldCtx(2**31 - 1), FieldCtx(0)
FIELDS = [F7, FBIG, Q]


def random_matrix(rng, rows, cols, ctx, fill=3):
    """A rows x cols matrix with about 1/fill of its entries nonzero, each
    row holding at least two of them."""
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.randrange(fill) == 0 or j < 2:
                v = rng.randint(1, 6) * (-1) ** rng.randrange(2)
                entries[(i, j)] = ctx.coerce(Fraction(v, rng.randint(1, 3)) if not ctx.modulus else v)
    return SparseMatrix(rows, cols, ctx, [(i, j, v) for (i, j), v in entries.items()])


def changed(m, how, rng):
    """m with one value changed, one entry moved to an empty spot of its
    row, or one entry added there."""
    entries = triplets(m)
    open_rows = {i for i in range(m.rows) if m.indptr[i + 1] - m.indptr[i] < m.cols}
    ks = [k for k, (i, _, _) in enumerate(entries) if how == "value" or i in open_rows]
    k = ks[rng.randrange(len(ks))]
    i, j, v = entries[k]
    ctx = m.ctx
    if how == "value":
        entries[k] = (i, j, ctx.add_raw(v, 1) or ctx.add_raw(v, 2))
    else:
        used = {jj for ii, jj, _ in entries if ii == i}
        free = [jj for jj in range(m.cols) if jj not in used]
        if how == "moved":
            entries[k] = (i, free[rng.randrange(len(free))], v)
        else:
            entries.append((i, free[rng.randrange(len(free))], 1))
    return SparseMatrix(m.rows, m.cols, ctx, entries)


def family_tf(family, base, n, d, ctx):
    unit = cli._family_unit(family, ctx)
    return cli._base_factorization(family, base, n, d, ctx), unit


def decide(circ, family, n):
    """What `verify` decides, and how: the proof, else the block check."""
    unit = cli._family_unit(family, circ.ctx)
    ok = prove_power(circ, unit, n, cli._base_shapes(family))
    if ok is None:
        return verify_circuit(circ, [unit] * n), "block"
    return ok, "structural"


@pytest.mark.parametrize("field", [3, 5, 2**31 - 1, 0])
def test_the_base_shapes_are_the_same_in_every_field(field):
    """`verify` reads the Hadamard bases' shapes once, whatever the field."""
    ctx, shapes = FieldCtx(field), []
    for family, decomposition in cli._BASES.values():
        if family == "hadamard":
            tf = circuits.two_factor_from_rigidity(decomposition(ctx))
            shapes += [(tf.q, tf.h), (tf.h, tf.q), (tf.h, tf.h)]
    assert tuple(shapes) == cli._base_shapes("hadamard") == (
        (4, 5), (5, 4), (5, 5), (8, 9), (9, 8), (9, 9), (16, 17), (17, 16), (17, 17))


# -- kron_split -----------------------------------------------------------


@pytest.mark.parametrize("ctx", [F7, FBIG], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_kron_split_recovers_a_product_up_to_scalars(ctx, seed):
    rng = SplitMix64(seed)
    a = random_matrix(rng, 2 + seed % 2, 3, ctx)
    b = random_matrix(rng, 4, 3 + seed % 3, ctx)
    m = kron(a, b)
    x, y = kron_split(m, a.rows, a.cols)
    assert kron(x, y) == m
    assert (x.rows, x.cols, y.rows, y.cols) == (a.rows, a.cols, b.rows, b.cols)
    lam = ctx.mul_raw(a.data[:1].tolist()[0], ctx.inv_raw(x.data[:1].tolist()[0]))
    assert sparse.scale(x, lam) == a and sparse.scale(y, ctx.inv_raw(lam)) == b
    assert kron_split(m, 5, a.cols) is None  # 5 does not divide the rows


@pytest.mark.parametrize("ctx", [F7, FBIG], ids=str)
@pytest.mark.parametrize("how", ["value", "moved", "extra"])
@pytest.mark.parametrize("seed", range(3))
def test_kron_split_rejects_one_entry_changed(ctx, how, seed):
    rng = SplitMix64(100 + seed)
    a, b = random_matrix(rng, 3, 2, ctx, fill=1), random_matrix(rng, 4, 5, ctx)
    m = changed(kron(a, b), how, rng)
    assert kron_split(m, 3, 2) is None


def test_kron_split_refuses_q():
    # over Q the proof splits the layers' images mod primes instead; the
    # refusal comes first, before a shape that does not divide m is refused
    m = kron(identity(2, Q), identity(3, Q))
    for r, c in [(2, 2), (4, 4)]:
        with pytest.raises(RationalUnsupported):
            kron_split(m, r, c)


def test_kron_split_of_zero_and_of_sparse_blocks():
    zero = sparse._empty(6, 4, F7)
    x, y = kron_split(zero, 3, 2)
    assert kron(x, y) == zero
    # many more blocks than entries: counted without a bin per block
    m = kron(identity(300, F7), random_matrix(SplitMix64(9), 2, 3, F7))
    x, y = kron_split(m, 300, 300)
    assert x == identity(300, F7) and kron(x, y) == m


# -- prove_power ----------------------------------------------------------


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
@pytest.mark.parametrize("family,base,d", [
    ("hadamard", "h4", 4), ("hadamard", "h2", 2), ("hadamard", "h3cube", 3),
    ("disjointness", "js:8", 2), ("disjointness", "js:3", 4),
])
def test_the_proof_is_structural_at_n_64(ctx, family, base, d):
    tf, unit = family_tf(family, base, 64, d, ctx)
    circ = synthesize(tf, unit, 64, d)
    assert prove_power(circ, unit, 64) is True
    other = cli._family_unit("disjointness" if family == "hadamard" else "hadamard", ctx)
    assert prove_power(circ, other, 64) is not True


@pytest.mark.parametrize("ctx,a", [
    *[pytest.param(ctx, 3, id=str(ctx)) for ctx in FIELDS],
    pytest.param(Q, Fraction(3, 2), id="Q-3/2"),  # denominators on the proof's images
])
def test_operands_scaled_by_a_and_one_over_a(ctx, a):
    tf, unit = family_tf("hadamard", "h4", 12, 3, ctx)
    circ = synthesize(tf, unit, 12, 3)
    a = ctx.coerce(a)
    layers = [list(ops) for ops in circ.layers]
    layers[0][1] = sparse.scale(layers[0][1], a)
    layers[2][0] = sparse.scale(layers[2][0], ctx.inv_raw(a))
    assert prove_power(SynchronousCircuit(layers), unit, 12) is True
    layers[2][0] = circ.layers[2][0]  # only a: the product is a H_12
    assert prove_power(SynchronousCircuit(layers), unit, 12) is False
    # the same on explicit layers, scaled as a whole
    f = circ.factors
    scaled = SynchronousCircuit([sparse.scale(f[0], a), f[1], sparse.scale(f[2], ctx.inv_raw(a))])
    assert decide(scaled, "hadamard", 12) == (True, "structural")
    assert decide(SynchronousCircuit([sparse.scale(f[0], a), *f[1:]]), "hadamard", 12) == (
        False, "structural")


@pytest.mark.parametrize("delta", [2**31 - 1, -(2**31 - 1)])
def test_q_proof_takes_a_second_prime_for_an_entry_moved_by_the_first(monkeypatch, delta):
    # the change vanishes mod 2^31 - 1, the first prime, where the image is
    # proved equal: the bound must call for a second prime, which decides
    tf, unit = family_tf("hadamard", "h4", 8, 2, Q)
    circ = synthesize(tf, unit, 8, 2)
    used, mod = set(), circuits._mod

    def spy(integers, ctx):
        used.add(ctx.modulus)
        return mod(integers, ctx)

    monkeypatch.setattr(circuits, "_mod", spy)
    assert prove_power(circ, unit, 8) is True
    assert used == {2**31 - 1}  # small integer entries: one prime
    layers = [list(ops) for ops in circ.layers]
    b = layers[0][0]
    layers[0][0] = sparse.add_mat(b, SparseMatrix(b.rows, b.cols, Q, [(0, 0, Fraction(delta))]))
    tampered = SynchronousCircuit(layers)
    used.clear()
    assert prove_power(tampered, unit, 8) is not True
    assert len(used) > 1
    assert decide(tampered, "hadamard", 8)[0] is False
    assert decide(SynchronousCircuit(tampered.factors), "hadamard", 8)[0] is False


@pytest.mark.parametrize("scalar,proved", [(3, False), (1, True)])
def test_a_one_by_one_operand_is_a_chain_of_size_one(scalar, proved):
    # the [[scalar]] operand is a chain of size 1 between the cuts, so it is
    # its own lambda: 3 H_1 is not H_1, and [[1]] is an identity
    h1 = SparseMatrix.from_dense([[1, 1], [1, -1]], F5)
    circ = SynchronousCircuit([[SparseMatrix.from_dense([[scalar]], F5), h1]])
    assert prove_power(circ, h1, 1) is proved
    assert verify_circuit(circ, [h1]) is proved


def test_kron_all_of_no_matrix_is_refused():
    with pytest.raises(ValueError):
        sparse.kron_all([])


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
def test_chains_of_one_shape_are_compared_by_value(ctx):
    # positions 0 and 1 both multiply B by C; C at position 1 gets one
    # value changed, so its chain has the shapes and nnz of the proved one
    tf, unit = family_tf("hadamard", "h4", 12, 3, ctx)
    circ = synthesize(tf, unit, 12, 3)
    layers = [list(ops) for ops in circ.layers]
    layers[2][1] = changed(layers[2][1], "value", SplitMix64(3))
    tampered = SynchronousCircuit(layers)
    assert prove_power(tampered, unit, 12) is None
    assert decide(SynchronousCircuit(tampered.factors), "hadamard", 12)[0] is False


def test_the_js14_proof_holds_one_row_block_of_each_chain():
    # the chain products B_14 C_14 and R_14 hold 4.8M entries each; built
    # whole, they put the proof's traced peak near 200 MiB
    tf, unit = family_tf("disjointness", "js:14", 64, 4, F5)
    circ = synthesize(tf, unit, 64, 4)
    tracemalloc.start()
    try:
        assert prove_power(circ, unit, 64) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


def test_every_row_block_of_a_chain_needs_the_same_multiple():
    # R_1^{x11} (177,147 entries) is proved in two row blocks, rows
    # 0..1023 and 1024..2047; doubling the second block's rows of R_11 makes
    # a chain that is a multiple of the unit power on each block, but with
    # lambda 1 on one and 2 on the other
    r1 = cli._family_unit("disjointness", F5)
    r10 = sparse.kron_power(r1, 10)
    assert [r for r, *_ in circuits._row_blocks([r1] * 11)] == [0, 1024]
    for rows, proved in [([[1, 1], [1, 0]], True), ([[1, 1], [2, 0]], None)]:
        x = kron(SparseMatrix.from_dense(rows, F5), r10)
        circ = SynchronousCircuit([[x, r1], [identity(2048, F5), identity(2, F5)]])
        assert prove_power(circ, r1, 12) is proved
        assert verify_circuit(circ, [r1] * 12) is bool(proved)


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
def test_the_row_blocks_cover_the_empty_rows_of_a_unit_power(ctx):
    # the unit's row 0 is empty: a chain with an entry there is no multiple
    # of it, though its other rows match
    unit = SparseMatrix.from_dense([[0, 0], [1, 1]], ctx)
    assert [r for r, *_ in circuits._row_blocks([unit])] == [0]
    extra = SparseMatrix.from_dense([[1, 0], [1, 1]], ctx)
    assert prove_power(SynchronousCircuit([[unit, unit]]), unit, 2) is True
    assert prove_power(SynchronousCircuit([[extra, unit]]), unit, 2) is None
    assert verify_circuit(SynchronousCircuit([[extra, unit]]), [unit] * 2) is False


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
def test_a_correct_circuit_that_is_no_kronecker_product_takes_the_block_check(ctx):
    h3 = sparse.kron_power(cli._family_unit("hadamard", ctx), 3)
    perm = SparseMatrix(8, 8, ctx, [(i, (5 * i + 3) % 8, 1) for i in range(8)])
    circ = SynchronousCircuit([perm, matmul(sparse.transpose(perm), h3)])
    assert prove_power(circ, cli._family_unit("hadamard", ctx), 3) is None
    assert decide(circ, "hadamard", 3) == (True, "block")


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
def test_an_unaligned_circuit_takes_the_block_check(ctx):
    # (I_2 x (I_2 x H_1)) ((H_1 x H_1) x I_2) = H_1^{x3}: the first layer's
    # operands end after 2 and 8 columns, the second's start with 4 rows
    h1, i2 = cli._family_unit("hadamard", ctx), identity(2, ctx)
    circ = SynchronousCircuit([[i2, kron(i2, h1)], [kron(h1, h1), i2]])
    assert prove_power(circ, h1, 3) is None
    assert decide(circ, "hadamard", 3) == (True, "block")
    wrong = SynchronousCircuit([[i2, kron(h1, i2)], [kron(h1, h1), i2]])
    assert decide(wrong, "hadamard", 3) == (False, "block")


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
@pytest.mark.parametrize("how", ["value", "moved", "extra"])
@pytest.mark.parametrize("family,base,n,d", [
    ("hadamard", "h4", 8, 2), ("hadamard", "h2", 6, 3), ("disjointness", "js:3", 6, 2),
])
def test_one_entry_changed_in_an_explicit_layer_is_not_equal(ctx, how, family, base, n, d):
    tf, unit = family_tf(family, base, n, d, ctx)
    factors = synthesize(tf, unit, n, d).factors
    rng = SplitMix64(n * d)
    for j in range(d):
        tampered = SynchronousCircuit(factors[:j] + [changed(factors[j], how, rng)] + factors[j + 1 :])
        assert prove_power(tampered, unit, n, cli._base_shapes(family)) is not True
        assert decide(tampered, family, n)[0] is False
        assert verify_circuit(tampered, [unit] * n) is False


@pytest.mark.parametrize("ctx", [F7, Q], ids=str)
@pytest.mark.parametrize("family,base,n,d", [
    ("hadamard", "h2", 4, 2), ("hadamard", "h2", 8, 4), ("hadamard", "h3cube", 6, 2),
    ("hadamard", "h3cube", 9, 3), ("hadamard", "h4", 8, 2), ("hadamard", "h4", 12, 3),
    *[("disjointness", f"js:{m}", 2 * m, 2) for m in range(1, 7)],
    ("disjointness", "js:2", 8, 4), ("disjointness", "js:4", 12, 3),
])
def test_the_proof_agrees_with_the_block_check(ctx, family, base, n, d):
    tf, unit = family_tf(family, base, n, d, ctx)
    circ = synthesize(tf, unit, n, d)
    factors = circ.factors
    assert prove_power(circ, unit, n) is True
    assert decide(SynchronousCircuit(factors), family, n) == (True, "structural")
    assert verify_circuit(SynchronousCircuit(factors), [unit] * n) is True
    factors[-1] = changed(factors[-1], "value", SplitMix64(n))
    assert decide(SynchronousCircuit(factors), family, n)[0] is False
    assert verify_circuit(SynchronousCircuit(factors), [unit] * n) is False


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
@pytest.mark.parametrize("side", ["B", "B_prime"])
@pytest.mark.parametrize("family,base,n,d", [("hadamard", "h4", 8, 2), ("disjointness", "js:3", 6, 2)])
def test_a_base_with_one_entry_changed_is_not_proved(monkeypatch, capsys, ctx, side, family, base, n, d):
    # the proof is the only check of a base against its family's unit
    tf, unit = family_tf(family, base, n, d, ctx)
    bad = dataclasses.replace(tf, **{side: changed(getattr(tf, side), "value", SplitMix64(n))})
    circ = synthesize(bad, unit, n, d)
    assert prove_power(circ, unit, n) is not True
    assert verify_circuit(circ, [unit] * n) is False
    monkeypatch.setattr(cli, "_base_factorization", lambda *args: bad)
    argv = ["--family", family, "--n", str(n), "--depth", str(d), "--base", base]
    assert main(["synth", *argv, "--field", str(ctx.modulus)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not proved equal" in captured.err


# -- soundness fuzz -------------------------------------------------------

FUZZ_FIELDS = [FieldCtx(3), F5, F7, Q]
KEEP = ["merge", "split identity", "scale and unscale", "explicit layer", "insert 1x1"]
BREAK = ["change entry", "swap", "transpose", "unmatched scale"]


def elements(ctx, skip=()):
    pool = range(ctx.modulus) if ctx.modulus else {Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)}
    return st.sampled_from(sorted(x for x in pool if x not in skip))


@st.composite
def fuzz_circuits(draw):
    """(circuit, unit, n, shapes): a butterfly or a synthesized circuit of
    H_1, R_1 or a random q x q unit, q in {2, 3}, at n <= 6 (n <= 4 at q = 3)."""
    ctx = draw(st.sampled_from(FUZZ_FIELDS))
    family = draw(st.sampled_from(["hadamard", "disjointness", "random"]))
    if family == "random":
        q = draw(st.sampled_from([2, 3]))
        unit = SparseMatrix.from_dense([[draw(elements(ctx)) for _ in range(q)] for _ in range(q)], ctx)
    else:
        unit = cli._family_unit(family, ctx)
    n = draw(st.integers(1, 6 if unit.rows == 2 else 4))
    if draw(st.booleans()):
        group = draw(st.sampled_from([g for g in range(1, n + 1) if n % g == 0]))
        return circuits.butterfly_circuit([unit] * n, group), unit, n, ()
    d = draw(st.integers(2, 3))
    if family == "random":  # a rank-1 split of unit^{x t}, the low part drawn
        base = sparse.kron_power(unit, draw(st.integers(1, 2)))
        col, row = ([draw(elements(ctx)) for _ in range(base.rows)] for _ in range(2))
        tf = circuits.two_factor_from_rigidity(rigidity._rank1_split(base, col, row))
    else:
        bases = ["h2", "h3cube"] if family == "hadamard" else ["js:1", "js:2", "js:3"]
        tf = cli._base_factorization(family, draw(st.sampled_from(bases)), n, d, ctx)
    return circuits.synthesize(tf, unit, n, d), unit, n, [(tf.q, tf.h), (tf.h, tf.q), (tf.h, tf.h)]


def rewrite(data, layers, ctx, how):
    """Apply one rewrite to layers in place: those of KEEP keep the
    product, those of BREAK change it unless the product hides the change."""
    position = st.integers(0, len(layers) - 1).flatmap(
        lambda j: st.tuples(st.just(j), st.integers(0, len(layers[j]) - 1)))
    j, k = data.draw(position)
    ops, m = layers[j], layers[j][k]
    if how == "merge" and k + 1 < len(ops):
        ops[k : k + 2] = [kron(m, ops[k + 1])]
    elif how == "split identity" and m == identity(m.rows, ctx):
        sides = [a for a in range(2, m.rows) if m.rows % a == 0]
        if sides:
            a = data.draw(st.sampled_from(sides))
            ops[k : k + 1] = [identity(a, ctx), identity(m.rows // a, ctx)]
    elif how in ("scale and unscale", "unmatched scale"):
        lam = data.draw(elements(ctx, skip=(0, 1)))
        ops[k] = sparse.scale(m, lam)
        if how == "scale and unscale":
            j2, k2 = data.draw(position)
            layers[j2][k2] = sparse.scale(layers[j2][k2], ctx.inv_raw(lam))
    elif how == "explicit layer":
        layers[j] = [sparse.kron_all(ops)]
    elif how == "insert 1x1":
        ops.insert(data.draw(st.integers(0, len(ops))), identity(1, ctx))
    elif how == "change entry":
        i, c = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
        delta = data.draw(elements(ctx, skip=(0,)))
        ops[k] = sparse.add_mat(m, SparseMatrix(m.rows, m.cols, ctx, [(i, c, delta)]))
    elif how == "swap":
        k2 = data.draw(st.integers(0, len(ops) - 1))
        ops[k], ops[k2] = ops[k2], m
    elif how == "transpose" and m.is_square:  # a non-square one breaks the chain
        ops[k] = sparse.transpose(m)


@settings(max_examples=300, deadline=None)
@given(fuzz_circuits(), st.data())
def test_the_proof_is_sound_on_rewritten_circuits(built, data):
    circ, unit, n, shapes = built
    layers = [list(ops) for ops in circ.layers]
    hows = data.draw(st.lists(st.sampled_from(KEEP), max_size=3))
    hows += data.draw(st.lists(st.sampled_from(BREAK), max_size=1))
    for how in hows:
        rewrite(data, layers, unit.ctx, how)
    circ = SynchronousCircuit(layers)
    equal = circuit_product(circ) == sparse.kron_power(unit, n)
    verdict = prove_power(circ, unit, n, shapes)
    event(f"equal={equal} proved={verdict}")
    assert verdict is None or verdict == equal


# -- the block check's random columns ------------------------------------


def rescaled(factors, rng):
    """The factors with the first times a random invertible diagonal D and
    the second times D^-1: the same product, but the first two layers
    rarely peel, so the proof is mostly undecided."""
    ctx = factors[0].ctx
    values = [rng.nonzero_field_element(ctx) for _ in range(factors[0].cols)]
    d, d_inv = (sparse.diagonal(v, ctx) for v in (values, [ctx.inv_raw(x) for x in values]))
    return [matmul(factors[0], d), matmul(d_inv, factors[1]), *factors[2:]]


@st.composite
def explicit_circuits(draw):
    """(factors, unit, n): the explicit factors of a butterfly or a
    synthesized circuit of H_1 or R_1 at n <= 8, over F_3, F_(2^31-1) or Q."""
    ctx = draw(st.sampled_from([FieldCtx(3), FBIG, Q]))
    family = draw(st.sampled_from(["hadamard", "disjointness"]))
    unit = cli._family_unit(family, ctx)
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        group = draw(st.sampled_from([g for g in range(1, n + 1) if n % g == 0]))
        circ = circuits.butterfly_circuit([unit] * n, group)
    else:
        bases = ["h2", "h3cube", "h4"] if family == "hadamard" else ["js:1", "js:2", "js:3"]
        d = draw(st.integers(2, 3))
        circ = synthesize(cli._base_factorization(family, draw(st.sampled_from(bases)), n, d, ctx), unit, n, d)
    return circ.factors, unit, n


@settings(max_examples=120, deadline=None)
@given(explicit_circuits(), st.sampled_from(["value", "moved", "rescaled"]), st.data())
def test_the_block_check_agrees_with_the_reference_product(built, how, data):
    # one value changed or one entry moved: the random columns refute it
    # (or, with chance at most 2^-20, the walk does); rescaled: still equal
    factors, unit, n = built
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    if how == "rescaled" and len(factors) > 1:
        factors = rescaled(factors, rng)
    else:
        j = data.draw(st.integers(0, len(factors) - 1))
        m = factors[j]
        factors[j] = changed(m, "value" if how == "rescaled" or m.nnz == m.rows * m.cols else how, rng)
    circ = SynchronousCircuit(factors)
    equal = circuit_product(circ) == kron_reference([unit] * n)
    event(f"{how} equal={equal}")
    assert verify_circuit(circ, [unit] * n) is equal


@pytest.mark.parametrize("ctx", [F5, FieldCtx(3), FBIG, Q], ids=str)
def test_an_equal_circuit_the_proof_leaves_undecided_verifies(ctx):
    unit, circ = cli._synth_row("hadamard", "h4", 10, 2, ctx)[:2]
    circ = SynchronousCircuit(rescaled(circ.factors, SplitMix64(10)))
    assert prove_power(circ, unit, 10, cli._base_shapes("hadamard")) is None
    assert verify_circuit(circ, [unit] * 10) is True


def test_the_random_columns_alone_refute_a_changed_last_entry(tmp_path, monkeypatch, capsys):
    # the h2 file at n = 14, d = 7 with the last entry of layer 0 changed:
    # the walk of row blocks would take seconds, and it is not reached
    path = tmp_path / "h2.circ"
    assert main(["synth", "--family", "hadamard", "--n", "14", "--depth", "7", "--base", "h2",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("factor 1 ")) - 1  # layer 0's last
    i, j, v = lines[k].split()
    lines[k] = f"{i} {j} {int(v) % 4 + 1}"  # another nonzero residue mod 5
    path.write_text("\n".join(lines) + "\n")

    def no_walk(*args):
        raise AssertionError("the walk of row blocks ran")

    monkeypatch.setattr(SparseMatrix, "row_block", no_walk)
    capsys.readouterr()
    assert main(["verify", "--circuit", str(path), "--family", "hadamard", "--n", "14"]) == 1
    assert capsys.readouterr().out.startswith("equal=False wires=540672 depth=7 method=block")


# -- the command line -----------------------------------------------------


@pytest.mark.parametrize("family,n,d,base", [*ROUNDTRIP, ("disjointness", 14, 2, "js:7")])
def test_verify_proves_every_roundtrip_circuit_structurally(tmp_path, capsys, family, n, d, base):
    path = str(tmp_path / "c.circ")
    argv = ["--family", family, "--n", str(n)]
    assert main(["synth", *argv, "--depth", str(d), "--base", base, "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--circuit", path, *argv]) == 0
    assert capsys.readouterr().out.endswith(" method=structural\n")


@pytest.mark.parametrize("family", ["hadamard", "disjointness"])
def test_verify_of_a_tampered_butterfly_is_not_equal(tmp_path, capsys, family):
    unit = cli._family_unit(family, F7)
    layers = circuits.butterfly_circuit([unit] * 8, 4).factors
    layers[1] = changed(layers[1], "value", SplitMix64(5))
    path = tmp_path / "bad.circ"
    circuits.save_circuit(SynchronousCircuit(layers), path)
    assert main(["verify", "--circuit", str(path), "--family", family, "--n", "8"]) == 1
    assert capsys.readouterr().out.startswith("equal=False ")


def test_synth_exits_1_when_the_proof_fails(monkeypatch, capsys):
    monkeypatch.setattr(circuits, "prove_power", lambda *args, **kwargs: False)
    assert main(["synth", "--family", "hadamard", "--n", "8", "--depth", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not proved equal" in captured.err
