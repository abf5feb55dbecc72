"""Byte identity of the table-driven text writer with the %-formatter it
replaced, over F_5, F_(2^31 - 1) and Q, and with str() beside a bytes
column; byte identity of circuit files
written from each layer's Kronecker operands, one row block at a time, with
the explicit layers of an entry-by-entry Kronecker product, also for rows
longer than a 2^14-entry chunk, tails with all values distinct and layers
with more columns than entries; that no layer block is built for a file;
the memory bound of both writers; the cap check before a circuit is
written; the sha256 of `synth --out` files; and the reuse of repeated
operands in kron_all."""

import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronrigid import circuits, rigidity, sparse, vf
from kronrigid.circuits import SynchronousCircuit
from kronrigid.cli import main
from kronrigid.errors import CapExceeded
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.sparse import SparseMatrix

from reference import circuit_product, kron_reference

P31 = 2**31 - 1
FIELDS = [FieldCtx(5), FieldCtx(P31), RATIONALS]
PROPS = settings(max_examples=60, deadline=None)


def percent_lines(m):
    """The "i j value" lines as the writer made them before the digit
    tables: the reference the new writer must match byte for byte."""
    block = 1 << 18
    rows = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.indptr))
    out = []
    for lo in range(0, m.nnz, block):
        hi = min(lo + block, m.nnz)
        flat = np.empty((hi - lo, 3), dtype=object)
        flat[:, 0] = rows[lo:hi]
        flat[:, 1] = m.indices[lo:hi]
        flat[:, 2] = m.data[lo:hi].tolist()
        out.append(("%d %d %s\n" * (hi - lo)) % tuple(flat.ravel().tolist()))
    return "".join(out)


def reference_dump(m):
    return f"{m.rows} {m.cols} {m.ctx.modulus}\n" + percent_lines(m)


# Numbers at the edges of a digit count, and of the 3- and 4-digit words.
EDGES = [1, 9, 10, 11, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 9999999, 10000000]


def values(ctx):
    if ctx.is_prime_field:
        p = ctx.modulus
        return st.one_of(
            st.integers(1, p - 1), st.sampled_from([e % p for e in EDGES if e % p] + [p - 1])
        )
    return st.one_of(
        st.fractions(max_denominator=10**6).filter(bool),
        st.sampled_from([Fraction(e) for e in EDGES] + [Fraction(-e, e + 1) for e in EDGES]),
    )


@st.composite
def matrices(draw):
    ctx = draw(st.sampled_from(FIELDS))
    rows, cols = (draw(st.sampled_from([0, 1, 3, 10, 11, 1001, 100001])) for _ in range(2))
    count = draw(st.integers(0, 30)) if rows and cols else 0
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                         max_size=count)) if count else set()
    return SparseMatrix(rows, cols, ctx, [(i, j, draw(values(ctx))) for i, j in cells])


@PROPS
@given(matrices())
def test_dump_matrix_matches_the_percent_formatter(m):
    assert sparse.dump_matrix(m) == reference_dump(m)


def test_dump_matrix_golden_edges():
    f31 = FieldCtx(P31)
    m = SparseMatrix(100001, 100001, f31, [
        (9, 10, 9), (10, 9, 10), (99999, 100000, 99999), (100000, 99999, 100000),
        (0, 0, P31 - 1), (100000, 100000, 1),
    ])
    assert sparse.dump_matrix(m) == (
        "100001 100001 2147483647\n0 0 2147483646\n9 10 9\n10 9 10\n"
        "99999 100000 99999\n100000 99999 100000\n100000 100000 1\n"
    )
    q = SparseMatrix(2, 3, RATIONALS, [(0, 2, Fraction(-5, 7)), (1, 0, Fraction(-10)),
                                       (1, 1, Fraction(99999, 100000))])
    assert sparse.dump_matrix(q) == "2 3 0\n0 2 -5/7\n1 0 -10\n1 1 99999/100000\n"
    for rows, cols in ((0, 4), (4, 0), (0, 0), (2, 2)):
        for ctx in FIELDS:
            empty = SparseMatrix(rows, cols, ctx, [])
            assert sparse.dump_matrix(empty) == f"{rows} {cols} {ctx.modulus}\n"


@pytest.mark.parametrize("shape", ["long rows", "scattered rows"])
def test_dump_matrix_across_blocks(shape):
    """More than 2^18 entries: a row that crosses the block boundary, and
    rows far apart with empty rows between them."""
    rng = np.random.default_rng(7)
    count = (1 << 18) + 1000
    if shape == "long rows":
        rows, cols = 3, 100_000
        keys = np.arange(rows * cols)[: count]
    else:
        rows = cols = 1 << 21
        keys = np.unique(rng.integers(0, rows * cols, count))
    i, j = np.divmod(keys, cols)
    v = rng.integers(1, P31, keys.size)
    m = SparseMatrix(rows, cols, FieldCtx(P31), zip(i.tolist(), j.tolist(), v.tolist()))
    assert m.nnz > 1 << 18
    assert sparse.dump_matrix(m) == reference_dump(m)


def test_text_lines_is_str_of_every_int64():
    column = np.array([0, 7, 10**18, 2**63 - 1, 999, 1000, 9999, 10000], dtype=np.int64)
    expect = "".join(f"{v}\n" for v in column.tolist()).encode()
    assert sparse._text_lines(column) == expect
    signed = np.array([-1, 0, -(2**63), 12], dtype=np.int64)
    assert sparse._text_lines(signed, column[:4]) == (
        b"-1 0\n0 7\n-9223372036854775808 1000000000000000000\n12 9223372036854775807\n"
    )


@PROPS
@given(st.lists(st.tuples(st.text("01", min_size=1, max_size=13),
                          st.integers(0, 2**63 - 1) | st.sampled_from(EDGES),
                          values(RATIONALS)), min_size=1, max_size=30))
def test_text_lines_takes_a_bytes_column_as_it_is(rows):
    bits, ints, fracs = zip(*rows)
    columns = np.array(bits, "S"), np.array(ints, np.int64), np.array(fracs, object)
    expect = "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()
    assert sparse._text_lines(*columns) == expect


@pytest.mark.parametrize("n, rows", [
    (sparse.DIMENSION_CAP, "last three"),  # 2^26: no table of 2^26 rows
    (1 << 22, "far apart"),  # a block spans no more rows than entries
])
def test_dump_matrix_memory_is_bounded_by_the_block(n, rows):
    """An n x n matrix with three entries."""
    at = [n - 3, n - 2, n - 1] if rows == "last three" else [0, n // 2, n - 1]
    indptr = np.zeros(n + 1, dtype=np.int64)  # pages never written stay unmapped
    for i in at:
        indptr[i + 1:] += 1
    cols = [0, n // 2, n - 1]
    m = SparseMatrix._from_csr(n, n, FieldCtx(5), indptr, np.array(cols, dtype=np.int64),
                               np.array([1, 4, 2], dtype=np.int64))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        text = sparse.dump_matrix(m)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"{n} {n} 5\n" + "".join(f"{i} {j} {v}\n" for i, j, v in zip(at, cols, [1, 4, 2]))
    assert elapsed < 1.0
    assert peak < 10 * 2**20


@st.composite
def operands(draw, ctx, rows, cols):
    """A rows x cols operand with at most 8 entries, so rows with none are common."""
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                         max_size=min(rows * cols, 8)))
    return SparseMatrix(rows, cols, ctx, [(i, j, draw(values(ctx))) for i, j in cells])


@st.composite
def operand_circuits(draw):
    """Circuits of 1-3 layers of 1-4 small operands each: the column sides
    of one layer, in runs, multiply to the row sides of the next."""
    ctx = draw(st.sampled_from(FIELDS))
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        cols = draw(st.lists(st.integers(1, 4), min_size=len(sides), max_size=len(sides)))
        layers.append([draw(operands(ctx, r, c)) for r, c in zip(sides, cols)])
        cuts = sorted(draw(st.sets(st.integers(1, len(cols) - 1)))) if len(cols) > 1 else []
        sides = [math.prod(cols[a:b]) for a, b in zip([0, *cuts], [*cuts, len(cols)])]
    return SynchronousCircuit(layers)


@PROPS
@given(operand_circuits(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 16]))
def test_dump_circuit_matches_the_explicit_layers(circ, block):
    """Small blocks cut the layers between head rows, and a run of head
    rows can straddle several of them."""
    explicit = [kron_reference(ops) for ops in circ.layers]
    expect = f"circuit {circ.depth} {circ.rows} {circ.cols} {circ.ctx.modulus} "
    expect += f"{sum(m.nnz for m in explicit)}\n"
    for idx, m in enumerate(explicit):
        expect += f"factor {idx} {m.rows} {m.cols} {m.nnz}\n" + percent_lines(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuits, "WRITE_BLOCK", block)
        text = circuits.dump_circuit(circ)
    assert text == expect
    # the reader reads the writer's text back as its layers, as verify's rebuild relies on
    assert circuits.parse_circuit(text).factors == explicit


def random_operand(rng, ctx, rows, cols, count, distinct):
    """A rows x cols operand with count entries in random cells: all values
    distinct, or drawn from 1, 2 and -1."""
    cells = rng.choice(rows * cols, count, replace=False)
    if not distinct:
        vals = [ctx.coerce(int(v)) for v in rng.choice([1, 2, -1], count)]
    elif ctx.is_prime_field:
        vals = (rng.choice(ctx.modulus - 1, count, replace=False) + 1).tolist()
    else:  # numerators below a prime denominator: all distinct
        vals = [Fraction((-1) ** k * (k + 1), 1000003) for k in range(count)]
    return SparseMatrix(rows, cols, ctx, [(int(c // cols), int(c % cols), v) for c, v in zip(cells, vals)])


# (head rows, cols, entries, distinct values), then the same for the tail
LAYER_CASES = {
    "a row across chunks": ((1, 150, 150, False), (2, 200, 260, False)),
    "distinct tail values": ((3, 3, 9, False), (40, 50, 1500, True)),
    "more columns than entries": ((3, 2000, 6, True), (3, 3000, 7, True)),
}


@pytest.mark.parametrize("block", [1000, 1 << 16])
@pytest.mark.parametrize("ctx", [FieldCtx(P31), RATIONALS], ids=str)
@pytest.mark.parametrize("case", sorted(LAYER_CASES))
def test_dump_circuit_of_large_operands_matches_the_explicit_layer(case, ctx, block, monkeypatch):
    rng = np.random.default_rng(11)
    head, tail = (random_operand(rng, ctx, *spec) for spec in LAYER_CASES[case])
    layer = kron_reference([head, tail])
    if case == "a row across chunks":
        assert np.diff(layer.indptr).max() > 1 << 14
    if case == "more columns than entries":
        assert layer.cols > layer.nnz
    monkeypatch.setattr(circuits, "WRITE_BLOCK", block)
    assert circuits.dump_circuit(SynchronousCircuit([[head, tail]])) == (
        f"circuit 1 {layer.rows} {layer.cols} {ctx.modulus} {layer.nnz}\n"
        f"factor 0 {layer.rows} {layer.cols} {layer.nnz}\n" + percent_lines(layer)
    )


def h4_circuit(n, d):
    ctx = FieldCtx(5)
    tf = circuits.two_factor_from_rigidity(rigidity.h4_rank1_decomposition(ctx))
    return circuits.synthesize(tf, rigidity.hadamard_matrix(1, ctx), n, d)


def test_save_circuit_memory_is_bounded_by_the_block(tmp_path):
    """Layers of 1.84M entries are written without building one whole."""
    circ = h4_circuit(14, 2)
    assert min(circ.per_factor_nnz) > 1_800_000
    path = tmp_path / "c.circ"
    tracemalloc.start()
    try:
        circuits.save_circuit(circ, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path, "rb") as fh:
        assert fh.readline() == f"circuit 2 16384 16384 5 {circ.wires}\n".encode()
    assert peak < 40 * 2**20


def test_save_circuit_builds_no_layer_block(tmp_path, monkeypatch):
    """The lines are made from each block's Kronecker operands: no product
    of more than WRITE_BLOCK entries is built."""
    sizes = []
    kron = sparse.kron

    def spy(a, b):
        sizes.append(a.nnz * b.nnz)
        return kron(a, b)

    monkeypatch.setattr(sparse, "kron", spy)
    monkeypatch.setattr(circuits, "kron", spy)
    circuits.save_circuit(h4_circuit(14, 2), tmp_path / "c.circ")
    assert sizes and max(sizes) <= circuits.WRITE_BLOCK


def test_caps_are_checked_before_a_circuit_is_written(tmp_path):
    circ = h4_circuit(24, 3)
    assert circ.wires > 10**10 > circuits.WIRE_CAP
    path = tmp_path / "c.circ"
    for write in (circuits.dump_circuit, lambda c: circuits.save_circuit(c, path)):
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            write(circ)
        assert time.perf_counter() - start < 1.0
    assert not path.exists()


@PROPS
@given(st.data())
def test_dump_truthtable_matches_str(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    q, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    zero = st.just(0 if ctx.is_prime_field else Fraction(0))
    vals = data.draw(st.lists(st.one_of(zero, values(ctx)), min_size=q**n, max_size=q**n))
    table = vf.TruthTable(q, n, ctx, tuple(vals))
    expect = "\n".join([f"truthtable {q} {n} {ctx.modulus}", *map(str, vals)]) + "\n"
    assert vf.dump_truthtable(table) == expect


def test_dump_truthtable_writes_values_as_given():
    table = vf.TruthTable(2, 1, FieldCtx(5), (-1, 7))  # not canonical residues
    assert vf.dump_truthtable(table) == "truthtable 2 1 5\n-1\n7\n"


def test_q_integers_past_int64_take_the_python_int_paths():
    # sparse._distinct ranks ints past int64 and Fractions as Python objects, and
    # circuits._integers sums entries of 2^31 and more as Python ints
    big = [(0, 1, 2**70), (1, 0, -(2**40)), (2, 2, 2**70), (2, 3, 5), (1, 3, Fraction(-2**70, 3))]
    m = SparseMatrix(3, 4, RATIONALS, big)
    assert sparse.dump_matrix(m) == reference_dump(m)
    assert sparse.parse_matrix(sparse.dump_matrix(m)) == m
    a = SparseMatrix(2, 2, RATIONALS, [(0, 0, 2**70), (0, 1, 1), (1, 1, -(2**40))])
    b = SparseMatrix(2, 2, RATIONALS, [(0, 0, 1), (1, 0, -(2**40)), (1, 1, 2**70)])
    circ = SynchronousCircuit([[a, b], [b, a]])
    explicit = [kron_reference(ops) for ops in circ.layers]
    expect = f"circuit 2 4 4 0 {sum(x.nnz for x in explicit)}\n"
    for idx, x in enumerate(explicit):
        expect += f"factor {idx} 4 4 {x.nnz}\n" + percent_lines(x)
    text = circuits.dump_circuit(circ)
    assert text == expect
    assert circuits.parse_circuit(text).factors == explicit
    target = circuit_product(circ)
    assert max(abs(v) for v in target.data.tolist()) > 2**180
    assert circuits.verify_circuit(circ, target)
    off_by_one = sparse.add_mat(target, SparseMatrix(4, 4, RATIONALS, [(0, 0, 1)]))
    assert not circuits.verify_circuit(circ, off_by_one)


# sha256 of `synth --out` files, taken before the table-driven writer.
SYNTH_DIGESTS = {
    ("hadamard", "h4", "131"): "7f545cd63af21077f8265c9e5c6d0e4e923e26165f234dc74700ae293b88d59c",
    ("disjointness", "js:4", "131"): "40478b974b1b4600ce6a12aaebec9c8e5029f5d262045879152039f92df29db6",
    ("hadamard", "h4", "2147483629"): "f7b7e4df87ff4369a0d4c7425ca08512cba5093a8de2b42280a47007ba7364fd",
    ("disjointness", "js:4", "2147483629"): "ebf11c6fa0987176e67eee5ec7c005f9e2a14d0b34846ba2987d0a37449faa86",
    ("hadamard", "h4", "0"): "639b4af48478438b1b2126eb8661e89009fd81174d95889ffeadedd55696aeb9",
    ("disjointness", "js:4", "0"): "92c29379338fdbaa9c9c9b79c7a8a11b3f2315c84d9a90710dfb98d7aae3fd79",
}


# sha256 of n = 12 `synth --out` files whose layers span several 2^14-entry
# chunks, taken before the writer made lines from the Kronecker operands.
CHUNKED_DIGESTS = {
    ("hadamard", "h4", "2147483629", "12", "3"): "fd6b1c875027b5ebd823d5df969d528317c9f910ad8524d23efca749778e68d5",
    ("hadamard", "h4", "0", "12", "3"): "5cc4dbe5915a010326d808e6f92ed324a4c77952c95652bba3209a75573e8f80",
    ("disjointness", "js:6", "2147483629", "12", "2"): "ee3507452c8155910f0d28a24bfe55784625a4f4764b8467583c008145a25729",
    ("disjointness", "js:6", "0", "12", "2"): "280f4eeab5582c208a1b60721e7462479a85988382e18014e59489518854746e",
}


@pytest.mark.parametrize("config", [(*c, "8", "2") for c in sorted(SYNTH_DIGESTS)] + sorted(CHUNKED_DIGESTS))
def test_synth_out_bytes_are_pinned(tmp_path, capsys, config):
    family, base, field, n, depth = config
    path = tmp_path / "c.circ"
    argv = ["synth", "--family", family, "--n", n, "--depth", depth, "--base", base,
            "--field", field, "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    expect = CHUNKED_DIGESTS.get(config) or SYNTH_DIGESTS[config[:3]]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expect


def test_kron_all_builds_a_repeated_half_once(monkeypatch):
    m = SparseMatrix.from_dense([[1, 2], [3, 0]], FieldCtx(5))
    calls = []
    kron = sparse.kron

    def counted(a, b):
        calls.append((a.rows, b.rows))
        return kron(a, b)

    monkeypatch.setattr(sparse, "kron", counted)
    power = sparse.kron_power(m, 8)
    assert calls == [(2, 2), (4, 4), (16, 16)]  # by squaring
    folded = m
    for n in range(2, 9):  # odd lengths split into unequal halves
        folded = kron(folded, m)
        assert sparse.kron_power(m, n) == folded
    assert power == folded
