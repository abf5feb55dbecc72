import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from kronrigid import disjoint, rigidity, sparse
from kronrigid.errors import DimensionMismatch, DivisionByZero, ExceedsBound, OuterZero, WorkCapExceeded
from kronrigid.fields import FieldCtx
from kronrigid.rigidity import hadamard_matrix
from kronrigid.sparse import SparseMatrix

from reference import SplitMix64, brute_force_reference

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)


def test_h2_decomposition():
    d = rigidity.h2_rank1_decomposition(F5)
    assert d.changes == 4
    assert d.verify()
    assert d.target == hadamard_matrix(2, F5)
    assert sparse.rank(d.low_rank) == 1
    assert d.S.nnz_r == 1 and d.S.nnz_c == 1
    # first row of the rank-1 part is (-1, 1, 1, 1), the rest its negation
    low = d.low_rank.to_array().tolist()
    assert low[0] == [F5.coerce(v) for v in (-1, 1, 1, 1)]
    for row in low[1:]:
        assert row == [F5.coerce(v) for v in (1, -1, -1, -1)]
    # sparse part is 2 times a permutation pattern
    assert (d.S.data == F5.coerce(2)).all()


def test_cube_decomposition_omega_values():
    h1 = hadamard_matrix(1, F5)
    d = rigidity.cube_rank1_decomposition(h1)
    assert d.changes == 22
    assert d.verify()
    assert d.target == hadamard_matrix(3, F5)

    m = SparseMatrix.from_dense([[1, 1], [1, 2]], F7)
    d2 = rigidity.cube_rank1_decomposition(m)
    assert d2.changes == 23
    assert d2.verify()

    ones = SparseMatrix.from_dense([[1, 1], [1, 1]], F7)
    d3 = rigidity.cube_rank1_decomposition(ones)
    assert d3.changes == 0  # omega = 1 makes L match J_8 everywhere
    assert d3.verify()


def test_cube_omega_zero_rejected():
    r1 = SparseMatrix.from_dense([[1, 1], [1, 0]], F5)
    with pytest.raises(DivisionByZero):
        rigidity.cube_rank1_decomposition(r1)


def test_h4_decomposition():
    d = rigidity.h4_rank1_decomposition(F5)
    assert d.changes == 96
    assert d.verify()
    assert sparse.rank(d.low_rank) == 1
    assert d.S == sparse.sub_mat(hadamard_matrix(4, F5), d.low_rank)


def test_brute_force_h2():
    for ctx in (F3, F5):
        minimum, witness = rigidity.brute_force_rigidity(
            hadamard_matrix(2, ctx), 1, 4
        )
        assert minimum == 4
        assert witness.verify()


def test_brute_force_identity_trivial():
    minimum, witness = rigidity.brute_force_rigidity(sparse.identity(2, F3), 1, 1)
    assert minimum == 1
    assert witness.verify()


def test_brute_force_monotone_in_rank():
    rng = SplitMix64(41)
    m = SparseMatrix.from_triplets(
        3, 3, F3, [(i, j, rng.randint(1, 2)) for i in range(3) for j in range(3)]
    )
    prev = None
    for r in range(3):
        minimum, _ = rigidity.brute_force_rigidity(m, r, 9, work_cap=10**9)
        assert minimum <= m.nnz
        if prev is not None:
            assert minimum <= prev
        prev = minimum


def test_brute_force_diagonal_invariance():
    # conjugating by invertible diagonals does not change the minimum
    rng = SplitMix64(42)
    for _ in range(3):
        m = SparseMatrix.from_triplets(
            3, 3, F3,
            [(i, j, rng.randint(1, 2)) for i in range(3) for j in range(3)],
        )
        d1 = sparse.diagonal([rng.randint(1, 2) for _ in range(3)], F3)
        d2 = sparse.diagonal([rng.randint(1, 2) for _ in range(3)], F3)
        conj = sparse.matmul(sparse.matmul(d1, m), d2)
        a, _ = rigidity.brute_force_rigidity(m, 1, 4)
        b, _ = rigidity.brute_force_rigidity(conj, 1, 4)
        assert a == b


def test_brute_force_work_cap():
    with pytest.raises(WorkCapExceeded) as exc:
        rigidity.brute_force_rigidity(hadamard_matrix(2, F5), 1, 8, work_cap=100)
    assert exc.value.estimated_work > 100


def _search(fn, m, r, changes):
    try:
        return fn(m, r, changes)
    except ExceedsBound:
        return "exceeds"


def _agrees_with_the_reference(m, r, changes):
    got = _search(rigidity.brute_force_rigidity, m, r, changes)
    want = _search(brute_force_reference, m, r, changes)
    if want == "exceeds":
        assert got == want
    else:
        assert got[0] == want[0]
        if m.is_square:
            assert rigidity.dump_witness(got[1]) == rigidity.dump_witness(want[1])
        else:
            assert got[1] == want[1]
    return got


def test_brute_force_matches_the_candidate_by_candidate_reference():
    # up to 3x3, square and non-square, p in {3, 5, 7}, r <= 2, at most 4 changes
    rng = SplitMix64(43)
    seen = set()
    for _ in range(200):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        ctx = rng.choice((F3, F5, F7))
        r, changes = rng.randint(0, 2), rng.randint(0, 4)
        m = SparseMatrix.from_dense(
            [[rng.field_element(ctx) for _ in range(cols)] for _ in range(rows)], ctx
        )
        got = _agrees_with_the_reference(m, r, changes)
        seen.add((rows == cols, got == "exceeds"))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_brute_force_matches_the_reference_at_4x4_over_f3():
    # 4 x 4 and 4 x k at F_3, r <= 3, at most 3 changes; and H_2's 4 changes
    rng = SplitMix64(47)
    seen = set()
    for _ in range(40):
        rows, cols = 4, rng.randint(1, 4)
        if rng.randint(0, 1):
            rows, cols = cols, rows
        r, changes = rng.randint(0, 3), rng.randint(0, 3)
        m = SparseMatrix.from_dense(
            [[rng.field_element(F3) for _ in range(cols)] for _ in range(rows)], F3
        )
        got = _agrees_with_the_reference(m, r, changes)
        seen.add("exceeds" if got == "exceeds" else got[0])
    assert seen >= {"exceeds", 0, 1, 2, 3}
    assert _agrees_with_the_reference(hadamard_matrix(2, F3), 1, 4)[0] == 4


def test_every_pattern_the_minor_prune_drops_has_no_hit():
    # up to 4x4, p in {3, 5, 7}, r <= 3: every assignment of values other
    # than the originals to a dropped pattern leaves rank > r
    rng = SplitMix64(48)
    dropped = kept = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        ctx = rng.choice((F3, F5, F7))
        r, p, cells = rng.randint(0, 3), ctx.modulus, rows * cols
        zeros = rng.randint(0, 2)  # some matrices with many zero entries
        a = np.array(
            [[0 if rng.randint(0, 3) < zeros else rng.field_element(ctx) for _ in range(cols)]
             for _ in range(rows)], dtype=np.int64,
        )
        hit = rigidity._minor_incidence(a, ctx, r, 10**9)
        assert hit.shape[0] == cells and hit.shape[1] <= rigidity.CHUNK_CELLS // cells
        assert (hit.sum(axis=0) == (r + 1) ** 2).all()
        if not hit.shape[1]:
            continue
        flat = a.reshape(cells)
        for size in range(cells + 1):
            if comb(cells, size) * (p - 1) ** size > 20_000:
                break
            every = list(combinations(range(cells), size))
            meeting = list(rigidity._meeting(iter(every), size, hit))
            assert meeting == [
                x for x in every if all(hit[list(x), k].any() for k in range(hit.shape[1]))
            ]
            kept += len(meeting)
            for pattern in sorted(set(every) - set(meeting)):
                dropped += 1
                others = [[v for v in range(p) if v != flat[c]] for c in pattern]
                values = np.array(list(product(*others)), dtype=np.int64)
                cand = np.tile(flat, ((p - 1) ** size, 1))
                cand[:, list(pattern)] = values.reshape(len(cand), size)
                ranks = sparse._eliminate(cand.reshape(-1, rows, cols), ctx)
                assert (ranks > r).all()
    assert dropped > 1000 and kept > 100


def test_no_minor_is_listed_when_listing_them_costs_more_than_the_search():
    a = hadamard_matrix(2, F5).to_array()
    # 36 minors of 4 cells each, 24 nonsingular: listed at a work estimate
    # of 144, not 143
    assert rigidity._minor_incidence(a, F5, 1, 144).shape == (16, 24)
    assert rigidity._minor_incidence(a, F5, 1, 143).shape == (16, 0)


def test_brute_force_at_a_large_prime_builds_no_array_of_size_p():
    # the one nonsingular 1-minor is the cell holding 5, so the zero cell's
    # p - 1 one-change candidates are pruned, not tried; the other cell's
    # first value, 0, is a hit
    ctx = FieldCtx(1_000_003)
    m = SparseMatrix.from_dense([[0, 5]], ctx)
    tracemalloc.start()
    try:
        minimum, witness = rigidity.brute_force_rigidity(m, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert minimum == 1 and witness.verify()
    assert witness.low_rank.nnz == 0 and witness.S == m
    assert peak < ctx.modulus  # an int64 array of size p is 8p bytes


def test_normalize_outer1_h1():
    h1 = hadamard_matrix(1, F5)
    d, mp, dp = rigidity.normalize_outer1(h1)
    assert d == sparse.identity(2, F5)
    assert dp == sparse.identity(2, F5)
    assert mp == h1


def test_normalize_outer1_random():
    rng = SplitMix64(43)
    for _ in range(10):
        dense = [[rng.nonzero_field_element(F7) for _ in range(3)] for _ in range(3)]
        m = SparseMatrix.from_dense(dense, F7)
        d, mp, dp = rigidity.normalize_outer1(m)
        for i in range(3):
            assert mp.get(i, 0) == 1
            assert mp.get(0, i) == 1
        assert sparse.matmul(sparse.matmul(d, mp), dp) == m


def test_normalize_outer1_kron_compatible():
    # Kronecker of the D's conjugates the Kronecker of the M primes
    rng = SplitMix64(44)
    mats = []
    for _ in range(2):
        dense = [[rng.nonzero_field_element(F7) for _ in range(2)] for _ in range(2)]
        mats.append(SparseMatrix.from_dense(dense, F7))
    parts = [rigidity.normalize_outer1(m) for m in mats]
    dk = sparse.kron(parts[0][0], parts[1][0])
    mk = sparse.kron(parts[0][1], parts[1][1])
    dpk = sparse.kron(parts[0][2], parts[1][2])
    assert sparse.matmul(sparse.matmul(dk, mk), dpk) == sparse.kron(*mats)


def test_normalize_outer1_zero_entry():
    m = SparseMatrix.from_dense([[1, 0], [1, 1]], F5)
    with pytest.raises(OuterZero) as exc:
        rigidity.normalize_outer1(m)
    assert exc.value.position == (0, 1)


def test_compose_nonrigid_h2():
    da = rigidity.h2_rank1_decomposition(F5)
    db = rigidity.h2_rank1_decomposition(F5)
    comp = rigidity.compose_nonrigid(da, sparse.identity(4, F5), db)
    assert comp.rank_bound == 2
    assert comp.verify()
    assert comp.S.nnz_r <= da.S.nnz_r * db.S.nnz_r == 1
    assert comp.target == sparse.matmul(da.target, db.target)


def test_compose_nonrigid_zero_diagonal():
    da = rigidity.h2_rank1_decomposition(F5)
    zero_diag = SparseMatrix(4, 4, F5, [])
    comp = rigidity.compose_nonrigid(da, zero_diag, da)
    assert comp.S.nnz == 0
    assert comp.verify()


def test_shparlinski_values():
    from fractions import Fraction

    assert rigidity.shparlinski_bound(4, 1) == Fraction(9, 2)
    assert rigidity.shparlinski_bound(8, 7) == Fraction(1, 8)
    assert rigidity.shparlinski_bound(8, 2) == 12


def test_dft_matrix_f5():
    f4 = rigidity.dft_matrix(4, F5)
    assert f4.to_array().tolist() == [
        [1, 1, 1, 1],
        [1, 2, 4, 3],
        [1, 4, 1, 4],
        [1, 3, 4, 2],
    ]
    f1 = rigidity.dft_matrix(1, F5)
    assert f1.to_array().tolist() == [[1]]


def test_dft_consecutive_rows_full_rank():
    # any r consecutive rows against any r columns form a full-rank block
    ctx = FieldCtx(17)
    f8 = rigidity.dft_matrix(8, ctx)
    dense = f8.to_array().tolist()
    rng = SplitMix64(45)
    for r in (1, 2, 3):
        for _ in range(10):
            start = rng.randrange(8 - r + 1)
            cols = sorted(rng.randrange(8) for _ in range(8))
            cols = list(dict.fromkeys(cols))[:r]
            if len(cols) < r:
                continue
            block = SparseMatrix.from_dense(
                [[dense[start + i][c] for c in cols] for i in range(r)], ctx
            )
            assert sparse.rank(block) == r


def test_dft_rigidity_exceeds_rank1_bound():
    f4 = rigidity.dft_matrix(4, F5)
    with pytest.raises(ExceedsBound):
        rigidity.brute_force_rigidity(f4, 1, 4)


def test_witness_file_roundtrip(tmp_path):
    d = rigidity.h2_rank1_decomposition(F5)
    path = tmp_path / "w.rig"
    rigidity.save_witness(d, path)
    loaded = rigidity.load_witness(path)
    assert loaded.target == d.target
    assert loaded.changes == 4
    assert loaded.verify()
    head = path.read_text().splitlines()[0]
    assert head == "rigidity 4 1 4 5"


def test_every_witness_the_code_writes_reads_back():
    h2 = rigidity.h2_rank1_decomposition(F5)
    witnesses = [
        h2,
        rigidity.h4_rank1_decomposition(F5),
        rigidity.cube_rank1_decomposition(hadamard_matrix(1, F5)),
        rigidity.compose_nonrigid(h2, sparse.diagonal([1, 2, 3, 4], F5), h2),
        rigidity.brute_force_rigidity(hadamard_matrix(2, F3), 2, 4)[1],
        disjoint.rn_rigidity_decomposition(4, Fraction(1, 2), F5),
    ]
    for w in witnesses:
        assert rigidity.parse_witness(rigidity.dump_witness(w)) == w


@pytest.mark.parametrize("at,line,match", [
    (0, "rigidity 4 1 4 7", "field"),  # the blocks are over F_5
    (0, "rigidity 4 0 4 5", "shapes"),  # B_lr is 4 x 1, not q x r
    (7, "1 5 5", "shapes"),  # C_lr is not r x q
    (13, "4 5 5", "shapes"),  # S is not q x q
])
def test_witness_blocks_must_fit_the_header(at, line, match):
    lines = rigidity.dump_witness(rigidity.h2_rank1_decomposition(F5)).splitlines()
    assert [lines[k] for k in (0, 1, 7, 13)] == ["rigidity 4 1 4 5", "4 1 5", "1 4 5", "4 4 5"]
    lines[at] = line
    with pytest.raises(ValueError, match=match):
        rigidity.parse_witness("\n".join(lines) + "\n")


def test_witness_of_a_non_square_matrix_is_not_written(tmp_path):
    m = SparseMatrix.from_dense([[1, 2, 3], [2, 4, 1]], F5)
    _, w = rigidity.brute_force_rigidity(m, 1, 1)
    with pytest.raises(DimensionMismatch):
        rigidity.save_witness(w, tmp_path / "w.rig")
    assert not (tmp_path / "w.rig").exists()


def test_low_rank_factor_padding():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]], F5)  # rank 1
    b, c = rigidity.low_rank_factor(m, 2)
    assert b.cols == 2 and c.rows == 2
    assert sparse.matmul(b, c) == m
