from fractions import Fraction

import numpy as np
import pytest

from kronrigid import sparse
from kronrigid.disjoint import disjointness_matrix
from kronrigid.errors import DimensionMismatch
from kronrigid.fields import RATIONALS, FieldCtx
from kronrigid.mmbridge import (
    NaiveBackend,
    StrassenBackend,
    butterflytomm_apply,
    kron_identity_apply,
    mm_cost_report,
)
from kronrigid.rigidity import hadamard_matrix
from kronrigid.sparse import SparseMatrix

from reference import SplitMix64, apply_reference

F7 = FieldCtx(7)
P31 = FieldCtx(2**31 - 1)


def obj(rows):
    return np.array(rows, dtype=object)


def test_kron_identity_single_copy():
    h1 = hadamard_matrix(1, F7)
    v = [F7.coerce(1), F7.coerce(2)]
    out = kron_identity_apply(h1, 1, v, NaiveBackend())
    assert out == apply_reference(h1, v)


def test_kron_identity_two_copies_rational():
    h1 = hadamard_matrix(1, RATIONALS)
    v = [RATIONALS.coerce(x) for x in (1, 2, 3, 4)]
    out = kron_identity_apply(h1, 2, v, NaiveBackend())
    assert out == [RATIONALS.coerce(x) for x in (4, 6, -2, -2)]
    big = sparse.kron(h1, sparse.identity(2, RATIONALS))
    assert out == apply_reference(big, v)


def test_kron_identity_random_vs_dense():
    rng = SplitMix64(71)
    m = SparseMatrix.from_dense(
        [[rng.randrange(7) for _ in range(3)] for _ in range(3)], F7
    )
    v = [F7.coerce(rng.randrange(7)) for _ in range(15)]
    backend = NaiveBackend()
    out = kron_identity_apply(m, 5, v, backend)
    big = sparse.kron(m, sparse.identity(5, F7))
    assert out == apply_reference(big, v)
    assert backend.mults == 3 * 3 * 5


def test_kron_identity_length_mismatch():
    h1 = hadamard_matrix(1, F7)
    with pytest.raises(DimensionMismatch):
        kron_identity_apply(h1, 2, [F7.coerce(1)] * 3, NaiveBackend())


def test_butterflytomm_h8_two_rounds():
    h1 = hadamard_matrix(1, F7)
    rng = SplitMix64(72)
    v = [F7.coerce(rng.randrange(7)) for _ in range(256)]
    expected = apply_reference(hadamard_matrix(8, F7), v)
    out, report = butterflytomm_apply([h1] * 8, 2, v, NaiveBackend())
    assert out == expected
    assert report["rounds"] == 2
    # each round is a 16x16 product against 16 columns
    assert report["per_round_mults"] == [4096, 4096]
    assert report["mults"] == 8192


def test_butterflytomm_k_equals_n():
    h1 = hadamard_matrix(1, F7)
    rng = SplitMix64(73)
    v = [F7.coerce(rng.randrange(7)) for _ in range(16)]
    out, report = butterflytomm_apply([h1] * 4, 4, v, NaiveBackend())
    assert out == apply_reference(hadamard_matrix(4, F7), v)
    assert report["rounds"] == 4
    # degenerate case: k = n is the plain butterfly, 2*N mults per round
    assert report["per_round_mults"] == [32, 32, 32, 32]


def test_butterflytomm_mixed_factors():
    h1 = hadamard_matrix(1, F7)
    r1 = disjointness_matrix(1, F7)
    m_list = [h1, r1, h1, r1]
    rng = SplitMix64(74)
    v = [F7.coerce(rng.randrange(7)) for _ in range(16)]
    out, _ = butterflytomm_apply(m_list, 2, v, NaiveBackend())
    assert out == apply_reference(sparse.kron_all(m_list), v)


def test_butterflytomm_bad_round_count():
    h1 = hadamard_matrix(1, F7)
    with pytest.raises(DimensionMismatch):
        butterflytomm_apply([h1] * 5, 2, [F7.coerce(0)] * 32, NaiveBackend())


def test_naive_counter_exact():
    rng = SplitMix64(75)
    backend = NaiveBackend()
    a = obj([[rng.randrange(7) for _ in range(4)] for _ in range(3)])
    b = obj([[rng.randrange(7) for _ in range(5)] for _ in range(4)])
    backend.multiply(a, b, F7)
    assert backend.mults == 3 * 4 * 5
    assert backend.adds == 3 * 3 * 5


def test_strassen_pure_counts():
    backend = StrassenBackend(threshold=1)
    for a in range(7):
        size = 2**a
        backend.reset()
        mat = obj([[1] * size for _ in range(size)])
        backend.multiply(mat, mat, F7)
        assert backend.mults == 7**a


def test_strassen_matches_naive():
    rng = SplitMix64(76)
    for size in (3, 8, 17):
        a = obj([[rng.randrange(7) for _ in range(size)] for _ in range(size)])
        b = obj([[rng.randrange(7) for _ in range(size)] for _ in range(size)])
        naive = NaiveBackend().multiply(a, b, F7)
        strassen = StrassenBackend(threshold=2).multiply(a, b, F7)
        assert naive.tolist() == strassen.tolist()


def test_strassen_beats_naive_on_64():
    mat = obj([[1] * 64 for _ in range(64)])
    s = StrassenBackend(threshold=8)
    s.multiply(mat, mat, F7)
    assert s.mults < 64**3


def test_strassen_in_butterflytomm():
    h1 = hadamard_matrix(1, F7)
    rng = SplitMix64(77)
    v = [F7.coerce(rng.randrange(7)) for _ in range(256)]
    expected = apply_reference(hadamard_matrix(8, F7), v)
    out, report = butterflytomm_apply([h1] * 8, 2, v, StrassenBackend(threshold=4))
    assert out == expected
    # round 0 is a single square 16x16 product and beats schoolbook there;
    # later rounds pad skinny slices up to squares and pay for it
    assert report["per_round_mults"][0] == 49 * 64 < 4096


def test_mm_cost_report():
    h1 = hadamard_matrix(1, F7)
    report = mm_cost_report([h1] * 6, 2, NaiveBackend())
    assert report["dense_mults"] == 64 * 64
    assert report["mults"] == sum(report["per_round_mults"])


BACKENDS = [
    pytest.param(NaiveBackend, 6, id="naive"),
    pytest.param(lambda: StrassenBackend(threshold=1), 4, id="strassen1"),
    pytest.param(lambda: StrassenBackend(threshold=32), 6, id="strassen32"),
]


@pytest.mark.parametrize("make,n", BACKENDS)
def test_butterflytomm_exact_at_the_largest_residue(make, n):
    # every entry p - 1: a product is near 2^62 and a sum of two overflows
    # int64, so only exact arithmetic gets these right
    top = P31.modulus - 1
    m = SparseMatrix.from_dense([[top, top], [top, top]], P31)
    v = [top] * 2**n
    expected = apply_reference(sparse.kron_all([m] * n), v)
    for k in (1, 2, n):
        out, report = butterflytomm_apply([m] * n, k, v, make())
        assert out == expected
        assert all(type(x) is int for x in out)
        assert report["mults"] == sum(report["per_round_mults"])


@pytest.mark.parametrize("make,n", BACKENDS)
def test_butterflytomm_exact_over_q(make, n):
    m = SparseMatrix.from_dense(
        [[Fraction(1, 3), Fraction(-5, 7)], [Fraction(-5, 7), Fraction(1, 3)]], RATIONALS
    )
    v = [Fraction(i + 1, 3) - Fraction(5, 7) for i in range(2**n)]
    expected = apply_reference(sparse.kron_all([m] * n), v)
    for k in (1, 2):
        out, _ = butterflytomm_apply([m] * n, k, v, make())
        assert out == expected
        assert all(type(x) is Fraction for x in out)
        assert any(x.denominator > 1 for x in out)
