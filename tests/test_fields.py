from fractions import Fraction

import numpy as np
import pytest

from kronrigid.errors import DivisionByZero, KronRigidError, RationalUnsupported
from kronrigid.fields import (
    RATIONALS,
    FieldCtx,
    is_prime,
    multiplicative_order,
    primitive_root_of_unity,
)

from reference import SplitMix64

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)


def test_prime_check():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert is_prime(2147483647)
    assert not is_prime(1) and not is_prime(91) and not is_prime(2**31 - 2)


def test_ctx_rejects_bad_moduli():
    with pytest.raises(ValueError):
        FieldCtx(2)  # characteristic 2
    with pytest.raises(ValueError):
        FieldCtx(9)
    with pytest.raises(ValueError):
        FieldCtx(2**31 + 11)


def test_raw_arithmetic_examples():
    assert F5.inv_raw(2) == 3
    assert F5.add_raw(3, 4) == 2
    assert RATIONALS.mul_raw(Fraction(2, 3), Fraction(9, 4)) == Fraction(3, 2)


def test_zero_inverse():
    with pytest.raises(DivisionByZero):
        F5.inv_raw(F5.zero_raw())
    with pytest.raises(DivisionByZero):
        RATIONALS.inv_raw(RATIONALS.zero_raw())


def test_reduce_works_in_place_over_fp_only():
    a = np.array([-6, 0, 4, 5, 2**40], F5.dtype)
    assert F5.reduce(a) is a and a.tolist() == [4, 0, 4, 0, 2**40 % 5]
    view = a[1:3]  # a view is reduced through to its base
    view += 3
    F5.reduce(view)
    assert a.tolist() == [4, 3, 2, 0, 2**40 % 5]
    q = np.array([Fraction(-6), Fraction(7, 2)], RATIONALS.dtype)
    assert RATIONALS.reduce(q) is q and q.tolist() == [Fraction(-6), Fraction(7, 2)]
    assert np.dtype(F5.dtype) == np.int64 and RATIONALS.dtype is object


def test_field_axioms_random():
    rng = SplitMix64(11)
    for ctx in (F5, F7, RATIONALS):
        for _ in range(1000):
            x, y, z = (ctx.coerce(rng.field_element(ctx)) for _ in range(3))
            add, mul = ctx.add_raw, ctx.mul_raw
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            if x:
                assert mul(x, ctx.inv_raw(x)) == ctx.one_raw()


def test_root_of_unity_examples():
    assert primitive_root_of_unity(F5, 4) == 2
    assert primitive_root_of_unity(F5, 1) == 1
    # both 2 and 4 have order 3 in F_7; the smallest candidate wins
    assert primitive_root_of_unity(F7, 3) == 2
    assert all(type(primitive_root_of_unity(F5, n)) is int for n in (1, 2, 4))


def test_root_of_unity_orders():
    ctx = FieldCtx(17)
    for n in (1, 2, 4, 8, 16):
        w = primitive_root_of_unity(ctx, n)
        assert pow(w, n, 17) == 1
        for k in range(1, n):
            assert pow(w, k, 17) != 1


def test_root_of_unity_errors():
    with pytest.raises(KronRigidError, match="3 does not divide 4"):
        primitive_root_of_unity(F5, 3)
    with pytest.raises(RationalUnsupported):
        primitive_root_of_unity(RATIONALS, 2)


def test_multiplicative_order():
    assert multiplicative_order(F7, 3, 10) == 6
    assert multiplicative_order(F7, 2, 2) == 0  # order 3 exceeds the bound
