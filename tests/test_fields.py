from fractions import Fraction

import pytest

from kronrigid.errors import (
    ContextMismatch,
    DivisionByZero,
    NoRootExists,
    RationalUnsupported,
)
from kronrigid.fields import (
    RATIONALS,
    FieldCtx,
    Scalar,
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


def test_scalar_examples():
    assert F5.scalar(2).inv().value == 3
    assert (F5.scalar(3) + F5.scalar(4)).value == 2
    r = RATIONALS.scalar(Fraction(2, 3)) * RATIONALS.scalar(Fraction(9, 4))
    assert r.value == Fraction(3, 2)


def test_context_mismatch_and_zero_inverse():
    with pytest.raises(ContextMismatch):
        F5.scalar(1) + F7.scalar(1)
    with pytest.raises(DivisionByZero):
        F5.zero().inv()
    with pytest.raises(DivisionByZero):
        RATIONALS.zero().inv()


def test_field_axioms_random():
    rng = SplitMix64(11)
    for ctx in (F5, F7, RATIONALS):
        for _ in range(1000):
            x = Scalar(ctx, ctx.coerce(rng.field_element(ctx)))
            y = Scalar(ctx, ctx.coerce(rng.field_element(ctx)))
            z = Scalar(ctx, ctx.coerce(rng.field_element(ctx)))
            assert ((x + y) + z).value == (x + (y + z)).value
            assert (x * (y + z)).value == (x * y + x * z).value
            if x:
                assert (x * x.inv()).value == ctx.one_raw()


def test_root_of_unity_examples():
    assert primitive_root_of_unity(F5, 4).value == 2
    assert primitive_root_of_unity(F5, 1).value == 1
    # both 2 and 4 have order 3 in F_7; the smallest candidate wins
    assert primitive_root_of_unity(F7, 3).value == 2


def test_root_of_unity_orders():
    ctx = FieldCtx(17)
    for n in (1, 2, 4, 8, 16):
        w = primitive_root_of_unity(ctx, n).value
        assert pow(w, n, 17) == 1
        for k in range(1, n):
            assert pow(w, k, 17) != 1


def test_root_of_unity_errors():
    with pytest.raises(NoRootExists):
        primitive_root_of_unity(F5, 3)
    with pytest.raises(RationalUnsupported):
        primitive_root_of_unity(RATIONALS, 2)


def test_multiplicative_order():
    assert multiplicative_order(F7, 3, 10) == 6
    assert multiplicative_order(F7, 2, 2) == 0  # order 3 exceeds the bound
