"""Exact field arithmetic: prime fields F_p and arbitrary-precision rationals.

A field is described by a single integer: ``p > 0`` selects F_p (p an odd
prime below 2**31, so products fit in 64-bit intermediates), and ``0``
selects the rationals.  Prime-field values are residues in ``[0, p)``;
rational values are ``fractions.Fraction`` (always reduced, positive
denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, KronRigidError, RationalUnsupported

MAX_PRIME_MODULUS = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**31 modulus cap."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Field descriptor: ``modulus`` is p for F_p, or 0 for the rationals."""

    modulus: int

    def __post_init__(self):
        if self.modulus == 0:
            return
        if self.modulus == 2 or self.modulus % 2 == 0:
            raise ValueError("characteristic 2 is not supported")
        if self.modulus >= MAX_PRIME_MODULUS:
            raise ValueError(f"modulus must be below 2**31, got {self.modulus}")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")

    @property
    def is_prime_field(self) -> bool:
        return self.modulus != 0

    @property
    def dtype(self):
        """numpy dtype of an array of raw values: int64 residues over F_p,
        objects (Fractions, or integer numerators) over Q."""
        return "int64" if self.is_prime_field else object

    def reduce(self, values):
        """values brought back into the field: an array of integers is
        reduced mod p in place over F_p; over Q it is returned as it is."""
        if self.is_prime_field:
            values %= self.modulus
        return values

    # Raw-value arithmetic.  These operate on the internal representation
    # (int residues or Fractions) and are the hot path for matrix code.

    def coerce(self, x):
        """Bring an int or Fraction into canonical internal form."""
        if self.is_prime_field:
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return x.numerator % self.modulus
                return (
                    x.numerator % self.modulus
                ) * self.inv_raw(x.denominator % self.modulus) % self.modulus
            return x % self.modulus
        return Fraction(x)

    def zero_raw(self):
        return 0 if self.is_prime_field else Fraction(0)

    def one_raw(self):
        return 1 if self.is_prime_field else Fraction(1)

    def add_raw(self, x, y):
        return (x + y) % self.modulus if self.is_prime_field else x + y

    def mul_raw(self, x, y):
        return (x * y) % self.modulus if self.is_prime_field else x * y

    def inv_raw(self, x):
        if not x:
            raise DivisionByZero("inverse of zero")
        if self.is_prime_field:
            return pow(x, -1, self.modulus)
        return 1 / x

    def __str__(self):
        return f"F_{self.modulus}" if self.is_prime_field else "Q"


RATIONALS = FieldCtx(0)


def multiplicative_order(ctx: FieldCtx, x: int, bound: int) -> int:
    """Order of x in F_p*, or 0 if it exceeds ``bound``."""
    acc = x
    for k in range(1, bound + 1):
        if acc == 1:
            return k
        acc = acc * x % ctx.modulus
    return 0


def primitive_root_of_unity(ctx: FieldCtx, n: int) -> int:
    """Smallest w in F_p with w**n = 1 and w**k != 1 for 0 < k < n.

    Requires n | (p - 1).  Candidates are scanned in increasing order so the
    result is deterministic.
    """
    if not ctx.is_prime_field:
        raise RationalUnsupported("roots of unity need a prime field")
    if n < 1:
        raise ValueError("n must be positive")
    p = ctx.modulus
    if (p - 1) % n != 0:
        raise KronRigidError(f"{n} does not divide {p - 1}")
    if n == 1:
        return 1
    for w in range(2, p):
        if pow(w, n, p) != 1:
            continue
        if multiplicative_order(ctx, w, n) == n:
            return w
    raise KronRigidError(f"no element of order {n} in F_{p}")  # pragma: no cover
