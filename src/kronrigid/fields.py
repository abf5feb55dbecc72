"""Exact field arithmetic: prime fields F_p and arbitrary-precision rationals.

A field is described by a single integer: ``p > 0`` selects F_p (p an odd
prime below 2**31, so products fit in 64-bit intermediates), and ``0``
selects the rationals.  Prime-field values are residues in ``[0, p)``.
A rational value is an ``int`` when it is integral, a ``Fraction``
otherwise, and never a float.  ``coerce``, ``inv_raw`` and the readers keep
this rule; arithmetic on Fractions may leave an integral Fraction, which
equals its int.  Zero and one are 0 and 1 in every field.
"""

from __future__ import annotations

import math
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
        objects (ints and Fractions) over Q."""
        return "int64" if self.is_prime_field else object

    def reduce(self, values):
        """values brought back into the field: an array of integers is
        reduced mod p in place over F_p; over Q it is returned as it is."""
        if self.is_prime_field:
            values %= self.modulus
        return values

    # Raw-value arithmetic.  These operate on the internal representation
    # (int residues, or ints and Fractions) and are the hot path for matrix code.

    def coerce(self, x):
        """Bring an int or Fraction into canonical internal form."""
        if self.is_prime_field:
            if isinstance(x, Fraction):
                return x.numerator * self.inv_raw(x.denominator % self.modulus) % self.modulus
            return x % self.modulus
        x = Fraction(x)
        return int(x.numerator) if x.denominator == 1 else x

    def add_raw(self, x, y):
        return (x + y) % self.modulus if self.is_prime_field else x + y

    def mul_raw(self, x, y):
        return (x * y) % self.modulus if self.is_prime_field else x * y

    def inv_raw(self, x):
        if not x:
            raise DivisionByZero("inverse of zero")
        if self.is_prime_field:
            return pow(x, -1, self.modulus)
        return self.coerce(Fraction(1, x))

    def __str__(self):
        return f"F_{self.modulus}" if self.is_prime_field else "Q"


RATIONALS = FieldCtx(0)


def primitive_root_of_unity(ctx: FieldCtx, n: int) -> int:
    """Smallest w in F_p with w**n = 1 and w**k != 1 for 0 < k < n.

    Requires n | (p - 1).  w has order n when w**n = 1 and w**(n/r) != 1
    for every prime r | n.  When n * n > p there are phi(n) > sqrt(p)
    elements of order n, so a scan upward from 1 meets one early.
    Otherwise they are the h**j with gcd(j, n) = 1 for any h of order n,
    at most sqrt(p) of them; h is c**((p-1)/n) for the first c that gives
    one of that order.
    """
    if not ctx.is_prime_field:
        raise RationalUnsupported("roots of unity need a prime field")
    if n < 1:
        raise ValueError("n must be positive")
    p = ctx.modulus
    if (p - 1) % n != 0:
        raise KronRigidError(f"{n} does not divide {p - 1}")
    # the primes among n's divisors, found by trial division up to sqrt(n)
    primes = [r for k in range(1, math.isqrt(n) + 1) if n % k == 0 for r in {k, n // k} if is_prime(r)]

    def of_order_n(w):
        return pow(w, n, p) == 1 and all(pow(w, n // r, p) != 1 for r in primes)

    if n * n > p:
        return next(w for w in range(1, p) if of_order_n(w))
    h = next(h for h in (pow(c, (p - 1) // n, p) for c in range(1, p)) if of_order_n(h))
    return min(pow(h, j, p) for j in range(1, n + 1) if math.gcd(j, n) == 1)
