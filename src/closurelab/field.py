"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values (Fraction for the rationals,
ints in [0, p) for GF(p)); the field object supplies the arithmetic.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rational numbers, backed by Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    char = 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, num: int, den: int = 1):
        return Fraction(num, den)

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p), elements stored as ints in [0, p)."""

    char: int

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, num: int, den: int = 1):
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def rationals() -> Rationals:
    return QQ


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)
