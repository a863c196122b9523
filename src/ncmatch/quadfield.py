"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A :class:`QuadNumber` stores a value (a + b*sqrt(d)) / c with integer a, b, c
and a nonnegative integer radicand d.  The stored form is reduced: c > 0,
gcd(a, b, c) = 1, and purely rational values are stored with b = 0, d = 1.

Radicands are split once, where they enter from outside: the public
constructor ``QuadNumber(a, b, c, d)`` and ``sqrt_of`` pull square factors
out of d (``_squarefree_split``).  Arithmetic results are members of the
operands' field and reuse their already-split radicand through the private
constructor ``_make``, which only fixes the sign of c and divides out
gcd(a, b, c).  Two numbers of one field whose radicands were split to
different values (a square factor above the small-prime limit) are put
over a common radicand by ``_common_d``; ``==`` and ``hash`` depend only on
the value.  Mixing two different fields in one operation is an error;
rationals combine with any radicand.

Every decision is exact integer arithmetic: comparisons decide the sign by
at most one square comparison, and ``floor`` uses an integer square root.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import exp, gcd, isqrt, lcm, log, prod
from typing import Sequence, Union

_Rational = Union[int, Fraction]

_SMALL_PRIMES_LIMIT = 20_000


def _prime_blocks(n: int) -> tuple[int, ...]:
    """Products of the primes up to n, 256 consecutive primes each."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    primes = list(compress(range(n + 1), sieve))
    return tuple(prod(primes[i : i + 256]) for i in range(0, len(primes), 256))


_SMALL_PRIME_BLOCKS = _prime_blocks(_SMALL_PRIMES_LIMIT)


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (f, d0) with d = f*f*d0 and d0 free of small square factors.

    Per block of small primes (up to _SMALL_PRIMES_LIMIT), gcds find the
    product s of the block's primes that divide d at least twice, and s*s
    is taken out until no square is left.  Square factors with prime part
    above the limit are only detected when the remainder is a perfect
    square, which keeps the split cheap.  So one field can be reached
    through two radicands, e.g. 3 * 20011**2 and 3; values stay exact
    regardless, because ``_common_d`` reconciles such radicands and
    ``QuadNumber.__hash__`` does not depend on which one a value carries.
    """
    if d in (0, 1):
        return 1, d
    f = 1
    for block in _SMALL_PRIME_BLOCKS:
        g = gcd(d, block)  # the block's primes dividing d
        while g != 1:
            s = gcd(d // g, g)  # ... at least twice
            if s == 1:
                break
            d //= s * s
            f *= s
            g = gcd(d, g)
    root = isqrt(d)
    if root * root == d:
        return f * root, 1
    return f, d


class QuadNumber:
    """An exact element (a + b*sqrt(d)) / c of a real quadratic field."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int = 0, c: int = 1, d: int = 1):
        if c == 0:
            raise ZeroDivisionError("denominator is zero")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        f, d0 = _squarefree_split(d)
        if f != 1:
            b *= f
        if d0 <= 1:
            a += b * d0  # d0 == 1 folds the root into the rational part
            b = 0
        _fill(self, a, b, c, d0)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QuadNumber is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rational(q: _Rational) -> "QuadNumber":
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"from_rational takes an int or a Fraction, not {type(q).__name__}")
        return _rational(q)

    @staticmethod
    def sqrt_of(d: int) -> "QuadNumber":
        return QuadNumber(0, 1, 1, d)  # refuses a negative radicand

    # -- predicates ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    # -- coercion ----------------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "QuadNumber":
        if isinstance(value, QuadNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return _rational(value)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        if type(other) is not QuadNumber:
            other = QuadNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        sb, ob, d = self.b, other.b, self.d
        if other.d != d:
            sb, ob, d = _common_d(self, other)
        sc, oc = self.c, other.c
        return _make(self.a * oc + other.a * sc, sb * oc + ob * sc, sc * oc, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        if type(other) is not QuadNumber:
            other = QuadNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        sb, ob, d = self.b, other.b, self.d
        if other.d != d:
            sb, ob, d = _common_d(self, other)
        sc, oc = self.c, other.c
        return _make(self.a * oc - other.a * sc, sb * oc - ob * sc, sc * oc, d)

    def __rsub__(self, other):
        other = QuadNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not QuadNumber:
            other = QuadNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        sb, ob, d = self.b, other.b, self.d
        if other.d != d:
            sb, ob, d = _common_d(self, other)
        sa, oa = self.a, other.a
        return _make(sa * oa + sb * ob * d, sa * ob + sb * oa, self.c * other.c, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        a, b, d = self.a, self.b, self.d
        norm = a * a - b * b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _make(self.c * a, -self.c * b, norm, d)

    def __truediv__(self, other):
        other = QuadNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = QuadNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _make(1, 0, 1, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        return _sign(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        """Sign of self - other, read off the unreduced numerators:
        self - other = (a + b*sqrt(d)) / (sc*oc) with sc*oc > 0."""
        if type(other) is not QuadNumber:
            other = QuadNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        sb, ob, d = self.b, other.b, self.d
        if other.d != d:
            sb, ob, d = _common_d(self, other)
        sc, oc = self.c, other.c
        return _sign(self.a * oc - other.a * sc, sb * oc - ob * sc, d)

    def __eq__(self, other):
        c = self._cmp(other)
        return c == 0 if c is not NotImplemented else NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return c < 0 if c is not NotImplemented else NotImplemented

    def __le__(self, other):
        c = self._cmp(other)
        return c <= 0 if c is not NotImplemented else NotImplemented

    def __gt__(self, other):
        c = self._cmp(other)
        return c > 0 if c is not NotImplemented else NotImplemented

    def __ge__(self, other):
        c = self._cmp(other)
        return c >= 0 if c is not NotImplemented else NotImplemented

    def __hash__(self):
        a, b, c = self.a, self.b, self.c
        if b == 0:
            return hash(Fraction(a, c))
        # a/c, b*b*d/(c*c) and the sign of b do not change when b*f and
        # d/f**2 stand in for b and d; fixed-point floors of the two
        # quotients hash them without reducing fractions
        return hash(((a << 32) // c, (b * b * self.d << 64) // (c * c), b > 0))

    def __bool__(self):
        return self.sign() != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rounding / approximation ----------------------------------------------

    def floor(self) -> int:
        """Exact floor from an integer square root."""
        a, b, c = self.a, self.b, self.c
        if b == 0:
            return a // c
        # b*sqrt(d) is irrational, so it lies strictly between k and k + 1
        # (b > 0) or -k - 1 and -k (b < 0), with k = isqrt(b*b*d)
        k = isqrt(b * b * self.d)
        return (a + k) // c if b > 0 else (a - k - 1) // c

    def ceil(self) -> int:
        return -((-self).floor())

    def approx(self, bits: int = 96) -> Fraction:
        """Rational approximation with absolute error below |b|/c * 2**-bits."""
        if self.b == 0:
            return Fraction(self.a, self.c)
        # (a + b * isqrt(d * 4**bits) / 2**bits) / c as one fraction
        return Fraction((self.a << bits) + self.b * isqrt(self.d << (2 * bits)), self.c << bits)

    def to_float(self) -> float:
        return float(self.approx())

    def root_float(self, n: int) -> float:
        """Float n-th root of a nonnegative value (diagnostic precision).

        A value past the float range is rooted through the logarithms of the
        exact numerator and denominator of its rational approximation.
        """
        if self.sign() < 0:
            raise ValueError("negative value has no real even root here")
        x = self.approx()
        try:
            return float(x) ** (1.0 / n)
        except OverflowError:
            return exp((log(x.numerator) - log(x.denominator)) / n)

    def __float__(self):
        return self.to_float()

    def __repr__(self):
        if self.is_rational:
            return f"QuadNumber({self.a}/{self.c})" if self.c != 1 else f"QuadNumber({self.a})"
        return f"QuadNumber(({self.a} + {self.b}*sqrt({self.d}))/{self.c})"


_new = object.__new__
_set_a = QuadNumber.a.__set__
_set_b = QuadNumber.b.__set__
_set_c = QuadNumber.c.__set__
_set_d = QuadNumber.d.__set__


def _fill(x: QuadNumber, a: int, b: int, c: int, d: int) -> None:
    """Store (a + b*sqrt(d))/c in reduced form; c != 0, d already split."""
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    if g != 1:
        a //= g
        b //= g
        c //= g
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    _set_d(x, d if b else 1)


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d >= 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 d
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if rhs > lhs else (-1 if rhs < lhs else 0)


def _make(a: int, b: int, c: int, d: int) -> QuadNumber:
    """Private constructor for arithmetic results: the radicand d is one the
    operands already carry, so it is not split again and nothing is checked."""
    x = _new(QuadNumber)
    _fill(x, a, b, c, d)
    return x


def _rational(q: _Rational) -> QuadNumber:
    if isinstance(q, int):
        return _make(int(q), 0, 1, 1)  # int() turns a bool into 0 or 1
    return _make(q.numerator, 0, q.denominator, 1)


def _common_d(x: QuadNumber, y: QuadNumber) -> tuple[int, int, int]:
    """(x's b, y's b, d): both irrational parts over one radicand d.

    Reached only when the radicands differ.  Two irrational radicands d1, d2
    lie in one field exactly when d1*d2 is a perfect square; then
    g = gcd(d1, d2) divides both with square quotients, and sqrt(di) equals
    isqrt(di // g) * sqrt(g).
    """
    if x.b == 0:
        return 0, y.b, y.d
    if y.b == 0:
        return x.b, 0, x.d
    d1, d2 = x.d, y.d
    both = d1 * d2
    if isqrt(both) ** 2 != both:
        raise ValueError(f"incompatible radicands {d1} and {d2}")
    g = gcd(d1, d2)
    return x.b * isqrt(d1 // g), y.b * isqrt(d2 // g), g


def _cleared(values: Sequence[QuadNumber]) -> tuple[int, int, list[tuple[int, int]]]:
    """(d, den, [(a, b), ...]): each value as (a + b*sqrt(d)) / den, integer
    numerators over one radicand d and one positive denominator den.

    d is the common radicand of the irrational values (1 if there is none),
    reached through ``_common_d`` as two operands would reach it.
    """
    d = 1
    for x in values:
        if x.b and x.d != d:
            d = x.d if d == 1 else _common_d(x, _make(0, 1, 1, d))[2]
    den = lcm(*(x.c for x in values))
    unit = _make(0, 1, 1, d)
    nums = []
    for x in values:
        k = den // x.c
        b = x.b if x.d == d else _common_d(x, unit)[0]
        nums.append((x.a * k, b * k))
    return d, den, nums

