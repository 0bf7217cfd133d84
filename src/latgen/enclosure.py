"""Certified interval arithmetic over exact rationals.

An :class:`Enclosure` is a closed interval [lo, hi] with ``Fraction``
endpoints that is guaranteed to contain the mathematical value it stands
for.  Every operation rounds outward, so containment is never lost; there
is no floating point anywhere in this module.

Endpoints are kept small by ``round_outward``, which pads an interval to
a decimal grid.  Grids are powers of ten, so rounding the same value on a
finer grid always yields a sub-interval of the coarser rounding; derived
quantities computed at a higher precision therefore nest inside their
lower-precision counterparts.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt
from typing import Union

Rational = Union[int, Fraction]


class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rational, hi: Rational):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty enclosure: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def exact(cls, value: Rational) -> "Enclosure":
        v = Fraction(value)
        return cls(v, v)

    # -- basic queries ----------------------------------------------------

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Rational) -> bool:
        v = Fraction(value)
        return self.lo <= v <= self.hi

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self) -> str:
        return f"Enclosure({float(self.lo)!r}, {float(self.hi)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Enclosure)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Enclosure":
        if isinstance(value, Enclosure):
            return value
        return Enclosure.exact(value)

    def __add__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other) -> "Enclosure":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Enclosure":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Enclosure":
        o = self._coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"enclosure straddles zero: {self!r}")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Enclosure":
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "Enclosure":
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent: int) -> "Enclosure":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        if exponent == 0:
            return Enclosure.exact(1)
        lo_p, hi_p = self.lo**exponent, self.hi**exponent
        if self.lo >= 0:
            return Enclosure(lo_p, hi_p)
        if self.hi <= 0:
            return Enclosure(min(lo_p, hi_p), max(lo_p, hi_p))
        # interval straddles zero
        if exponent % 2 == 0:
            return Enclosure(0, max(lo_p, hi_p))
        return Enclosure(lo_p, hi_p)

    # -- set operations and rounding ----------------------------------------

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError(f"disjoint enclosures: {self!r}, {other!r}")
        return Enclosure(lo, hi)

    def round_outward(self, digits: int) -> "Enclosure":
        """Pad outward to the decimal grid of spacing 10**-digits."""
        scale = 10**digits
        lo = Fraction(floor(self.lo * scale), scale)
        hi = Fraction(ceil(self.hi * scale), scale)
        return Enclosure(lo, hi)


def sqrt_enclosure(x: Rational, digits: int) -> Enclosure:
    """Enclosure of sqrt(x) for rational x >= 0, width <= 10**-digits.

    Brackets sqrt(x) between consecutive points of the 10**-digits grid
    using integer square roots, so finer grids give nested intervals.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative value")
    if x == 0:
        return Enclosure.exact(0)
    scale = 10**digits
    scaled = x * scale * scale
    r = isqrt(floor(scaled))
    lo = Fraction(r, scale)
    # (r+1)^2 > floor(scaled) implies r+1 > sqrt(scaled) unless scaled was
    # a perfect square hiding in the fractional part; +1 is always safe.
    hi = Fraction(r + 1, scale)
    if lo * lo == x:
        return Enclosure.exact(lo)
    return Enclosure(lo, hi)


def half_power(x: Rational, k: int, digits: int) -> Enclosure:
    """Enclosure of x^(k/2) for rational x >= 0 and integer k >= 0:
    x^(k//2) exactly, times ``sqrt_enclosure(x, digits)`` for odd k."""
    whole = Enclosure.exact(Fraction(x) ** (k // 2))
    return whole * sqrt_enclosure(x, digits) if k % 2 else whole
