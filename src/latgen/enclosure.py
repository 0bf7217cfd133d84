"""Certified interval arithmetic over exact nonnegative rationals.

An :class:`Enclosure` is a closed interval [lo, hi] with ``Fraction``
endpoints that is guaranteed to contain the mathematical value it stands
for.  Every operation rounds outward, so containment is never lost; there
is no floating point anywhere in this module.

Every constant latgen certifies is built from nonnegative quantities
(zeta(s), 1/zeta(s), the hyperplane-hit bounds and their complements,
square roots and half powers), so an enclosure is always a subset of
[0, inf).  Each operation then takes its bounds from the matching ends
of its operands, with no sign cases: a difference that could be
negative is refused by the constructor rather than carried along.

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
    """Closed interval [lo, hi] with exact rational endpoints,
    0 <= lo <= hi; the constructor raises ValueError otherwise."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rational, hi: Rational):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if not 0 <= lo <= hi:
            raise ValueError(f"enclosure needs 0 <= lo <= hi: lo={lo}, hi={hi}")
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

    # -- arithmetic: each bound comes from one end of each operand ---------

    @staticmethod
    def _coerce(value) -> "Enclosure":
        if isinstance(value, Enclosure):
            return value
        return Enclosure.exact(value)

    def __add__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "Enclosure":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo * o.lo, self.hi * o.hi)

    __rmul__ = __mul__

    def reciprocal(self) -> "Enclosure":
        if self.lo == 0:
            raise ZeroDivisionError(f"enclosure contains zero: {self!r}")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Enclosure":
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "Enclosure":
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent: int) -> "Enclosure":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        return Enclosure(self.lo**exponent, self.hi**exponent)

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
