"""Rational interval arithmetic for certified sign determination.

Endpoints are exact :class:`fractions.Fraction` values, so ring operations
are exact set enclosures (no rounding is ever needed); only dependency
between repeated variables widens results.  Complex intervals are
rectangles (real interval, imaginary interval).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "QInterval":
        x = _frac(x)
        return cls(x, x)

    def sign(self) -> int:
        """+1 / -1 when the interval excludes zero, 0 when it straddles it."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    def __add__(self, other: "QInterval") -> "QInterval":
        return QInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "QInterval") -> "QInterval":
        return QInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "QInterval") -> "QInterval":
        a = self.lo * other.lo
        b = self.lo * other.hi
        c = self.hi * other.lo
        d = self.hi * other.hi
        return QInterval(min(a, b, c, d), max(a, b, c, d))

    def square(self) -> "QInterval":
        if self.lo >= 0:
            return QInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return QInterval(self.hi * self.hi, self.lo * self.lo)
        return QInterval(_ZERO, max(self.lo * self.lo, self.hi * self.hi))

    def scale(self, c) -> "QInterval":
        c = _frac(c)
        if c >= 0:
            return QInterval(self.lo * c, self.hi * c)
        return QInterval(self.hi * c, self.lo * c)


@dataclass(frozen=True)
class QComplexInterval:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    re: QInterval
    im: QInterval

    @classmethod
    def point(cls, re, im=0) -> "QComplexInterval":
        return cls(QInterval.point(re), QInterval.point(im))

    def __sub__(self, other: "QComplexInterval") -> "QComplexInterval":
        return QComplexInterval(self.re - other.re, self.im - other.im)

    def abs2(self) -> QInterval:
        return self.re.square() + self.im.square()

    def excludes_zero(self) -> bool:
        return self.abs2().sign() == 1

    def scale(self, c) -> "QComplexInterval":
        return QComplexInterval(self.re.scale(c), self.im.scale(c))
