"""Exact scalars: rationals and Gaussian rationals.

Rationals are stdlib ``fractions.Fraction`` (arbitrary precision, always
normalized, positive denominator).  ``GaussianRational`` is the field Q[i]
built on top of it; every linear-algebra routine in this package works over
that field so nothing ever rounds.

Text serialization (used in JSON reports and the Table-1 fixture):

* rational       ``"a/b"``            e.g. ``"-3/2"``, ``"0/1"``
* Gaussian       ``"a/b+c/d*i"``      e.g. ``"1/2+3/4*i"``, ``"0/1-1/2*i"``

A plain ``"a/b"`` parses as a Gaussian rational with zero imaginary part.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_GQ_RE = re.compile(rf"(?P<re>{_RAT})(?:(?P<im>[+-][0-9]+(?:/[0-9]+)?)\*i)?")


def rat_to_str(x: Fraction) -> str:
    """Serialize a rational as "a/b" (denominator always present)."""
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValueError("result has too many digits to print") from None


def rat_from_str(s: str) -> Fraction:
    """Parse "a/b" or "a" (ASCII digits, optional sign, surrounding blanks
    ignored); any other string, a zero denominator or an integer too long
    for int() raises ValueError."""
    if not re.fullmatch(_RAT, s.strip()):
        raise ValueError(f"not a rational: {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValueError(
            f"not a rational: too many digits in {s.strip()[:20]}...") from None


class GQ:
    """A Gaussian rational re + im*i with exact Fraction parts.

    Immutable and hashable.  Arithmetic never leaves Q[i]; division by zero
    raises ZeroDivisionError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *a):
        raise AttributeError("GQ is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "GQ":
        if isinstance(x, GQ):
            return x
        return GQ(x)

    # -- ring/field operations ----------------------------------------
    def __add__(self, other):
        other = GQ.of(other)
        return GQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GQ.of(other))

    def __rsub__(self, other):
        return GQ.of(other) + (-self)

    def __mul__(self, other):
        other = GQ.of(other)
        return GQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GQ":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q[i]")
        return GQ(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GQ.of(other).inverse()

    def __rtruediv__(self, other):
        return GQ.of(other) * self.inverse()

    def conj(self) -> "GQ":
        return GQ(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|x|^2 = re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / hashing ------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GQ(other)
        if not isinstance(other, GQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- text -----------------------------------------------------------
    def to_str(self) -> str:
        if self.im == 0:
            return rat_to_str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{rat_to_str(self.re)}{sign}{rat_to_str(abs(self.im))}*i"

    @staticmethod
    def from_str(s: str) -> "GQ":
        m = _GQ_RE.fullmatch(s.strip())
        if not m:
            raise ValueError(f"not a Gaussian rational: {s!r}")
        im = m.group("im")
        return GQ(rat_from_str(m.group("re")), rat_from_str(im) if im else 0)

    def __repr__(self):
        return f"GQ({self.to_str()})"


I = GQ(0, 1)
HALF = GQ(Fraction(1, 2))
HALF_I = GQ(0, Fraction(1, 2))
