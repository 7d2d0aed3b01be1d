"""Exact scalars: rationals and Gaussian rationals.

Rationals are stdlib ``fractions.Fraction``.  A Gaussian rational, the field
Q[i], is a ``GQ``: three Python ints (a, b, d) standing for (a + b*i)/d, with
d > 0 and gcd(a, b, d) = 1, so every value has exactly one representation
and zero is (0, 0, 1).  Every linear-algebra routine in this package works
over that field, so nothing ever rounds, and floats are refused.

Text serialization (used in JSON reports and the Table-1 fixture):

* rational       ``"a/b"``            e.g. ``"-3/2"``, ``"0/1"``
* Gaussian       ``"a/b+c/d*i"``      e.g. ``"1/2+3/4*i"``, ``"0/1-1/2*i"``
* combination    ``"(c1)*name1 + (c2)*name2"`` (``combination_text``)

A plain ``"a/b"`` parses as a Gaussian rational with zero imaginary part.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

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


def _gq(a: int, b: int, d: int) -> "GQ":
    """The value (a + b*i)/d for ints with d > 0, reduced by one gcd unless
    d == 1; every arithmetic result is built here, without ``__init__``."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GQ)
    x._a = a
    x._b = b
    x._d = d
    return x


def over_common_denominator(xs):
    """(d, re, im) for GQ values xs: d the lcm of their denominators (1 when
    there are none), re and im lists of the ints with x = (re + im*i)/d."""
    d = lcm(*[x._d for x in xs])
    if d == 1:
        return 1, [x._a for x in xs], [x._b for x in xs]
    f = [d // x._d for x in xs]
    return (d, [x._a * g for x, g in zip(xs, f)],
            [x._b * g for x, g in zip(xs, f)])


def _rational(x):
    """(numerator, denominator > 0) of an int, a rational or a rational
    literal; floats, complex numbers and anything else raise TypeError."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, (str, Rational)):
        f = Fraction(x)
        return f.numerator, f.denominator
    raise TypeError(f"GQ takes ints and rationals, not {type(x).__name__}")


def _operand(x):
    """An int or Fraction operand as a GQ; NotImplemented for any other
    type, so that the other operand's reflected method decides."""
    if isinstance(x, int):
        return _gq(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _gq(x.numerator, 0, x.denominator)
    return NotImplemented


class GQ:
    """A Gaussian rational (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.

    Immutable and hashable, as ``Fraction`` is: the ints sit in private
    slots that nothing outside this module writes, and equal values have
    equal representations.  Arithmetic never leaves Q[i]; division by zero
    raises ZeroDivisionError.
    ``re`` and ``im`` are derived Fractions for readers.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            p, q = _rational(re)
            r, s = _rational(im)
            # reduced re and im over the lcm of their denominators already
            # have gcd(a, b, d) = 1
            d = lcm(q, s)
            a, b = p * (d // q), r * (d // s)
        self._a = a
        self._b = b
        self._d = d

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "GQ":
        if isinstance(x, GQ):
            return x
        return GQ(x)

    # -- readers ---------------------------------------------------------
    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring/field operations ----------------------------------------
    def __add__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _gq(self._a + other._a, self._b + other._b, d)
        return _gq(self._a * f + other._a * d, self._b * f + other._b * d,
                   d * f)

    __radd__ = __add__

    def __neg__(self):
        return _gq(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _gq(self._a - other._a, self._b - other._b, d)
        return _gq(self._a * f - other._a * d, self._b * f - other._b * d,
                   d * f)

    def __rsub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if b or e:
            return _gq(a * c - b * e, a * e + b * c, self._d * other._d)
        return _gq(a * c, 0, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GQ":
        """d(a - b*i)/(a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of 0 in Q[i]")
        return _gq(d * a, -d * b, n)

    def __truediv__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def conj(self) -> "GQ":
        return _gq(self._a, -self._b, self._d)

    # -- predicates / hashing ------------------------------------------
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is GQ:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    # -- text -----------------------------------------------------------
    def to_str(self) -> str:
        if not self._b:
            return rat_to_str(self.re)
        sign = "+" if self._b > 0 else "-"
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


def combination_text(terms) -> str:
    """The text "(c1)*name1 + (c2)*name2 + ..." of (GQ, name) pairs, or "0"
    when there are none: every linear combination in the reports and the
    Table-1 fixture is written this way."""
    return " + ".join(f"({c.to_str()})*{name}" for c, name in terms) or "0"


_new = object.__new__

ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)
HALF = GQ(Fraction(1, 2))
HALF_I = GQ(0, Fraction(1, 2))
