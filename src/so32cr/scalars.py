"""Exact scalars: Gaussian rationals.

The one scalar is a ``GQ``, an element of the field Q[i]: three Python ints
(a, b, d) standing for (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1, so
every value has exactly one representation and zero is (0, 0, 1).  A
rational is a ``GQ`` with b = 0.  Every linear-algebra routine in this
package works over that field, so nothing ever rounds, and floats are
refused.

Text serialization (used in JSON reports and the Table-1 fixture):

* rational       ``"a/b"``            e.g. ``"-3/2"``, ``"0/1"``
* Gaussian       ``"a/b+c/d*i"``      e.g. ``"1/2+3/4*i"``, ``"0/1-1/2*i"``
* combination    ``"(c1)*name1 + (c2)*name2"`` (``combination_text``)

A plain ``"a/b"`` parses as a Gaussian rational with zero imaginary part.

Arithmetic takes GQs; ``==`` also takes ints; ints enter through ``GQ()``,
``GQ.of`` and ``vec``.  A vector is a tuple of GQ: ``vec`` makes one of
ints, rationals and GQs, and ``unit_vec`` and ``zero_vec`` build the unit
and zero vectors.
"""

from __future__ import annotations

import re
from math import gcd, lcm

_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_RAT_RE = re.compile(_RAT)
_GQ_RE = re.compile(rf"(?P<re>{_RAT})(?:(?P<im>[+-][0-9]+(?:/[0-9]+)?)\*i)?")


def _ratio_str(p: int, q: int) -> str:  # "p/q" in lowest terms, q > 0
    g = gcd(p, q)
    try:
        return f"{p // g}/{q // g}"
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValueError("result has too many digits to print") from None


def rat_from_str(s: str) -> "GQ":
    """The real GQ of "a/b" or "a" in ASCII digits, signed or not, blanks at
    the ends ignored; anything else, b = 0 or too many digits: ValueError."""
    t = s.strip()
    if not _RAT_RE.fullmatch(t):
        raise ValueError(f"not a rational: {s!r}")
    num, _, den = t.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValueError(f"not a rational: too many digits in {t[:20]}...") from None
    if not q:
        raise ValueError(f"zero denominator in {s!r}")
    return _gq(p, 0, q)


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
    re, im = [], []
    for x in xs:
        f = d // x._d
        re.append(x._a * f)
        im.append(x._b * f)
    return d, re, im


def _rational(x):
    """(numerator, denominator > 0) of a ``numbers.Rational``, such as an
    int; floats, complex numbers, strings and the rest raise TypeError."""
    from numbers import Rational  # loaded only where a non-int enters
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"GQ takes ints and rationals, not {type(x).__name__}")


class GQ:
    """A Gaussian rational (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.

    Immutable and hashable: the ints sit in private slots that nothing
    outside this module writes, and equal values have equal
    representations.  The constructor takes ``numbers.Rational`` values;
    text goes through ``from_str``.  Arithmetic takes GQs (any other
    operand gets NotImplemented); ``==`` also takes ints; ints enter
    through ``GQ()``, ``GQ.of`` and ``vec``.  Arithmetic never leaves Q[i];
    division by zero raises ZeroDivisionError.  ``re`` and ``im`` are real
    GQs.
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
        return x if isinstance(x, GQ) else GQ(x)

    # -- readers ---------------------------------------------------------
    @property
    def re(self) -> "GQ":
        return _gq(self._a, 0, self._d)

    @property
    def im(self) -> "GQ":
        return _gq(self._b, 0, self._d)

    def re_sign(self) -> int:  # -1, 0 or 1: an order test reads one int
        return (self._a > 0) - (self._a < 0)

    # -- ring/field operations ----------------------------------------
    def __add__(self, other):
        if type(other) is not GQ:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _gq(self._a + other._a, self._b + other._b, d)
        return _gq(self._a * f + other._a * d, self._b * f + other._b * d,
                   d * f)

    # a reflected call only defers, as a GQ on the left goes through
    # __add__; the alias stays because perfbench/tracing.py counts it
    __radd__ = __add__

    def __neg__(self):
        return _gq(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GQ:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _gq(self._a - other._a, self._b - other._b, d)
        return _gq(self._a * f - other._a * d, self._b * f - other._b * d,
                   d * f)

    def __mul__(self, other):
        if type(other) is not GQ:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if b or e:
            return _gq(a * c - b * e, a * e + b * c, self._d * other._d)
        return _gq(a * c, 0, self._d * other._d)

    __rmul__ = __mul__  # only defers; kept as __radd__ is

    def inverse(self) -> "GQ":
        """d(a - b*i)/(a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of 0 in Q[i]")
        return _gq(d * a, -d * b, n)

    def __truediv__(self, other):
        if type(other) is not GQ:
            return NotImplemented
        return self * other.inverse()

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
        return NotImplemented

    def __hash__(self):
        # an integral value hashes as its int, which it equals
        if self._d == 1 and not self._b:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    # -- text -----------------------------------------------------------
    def to_str(self) -> str:
        # each part reduced on its own: (2 + i)/2 has gcd 1, real part 2/2
        real = _ratio_str(self._a, self._d)
        if not self._b:
            return real
        sign = "+" if self._b > 0 else "-"
        return f"{real}{sign}{_ratio_str(abs(self._b), self._d)}*i"

    @staticmethod
    def from_str(s: str) -> "GQ":
        """The GQ of "a/b+c/d*i", "a/b" or "a", each part as for
        ``rat_from_str``; any other string raises ValueError."""
        m = _GQ_RE.fullmatch(s.strip())
        if not m:
            raise ValueError(f"not a Gaussian rational: {s!r}")
        return (rat_from_str(m.group("re"))
                + rat_from_str(m.group("im") or "0") * I)

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
HALF = _gq(1, 0, 2)
HALF_I = _gq(0, 1, 2)


def vec(entries) -> tuple:
    # most rows are already GQ (built by rref, @, apply): no call for those
    return tuple(x if type(x) is GQ else GQ.of(x) for x in entries)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))
