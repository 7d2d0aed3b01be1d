import operator
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from so32cr.linalg import Matrix
from so32cr.scalars import GQ, ZERO, over_common_denominator, rat_from_str
from so32cr.tube import Poly


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class FractionPairGQ:
    """Reference Gaussian rational: a pair of Fractions re + im*i, the
    representation GQ had before it moved to three ints."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @staticmethod
    def of(x):
        return x if isinstance(x, FractionPairGQ) else FractionPairGQ(x)

    def __add__(self, other):
        other = FractionPairGQ.of(other)
        return FractionPairGQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairGQ(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FractionPairGQ.of(other))

    def __rsub__(self, other):
        return FractionPairGQ.of(other) + (-self)

    def __mul__(self, other):
        other = FractionPairGQ.of(other)
        return FractionPairGQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q[i]")
        return FractionPairGQ(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * FractionPairGQ.of(other).inverse()

    def __rtruediv__(self, other):
        return FractionPairGQ.of(other) * self.inverse()

    def conj(self):
        return FractionPairGQ(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPairGQ(other)
        if not isinstance(other, FractionPairGQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def to_str(self):
        if self.im == 0:
            return frac_str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{frac_str(self.re)}{sign}{frac_str(abs(self.im))}*i"


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
gaussians = st.builds(GQ, rationals, rationals)

# numerators and denominators of 20 to 30 digits, as in the normalize-stream
_tall = st.integers(10**19, 10**30 - 1)
tall_rationals = st.builds(
    lambda n, neg, d: Fraction(-n if neg else n, d), _tall, st.booleans(), _tall)
any_rationals = st.one_of(rationals, tall_rationals, st.just(Fraction(0)))
pairs = st.tuples(any_rationals, any_rationals)


def _matches(x: GQ, ref: FractionPairGQ):
    """x is canonical and agrees with the reference in value, parts, sign,
    hash and text."""
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    if not (a or b):
        assert (a, b, d) == (0, 0, 1)
    assert x.re == GQ(ref.re) and x.im == GQ(ref.im)
    assert x.re.is_real() and x.im.is_real()
    assert x.re_sign() == (ref.re > 0) - (ref.re < 0)
    assert hash(x) == hash(GQ(ref.re, ref.im))
    assert x.to_str() == ref.to_str()
    assert bool(x) == (not ref.is_zero())


@settings(max_examples=200)
@given(pairs, pairs, any_rationals, st.integers(-10**20, 10**20))
def test_matches_the_fraction_pair_reference(p, q, r, n):
    x, y, g, m = GQ(*p), GQ(*q), GQ(r), GQ(n)
    rx, ry = FractionPairGQ(*p), FractionPairGQ(*q)
    _matches(x, rx)
    for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                      (-x, -rx), (x.conj(), rx.conj()),
                      (x + g, rx + r), (g + x, r + rx), (x - g, rx - r),
                      (g - x, r - rx), (x * g, rx * r), (g * x, r * rx),
                      (x + m, rx + n), (m + x, n + rx), (x - m, rx - n),
                      (m - x, n - rx), (x * m, rx * n), (m * x, n * rx)):
        _matches(got, want)
    assert x * x.conj() == GQ(rx.abs2())
    assert (x == y) == (rx == ry)
    assert (x == g) == (rx == r) and (x == n) == (rx == n)
    assert m == n and hash(m) == hash(n)
    if not ry.is_zero():
        _matches(x / y, rx / ry)
        _matches(y.inverse(), ry.inverse())
        _matches(g / y, r / ry)
        _matches(m / y, n / ry)
    else:
        for op in (y.inverse, lambda: x / y, lambda: m / y):
            with pytest.raises(ZeroDivisionError, match=r"inverse of 0 in Q\[i\]"):
                op()
    if n:
        _matches(x / m, rx / n)


def test_a_fraction_enters_through_the_constructor_only():
    # arithmetic refuses a Fraction operand and == never holds, so a value
    # cannot silently come out as a Fraction
    half = Fraction(1, 2)
    for op in (lambda x: x + half, lambda x: half + x, lambda x: x - half,
               lambda x: half - x, lambda x: x * half, lambda x: half * x,
               lambda x: x / half, lambda x: half / x):
        with pytest.raises(TypeError):
            op(GQ(2))
    assert GQ(half) != half and GQ(1) != Fraction(1)


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j, float("nan")])
def test_floats_never_enter(bad):
    not_rational = "GQ takes ints and rationals, not "
    with pytest.raises(TypeError, match=not_rational):
        GQ(bad)
    with pytest.raises(TypeError, match=not_rational):
        GQ(1, bad)
    with pytest.raises(TypeError, match=not_rational):
        GQ.of(bad)
    for op in (lambda x: x + bad, lambda x: bad + x, lambda x: x - bad,
               lambda x: bad - x, lambda x: x * bad, lambda x: bad * x,
               lambda x: x / bad, lambda x: bad / x):
        with pytest.raises(TypeError):
            op(GQ(2))
    with pytest.raises(TypeError):
        Matrix([[bad, 1]])
    assert GQ(1) != bad


def test_arithmetic_takes_gq_operands_only():
    # ints enter through GQ(), GQ.of and vec: no other operand is converted
    # on either side of + - * /
    for other in (3, True, Fraction(1, 2), 0.5, "1/2"):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for a, b in ((GQ(2), other), (other, GQ(2))):
                with pytest.raises(TypeError):
                    op(a, b)
    # a type that knows GQ decides through its reflected operators
    z = Poly.var(0)
    assert GQ(2) * z == z * GQ(2) == Poly({(1, 0, 0, 0, 0, 0): 2})
    assert GQ(1) + z == z + GQ(1)
    assert GQ.__mul__(GQ(2), z) is NotImplemented
    # == and hash still take ints: an integral value equals its int
    assert GQ(Fraction(10, 2)) == 5 and hash(GQ(Fraction(10, 2))) == hash(5)
    # a sum starts from ZERO, not from the int 0
    xs = [GQ(1), GQ(Fraction(1, 2)), GQ(0, 1)]
    assert sum(xs, ZERO) == GQ(Fraction(3, 2), 1)
    with pytest.raises(TypeError):
        sum(xs)
    # text enters through from_str only
    with pytest.raises(TypeError, match="GQ takes ints and rationals, not str"):
        GQ("1/2")


@settings(max_examples=200)
@example([])
@example([(Fraction(3), Fraction(-2)), (Fraction(0), Fraction(5))])
@example([(Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 7), Fraction(0))])
@example([(Fraction(10**29 + 7, 3 * 10**29 + 1), Fraction(-1, 10**29 + 9)),
          (Fraction(0), Fraction(2 * 10**29 + 3, 10**29))])
@given(st.lists(pairs, max_size=6))
def test_over_common_denominator_matches_fractions(parts):
    d, re, im = over_common_denominator([GQ(*p) for p in parts])
    assert d == lcm(1, *[x.denominator for p in parts for x in p])
    assert all(type(n) is int for n in re + im)
    assert [Fraction(a, d) for a in re] == [p[0] for p in parts]
    assert [Fraction(b, d) for b in im] == [p[1] for p in parts]


def test_constructor_normalizes():
    x = GQ(Fraction(2, 4), -2)
    assert x.re == GQ(Fraction(1, 2)) and x.im == -2
    assert (x._a, x._b, x._d) == (1, -4, 2)
    assert (GQ(Fraction(2, 3), Fraction(5, 6))._d) == 6
    # an integral value equals and hashes as its int, and nothing else does
    assert GQ(Fraction(10, 2)) == 5 and hash(GQ(Fraction(-2, 2))) == hash(-1)
    assert GQ(Fraction(5, 2)) != 2 and GQ(5, 1) != 5


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + GQ(0) == a
    assert a * GQ(1) == a


@given(gaussians)
def test_inverse_and_conjugation(a):
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.is_real() and norm.re_sign() >= 0
    if not a.is_zero():
        assert a * a.inverse() == GQ(1)


def test_division_by_zero():
    for op in (GQ(0).inverse, lambda: GQ(1) / GQ(0)):
        with pytest.raises(ZeroDivisionError, match=r"inverse of 0 in Q\[i\]"):
            op()


@given(gaussians)
def test_str_round_trip(a):
    assert GQ.from_str(a.to_str()) == a


def test_serialization_format():
    assert GQ(Fraction(1, 2), Fraction(3, 4)).to_str() == "1/2+3/4*i"
    assert GQ(0, Fraction(-1, 2)).to_str() == "0/1-1/2*i"
    assert GQ(Fraction(-3, 2)).to_str() == "-3/2"
    assert GQ.from_str("1/2+3/4*i") == GQ(Fraction(1, 2), Fraction(3, 4))
    assert GQ.from_str("-5") == GQ(-5)
    assert GQ(0).to_str() == "0/1"
    assert rat_from_str("-3/6") == GQ(Fraction(-1, 2))
    # (2 + i)/2 is stored with gcd(2, 1, 2) = 1, yet its real part is 1/1
    assert GQ(1, Fraction(1, 2)).to_str() == "1/1+1/2*i"
    assert GQ(Fraction(-3, 4), 5).re == GQ(Fraction(-3, 4))
    assert GQ(Fraction(-3, 4), 5).im == 5
    assert [GQ(c, 7).re_sign() for c in (-2, 0, 3)] == [-1, 0, 1]


def test_from_str_rejects_inner_blanks():
    # blanks are stripped at the ends only, as rat_from_str does: "1 2" is
    # not read as 12
    assert GQ.from_str(" 1/2+3/4*i ") == GQ(Fraction(1, 2), Fraction(3, 4))
    for s in ("1 2", "1/2 +3/4*i"):
        with pytest.raises(ValueError, match="not a Gaussian rational: "):
            GQ.from_str(s)


# the parser against Fraction: signed "a" and "a/b" (b may be 0) with blanks
# at the ends, and the same literals with one edit that must be refused,
# whether or not Fraction accepts it
_EDITS = (".", ".5", "e3", "E-2", "_0", "1 1", "/-2", "\u0661", "\uff11")
_DIGITS = st.text("0123456789", min_size=1, max_size=30)


@st.composite
def _literals(draw):
    body = draw(st.sampled_from(["", "+", "-"])) + draw(_DIGITS)
    if draw(st.booleans()):
        body += "/" + draw(_DIGITS)
    refused = draw(st.booleans())
    if refused:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from(_EDITS)) + body[at:]
    blanks = st.text(" \t\n\r\u00a0\u2003", max_size=3)
    return draw(blanks) + body + draw(blanks), refused


@settings(max_examples=300)
@example((" 1/0\t", False))
@example(("1/-2", True))
@given(_literals())
def test_parser_and_printer_agree_with_fraction(case):
    s, refused = case
    if refused:
        with pytest.raises(ValueError, match="^not a rational: "):
            rat_from_str(s)
        with pytest.raises(ValueError, match="^not a Gaussian rational: "):
            GQ.from_str(s)
        return
    try:
        want = Fraction(s)
    except ZeroDivisionError:
        for parse in (rat_from_str, GQ.from_str):
            with pytest.raises(ValueError, match="^zero denominator in "):
                parse(s)
        return
    x = rat_from_str(s)
    assert x == GQ(want) and GQ.from_str(s) == x
    assert x.to_str() == frac_str(want)


@example(2, 1, 2)  # (2 + i)/2: gcd(2, 1, 2) = 1, the real part is 1/1
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(1, 10**6))
def test_to_str_reduces_each_part_on_its_own(a, b, d):
    x = GQ(Fraction(a, d), Fraction(b, d))
    assert x.to_str() == FractionPairGQ(Fraction(a, d), Fraction(b, d)).to_str()


def test_digits_past_the_interpreter_limit_are_named():
    limit = sys.get_int_max_str_digits()
    for parse in (rat_from_str, GQ.from_str):
        with pytest.raises(ValueError,
                           match="^not a rational: too many digits in 7777"):
            parse("7" * (limit + 1))
    for x in (GQ(10 ** limit), GQ(1, 10 ** limit)):
        with pytest.raises(ValueError,
                           match="^result has too many digits to print$"):
            x.to_str()


def test_i_squares_to_minus_one():
    i = GQ(0, 1)
    assert i * i == GQ(-1)
    assert (GQ(1) / i) == -i
