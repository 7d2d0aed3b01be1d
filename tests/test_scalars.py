from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from so32cr.linalg import Matrix
from so32cr.scalars import GQ, rat_from_str, rat_to_str
from so32cr.tube import Poly


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

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_str(self):
        if self.im == 0:
            return rat_to_str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{rat_to_str(self.re)}{sign}{rat_to_str(abs(self.im))}*i"


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
    """x is canonical and agrees with the reference in value, hash and text."""
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    if not (a or b):
        assert (a, b, d) == (0, 0, 1)
    assert x.re == ref.re and x.im == ref.im
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert hash(x) == hash(ref)
    assert x.to_str() == ref.to_str()
    assert bool(x) == (not ref.is_zero())


@settings(max_examples=200)
@given(pairs, pairs, any_rationals)
def test_matches_the_fraction_pair_reference(p, q, r):
    x, y = GQ(*p), GQ(*q)
    rx, ry = FractionPairGQ(*p), FractionPairGQ(*q)
    _matches(x, rx)
    for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                      (-x, -rx), (x.conj(), rx.conj()),
                      (x + r, rx + r), (r + x, r + rx), (x - r, rx - r),
                      (r - x, r - rx), (x * r, rx * r), (r * x, r * rx),
                      (x + 3, rx + 3), (2 - x, 2 - rx), (x * -5, rx * -5)):
        _matches(got, want)
    assert x.abs2() == rx.abs2() and type(x.abs2()) is Fraction
    assert (x == y) == (rx == ry)
    assert (x == r) == (rx == r) and (x == 7) == (rx == 7)
    assert (x == p[0]) == (rx == p[0])
    assert (GQ(p[0]) == p[0]) and hash(GQ(p[0])) == hash(p[0])
    if not ry.is_zero():
        _matches(x / y, rx / ry)
        _matches(y.inverse(), ry.inverse())
        _matches(r / y, r / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    if r:
        _matches(x / r, rx / r)


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j, float("nan")])
def test_floats_never_enter(bad):
    with pytest.raises(TypeError):
        GQ(bad)
    with pytest.raises(TypeError):
        GQ(1, bad)
    with pytest.raises(TypeError):
        GQ.of(bad)
    for op in (lambda x: x + bad, lambda x: bad + x, lambda x: x - bad,
               lambda x: bad - x, lambda x: x * bad, lambda x: bad * x,
               lambda x: x / bad, lambda x: bad / x):
        with pytest.raises(TypeError):
            op(GQ(2))
    with pytest.raises(TypeError):
        Matrix([[bad, 1]])
    assert GQ(1) != bad


def test_unknown_operands_defer_to_the_other_type():
    z = Poly.var(0)
    assert GQ(2) * z == z * GQ(2) == Poly({(1, 0, 0, 0, 0, 0): 2})
    assert GQ(1) + z == z + GQ(1)
    assert GQ.__mul__(GQ(2), z) is NotImplemented
    assert GQ.__add__(GQ(2), "1/2") is NotImplemented


def test_constructor_normalizes():
    x = GQ(Fraction(2, 4), -2)
    assert x.re == Fraction(1, 2) and x.im == -2
    assert (x._a, x._b, x._d) == (1, -4, 2)
    assert (GQ(Fraction(2, 3), Fraction(5, 6))._d) == 6


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
    assert (a * a.conj()) == GQ(a.abs2())
    assert a.abs2() >= 0
    if not a.is_zero():
        assert a * a.inverse() == GQ(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GQ(0).inverse()


@given(gaussians)
def test_str_round_trip(a):
    assert GQ.from_str(a.to_str()) == a


def test_serialization_format():
    assert GQ(Fraction(1, 2), Fraction(3, 4)).to_str() == "1/2+3/4*i"
    assert GQ(0, Fraction(-1, 2)).to_str() == "0/1-1/2*i"
    assert GQ(Fraction(-3, 2)).to_str() == "-3/2"
    assert GQ.from_str("1/2+3/4*i") == GQ(Fraction(1, 2), Fraction(3, 4))
    assert GQ.from_str("-5") == GQ(-5)
    assert rat_to_str(Fraction(0)) == "0/1"
    assert rat_from_str("-3/6") == Fraction(-1, 2)


def test_from_str_rejects_inner_blanks():
    # blanks are stripped at the ends only, as rat_from_str does: "1 2" is
    # not read as 12
    assert GQ.from_str(" 1/2+3/4*i ") == GQ(Fraction(1, 2), Fraction(3, 4))
    for s in ("1 2", "1/2 +3/4*i"):
        with pytest.raises(ValueError):
            GQ.from_str(s)


def test_i_squares_to_minus_one():
    i = GQ(0, 1)
    assert i * i == GQ(-1)
    assert (GQ(1) / i) == -i
