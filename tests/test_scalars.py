from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from so32cr.scalars import GQ, rat_from_str, rat_to_str

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
gaussians = st.builds(GQ, rationals, rationals)


def test_constructor_normalizes():
    x = GQ(Fraction(2, 4), -2)
    assert x.re == Fraction(1, 2) and x.im == -2


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
