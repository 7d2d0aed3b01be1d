from fractions import Fraction

from hypothesis import given, strategies as st

from so32cr.forms import Form, perm_sign
from so32cr.scalars import GQ

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
coefs = st.builds(GQ, rationals.filter(bool), rationals)
distinct_keys = st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)


def cycle_sign(perm) -> int:
    """(-1)^(n - number of cycles), counted independently of perm_sign."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = perm[p]
    return -1 if (len(perm) - cycles) % 2 else 1


@given(distinct_keys, coefs, st.randoms())
def test_permuting_a_wedge_multiplies_by_its_sign(key, c, rnd):
    perm = list(range(len(key)))
    rnd.shuffle(perm)
    permuted = tuple(key[p] for p in perm)
    sign = cycle_sign(perm)
    assert Form({permuted: c}) == Form({tuple(key): c}).scale(sign)
    assert Form({tuple(key): c}).at(permuted) == c * GQ(sign)
    assert perm_sign(permuted) * perm_sign(key) == sign


@given(distinct_keys, st.integers(0, 4), coefs)
def test_repeated_index_gives_zero(key, pos, c):
    repeated = tuple(key) + (key[pos % len(key)],)
    assert Form({repeated: c}).is_zero()
    assert Form({tuple(key): c}).at(repeated) == GQ(0)


@given(st.dictionaries(distinct_keys.map(tuple), coefs, max_size=6))
def test_sum_with_negative_is_zero_and_merging_is_additive(coeffs):
    f = Form(coeffs)
    assert (f - f).is_zero()
    assert (f + f) == f.scale(2)
    assert f.scale(Fraction(1, 2)).scale(2) == f
