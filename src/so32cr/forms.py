"""Sparse alternating forms with exact coefficients.

A form of degree l stores its coefficients on strictly increasing index
l-tuples, with no zero entries.  Construction accepts index tuples in any
order: each is sorted with the sign of its sorting permutation, a tuple with
a repeated index contributes nothing, and equal keys are merged.  The
coframe's differential forms, the value components of a full torsion and
the cochains on m_- and h_+ are such forms.

The exterior derivative lives here too, as the Leibniz rule over a given
rule for the derivatives of the degree-1 generators: the coframe supplies
its Maurer-Cartan differentials, the cochain complexes the dual brackets of
their argument algebra.
"""

from __future__ import annotations

from .scalars import GQ
from .so32 import CONJ_PERM


def perm_sign(seq) -> int:
    """Sign of the permutation that sorts a sequence of distinct keys."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def canonical(key):
    """(sorted key, sign of its sorting permutation) for an index tuple in
    any order; the sign is 0 when an index repeats (the wedge vanishes)."""
    key = tuple(key)
    if len(set(key)) < len(key):
        return key, 0
    return tuple(sorted(key)), perm_sign(key)


class Form:
    """Alternating form: coefficients on sorted index tuples."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        merged = {}
        for key, c in (coeffs or {}).items():
            c = GQ.of(c)
            order, sign = canonical(key)
            if not c or not sign:
                continue
            merged[order] = merged.get(order, GQ(0)) + (c if sign > 0 else -c)
        self.coeffs = {k: v for k, v in merged.items() if v}

    def at(self, key) -> GQ:
        """The coefficient on an index tuple given in any order."""
        order, sign = canonical(key)
        if not sign:
            return GQ(0)
        c = self.coeffs.get(order, GQ(0))
        return c if sign > 0 else -c

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, GQ(0)) + c
        return Form(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "Form":
        c = GQ.of(c)
        return Form({k: c * v for k, v in self.coeffs.items()})

    def conj(self) -> "Form":
        """Formal conjugate over complexified basis indices: conjugate the
        coefficients and swap each (10)/(01) index pair."""
        return Form(
            {tuple(CONJ_PERM[i] for i in k): c.conj() for k, c in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.coeffs == other.coeffs

    def render(self, labels) -> str:
        """Text "(c)*a^b + ..." with one label per index, sorted by key."""
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({self.coeffs[k].to_str()})*" + "^".join(labels[i] for i in k)
            for k in sorted(self.coeffs)
        )

    def __repr__(self):
        return f"Form({self.coeffs!r})"


def exterior_derivative(form: Form, mc) -> Form:
    """d by the Leibniz rule, where mc(i) is the 2-form d w^i of the i-th
    generator: d(w^i1 ^ ... ^ w^il) = sum_s (-1)^s w^i1 ^ .. d w^is .. ^ w^il."""
    terms = {}
    for key, c in form.coeffs.items():
        for s, i in enumerate(key):
            f = c if s % 2 == 0 else -c
            for pair, m in mc(i).coeffs.items():
                new = key[:s] + pair + key[s + 1:]
                terms[new] = terms.get(new, GQ(0)) + f * m
    return Form(terms)
