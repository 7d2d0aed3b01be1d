"""Sparse alternating forms with exact coefficients.

A form of degree l stores its coefficients on strictly increasing index
l-tuples, with no zero entries.  Construction accepts index tuples in any
order: each is sorted with the sign of its sorting permutation, a tuple with
a repeated index contributes nothing, and equal keys are merged.  The
coframe's differential forms and the value components of a full torsion
are such forms; the cochain complexes share the permutation sign.
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


class Form:
    """Alternating form: coefficients on sorted index tuples."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        merged = {}
        for key, c in (coeffs or {}).items():
            c = GQ.of(c)
            if not c or len(set(key)) < len(key):
                continue
            order = tuple(sorted(key))
            if perm_sign(key) < 0:
                c = -c
            merged[order] = merged.get(order, GQ(0)) + c
        self.coeffs = {k: v for k, v in merged.items() if v}

    def at(self, key) -> GQ:
        """The coefficient on an index tuple given in any order."""
        if len(set(key)) < len(key):
            return GQ(0)
        c = self.coeffs.get(tuple(sorted(key)), GQ(0))
        return c if perm_sign(key) > 0 else -c

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
