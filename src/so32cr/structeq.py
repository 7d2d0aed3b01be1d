"""Symbolic exterior algebra over the ten-element model coframe.

The coframe labels are dual to the complexified algebra basis:

    theta^-2, theta^-1(10), theta^-1(01), theta^0(10), theta^0(01),
    omega^0(10), omega^0(01), omega^1(10), omega^1(01), omega^2

Conjugation swaps the (10)/(01) pairs and fixes theta^-2, omega^2.  The
flat Maurer-Cartan rule d w^a = -(1/2) C^a_bc w^b ^ w^c is generated from
the commutator-derived structure constants, and the ten flat structure
equations are checked coefficient by coefficient; any residue is reported
with its wedge pair rather than silenced, so printed-sign deltas localize.

The structure functions T^a_b|c and R^a_b|c name the components of a full
torsion, and each prolongation step's frame conditions set some of them to
zero.  None of this needs linear algebra; the relations the torsion
normalizations impose do, and ``so32cr.coframe`` holds them.

``run_verify_structeq`` at the end fills the report of ``so32cr verify
structeq``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .scalars import GQ, HALF, HALF_I, I, combination_text
from . import forms, so32
from .so32 import CONJ_PERM, DIM, IN_H, bracket_complex
from .forms import Form, canonical

# short grade labels of the complexified basis ("e^-1(10)" -> "-1(10)"),
# used in the coframe labels and in the structure-function symbols
# T^alpha_beta|gamma (m-valued) and R^a_beta|gamma (h-valued)
_SHORT = tuple(label.split("^", 1)[1] for label in so32.COMPLEX_LABELS)

COFRAME_LABELS = tuple(
    ("omega^" if h else "theta^") + short for h, short in zip(IN_H, _SHORT)
)


def _idx(label: str) -> int:
    return COFRAME_LABELS.index(label)


@lru_cache(maxsize=None)
def maurer_cartan(label: str) -> Form:
    """d of a coframe 1-form under the flat rule, from the structure
    constants of the complexified commutator table."""
    a = _idx(label)
    return Form(
        {(b, c): -bracket_complex(b, c)[a] for b, c in combinations(range(DIM), 2)}
    )


def exterior_derivative(form: Form) -> Form:
    """d of a coframe form: the Leibniz rule with the Maurer-Cartan rule on
    each 1-form factor."""
    return forms.exterior_derivative(
        form, lambda i: maurer_cartan(COFRAME_LABELS[i]))


def _w(l1: str, l2: str, c=1) -> Form:
    return Form({(_idx(l1), _idx(l2)): c})


def structure_equation_lhs():
    """The ten flat structure equations, as label -> 2-form that must vanish.

    The four composite equations for the (01) labels are the formal
    conjugates of their (10) partners."""
    d = maurer_cartan
    eqs = {}
    eqs["theta^-2"] = (
        d("theta^-2")
        + _w("theta^-1(10)", "theta^-1(01)", HALF_I)
        - _w("omega^0(10)", "theta^-2")
        - _w("omega^0(01)", "theta^-2")
    )
    eqs["theta^-1(10)"] = (
        d("theta^-1(10)")
        - _w("theta^0(10)", "theta^-1(01)")
        - _w("omega^0(10)", "theta^-1(10)")
        + _w("omega^1(10)", "theta^-2", I)
    )
    eqs["theta^0(10)"] = (
        d("theta^0(10)")
        - _w("omega^0(10)", "theta^0(10)")
        + _w("omega^0(01)", "theta^0(10)")
        + _w("omega^1(10)", "theta^-1(10)", HALF)
    )
    eqs["omega^0(10)"] = (
        d("omega^0(10)")
        - _w("theta^0(10)", "theta^0(01)")
        + _w("omega^1(01)", "theta^-1(10)", HALF)
        + _w("omega^2", "theta^-2")
    )
    eqs["omega^1(10)"] = (
        d("omega^1(10)")
        - _w("omega^1(01)", "theta^0(10)")
        - _w("omega^1(10)", "omega^0(01)")
        + _w("omega^2", "theta^-1(10)", I)
    )
    eqs["omega^2"] = (
        d("omega^2")
        - _w("omega^1(10)", "omega^1(01)", HALF_I)
        + _w("omega^0(10)", "omega^2")
        + _w("omega^0(01)", "omega^2")
    )
    for label in ("theta^-1(10)", "theta^0(10)", "omega^0(10)", "omega^1(10)"):
        conj_label = COFRAME_LABELS[CONJ_PERM[_idx(label)]]
        conj_lhs = (eqs[label] - maurer_cartan(label)).conj()
        eqs[conj_label] = d(conj_label) + conj_lhs
    return eqs


def verify_structure_equations():
    """(label, residue) per equation: each lhs must vanish identically, and
    the residue text lists any nonzero coefficient with its wedge pair ("0"
    when it vanishes)."""
    lhs = structure_equation_lhs()
    return [(label, lhs[label].render(COFRAME_LABELS))
            for label in COFRAME_LABELS]


def d_squared_report():
    """(label, vanishes) of d(d w^a) for all ten labels; zero iff the Jacobi
    identity holds, checked here independently through the exterior
    algebra."""
    return [(label, exterior_derivative(maurer_cartan(label)).is_zero())
            for label in COFRAME_LABELS]


# ---------------------------------------------------------------------------
# structure functions and the frame conditions
# ---------------------------------------------------------------------------

class Symbol(NamedTuple):
    """One structure function: T^upper_b|c (m-valued) or R^upper_b|c
    (h-valued)."""

    upper: int  # complexified g-basis index of the value
    lower: tuple  # ordered pair of complexified m-basis indices (i < j)

    @property
    def kind(self) -> str:
        return "R" if IN_H[self.upper] else "T"

    def render(self) -> str:
        b, c = self.lower
        return f"{self.kind}^{_SHORT[self.upper]}_{_SHORT[b]}|{_SHORT[c]}"

    def conj(self):
        """The conjugate symbol and the sign that orders its pair."""
        lower, sign = canonical(CONJ_PERM[x] for x in self.lower)
        return Symbol(CONJ_PERM[self.upper], lower), sign


class Relation(NamedTuple):
    """A linear relation sum(coef * symbol) = 0 among structure functions."""

    source: str
    terms: tuple  # of (GQ, Symbol)

    def render(self) -> str:
        return combination_text((c, s.render()) for c, s in self.terms) + " = 0"

    def evaluate(self, torsion: dict) -> GQ:
        """Value on a full torsion {beta: 2-form} (``coframe.flat_torsion``)."""
        zero = Form()
        return sum((c * torsion.get(s.upper, zero).at(s.lower)
                    for c, s in self.terms), GQ(0))


# the graded-torsion components each prolongation step sets to zero, as
# (name, argument 1, argument 2, value) over the complexified labels; the
# catalog adds the conjugate of each
_FRAME_CONDITIONS = {
    1: (("alpha", "e^-1(10)", "e^0(10)", "e^-1(10)"),
        ("beta", "e^-1(10)", "e^0(10)", "e^0(01)")),
    2: (("gamma", "e^-1(10)", "e^0(10)", "e^0(10)"),
        ("gamma", "e^-1(01)", "e^0(10)", "e^0(01)")),
    3: (("epsilon", "e^-2", "e^0(10)", "E^0(10)"),
        ("epsilon", "e^-2", "e^0(10)", "E^0(01)")),
}


def frame_conditions(step: int):
    """The step's frame conditions as single-symbol relations, each
    followed by its conjugate."""
    if step not in _FRAME_CONDITIONS:
        raise ValueError("step must be 1, 2 or 3")
    zl = so32.COMPLEX_LABELS.index
    out = []
    for name, arg1, arg2, value in _FRAME_CONDITIONS[step]:
        label = f"{name}({arg1}, {arg2}) | {value}"
        pair, sign = canonical((zl(arg1), zl(arg2)))
        sym = Symbol(zl(value), pair)
        csym, csign = sym.conj()
        out.append(Relation(f"step-{step} frame condition: {label}",
                            ((GQ(sign), sym),)))
        out.append(Relation(f"step-{step} frame condition (conjugate): {label}",
                            ((GQ(sign * csign), csym),)))
    return out


def frame_conditions_vanish(symbol_text: str) -> bool:
    """Whether some step's frame conditions hold symbol_text = 0."""
    return any(r.terms[0][1].render() == symbol_text
               for step in (1, 2, 3) for r in frame_conditions(step))


# ---------------------------------------------------------------------------
# the verify structeq command
# ---------------------------------------------------------------------------

def run_verify_structeq(rep):
    for label, residue in verify_structure_equations():
        rep.add(f"structure equation d {label}", "0", residue,
                "flat Maurer-Cartan substitution")
    for label, vanishes in d_squared_report():
        rep.add(
            f"d^2 on {label}",
            True,
            vanishes,
            "exterior algebra (independent of the algebra-side Jacobi check)",
        )
    rep.add(
        "catalog contains T^-1(10)_-1(10)|0(10) = 0",
        True,
        frame_conditions_vanish("T^-1(10)_-1(10)|0(10)"),
        "degree-0 frame condition translated to structure functions",
    )
    rep.add(
        "catalog contains conjugate partner T^-1(01)_-1(01)|0(01) = 0",
        True,
        frame_conditions_vanish("T^-1(01)_-1(01)|0(01)"),
        "conjugation symmetry of the catalog (one printed variant differs "
        "in this single index; localized transcription delta)",
    )
