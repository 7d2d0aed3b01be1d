"""Symbolic exterior algebra over the ten-element model coframe.

The coframe labels are dual to the complexified algebra basis:

    theta^-2, theta^-1(10), theta^-1(01), theta^0(10), theta^0(01),
    omega^0(10), omega^0(01), omega^1(10), omega^1(01), omega^2

Conjugation swaps the (10)/(01) pairs and fixes theta^-2, omega^2.  The
flat Maurer-Cartan rule d w^a = -(1/2) C^a_bc w^b ^ w^c is generated from
the commutator-derived structure constants, and the ten flat structure
equations are checked coefficient by coefficient; any residue is reported
with its wedge pair rather than silenced, so printed-sign deltas localize.

The module is also the one home of the structure-function catalog: the
full torsion of the model (a dict of 2-forms, one per value label), the
symbols T^a_b|c and R^a_b|c that name its components, and the linear
relations among them that the frame conditions of each prolongation step
and the three torsion normalizations impose.

The ``run_*`` functions at the end fill the reports of ``so32cr verify
structeq`` and ``so32cr constraints``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .scalars import GQ, HALF, HALF_I, I, combination_text, unit_vec
from . import forms, so32
from .so32 import (CONJ_PERM, DIM, GRADES, IN_H, M_MINUS, bracket_complex,
                   to_complex_basis)
from .cochains import Cochain, cochain_dim, codifferential_matrix
from .forms import Form, canonical
from .linalg import Matrix, rref

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


@lru_cache(maxsize=1)
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
    """Per-equation report: each lhs must vanish identically; any nonzero
    coefficient is listed with its wedge pair."""
    out = []
    for label in COFRAME_LABELS:
        lhs = structure_equation_lhs()[label]
        out.append(
            {
                "equation": f"d {label}",
                "vanishes": lhs.is_zero(),
                "residue": lhs.render(COFRAME_LABELS),
            }
        )
    return out


def d_squared_report():
    """d(d w^a) for all ten labels; zero iff the Jacobi identity holds,
    checked here independently through the exterior algebra."""
    out = []
    for label in COFRAME_LABELS:
        res = exterior_derivative(maurer_cartan(label))
        out.append({"label": label, "vanishes": res.is_zero()})
    return out


# ---------------------------------------------------------------------------
# full torsion and the constraint catalog
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _m_minus_complex_coords():
    """Complex coordinates of the real m_- basis vectors."""
    return [to_complex_basis(unit_vec(DIM, i)) for i in M_MINUS]


def flat_torsion() -> dict:
    """The full torsion of the model, whose every value is the Lie bracket.

    A full torsion is an alternating bilinear map on m with values in g,
    over the complexified bases: the dict {beta: 2-form on the complexified
    m-labels} of its nonzero value components along the g-labels beta."""
    m = [i for i in range(DIM) if not IN_H[i]]
    values = {(i, j): bracket_complex(i, j) for i, j in combinations(m, 2)}
    forms = {beta: Form({pair: v[beta] for pair, v in values.items()})
             for beta in range(DIM)}
    return {beta: f for beta, f in forms.items() if not f.is_zero()}


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

    def is_single_vanishing(self) -> bool:
        return len(self.terms) == 1

    def evaluate(self, torsion: dict) -> GQ:
        """Value on a full torsion {beta: 2-form} (``flat_torsion``)."""
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


def _symbol_basis(k: int):
    """Complex symbols of c-torsion degree k on wedge pairs inside m_-."""
    return tuple(
        Symbol(beta, (i, j))
        for i, j in combinations(M_MINUS, 2)
        for beta in range(DIM)
        if GRADES[beta] == GRADES[i] + GRADES[j] + k
    )


def _symbol_column(s: Symbol, k: int):
    """Real monomial coordinates of the restricted degree-k c-torsion whose
    one nonzero complex coefficient is s = 1.  Its only component is the
    value label s.upper on the pair s.lower = (i, j), so on the real wedge
    pair (a, b) its value is the 2x2 minor z_a^i z_b^j - z_a^j z_b^i times
    the real coordinates of that value label."""
    i, j = s.lower
    zc = _m_minus_complex_coords()
    unit = so32.complex_unit(s.upper)
    table = {}
    for a, b in combinations(range(len(M_MINUS)), 2):
        f = zc[a][i] * zc[b][j] - zc[a][j] * zc[b][i]
        if f:
            for beta, c in enumerate(unit):
                table[((a, b), beta)] = f * c
    return Cochain.from_full_table(2, k, table).coords


def _normalization_relations(k: int):
    """Relations expressing membership of the degree-k c-torsion in the
    normalization space ker d*, over the complex symbol basis: one per
    nonzero row of rref(d*)."""
    syms = _symbol_basis(k)
    phi = Matrix.from_columns([_symbol_column(s, k) for s in syms],
                              nrows=cochain_dim(2, k))
    out = []
    # the reduced rows of d*, one covector at a time; zero rows give no terms
    for row in (rref(codifferential_matrix(2, k))[0] @ phi).rows:
        terms = tuple((c, syms[j]) for j, c in row)
        if terms:
            out.append(
                Relation(
                    f"degree-{k} torsion normalization (residual space membership)",
                    terms,
                )
            )
    return out


def constraint_catalog():
    """All linear relations on structure functions induced by the frame
    conditions and the three torsion-normalization conditions."""
    return tuple(
        [r for step in (1, 2, 3) for r in frame_conditions(step)]
        + [r for k in (1, 2, 3) for r in _normalization_relations(k)]
    )


def catalog_contains_vanishing(symbol_text: str) -> bool:
    """Whether the catalog holds the relation symbol_text = 0.  The frame
    conditions are scanned first, so the normalization relations are built
    only when none of them matches."""
    def holds(relations):
        return any(
            r.is_single_vanishing() and r.terms[0][1].render() == symbol_text
            for r in relations
        )
    return (holds(r for step in (1, 2, 3) for r in frame_conditions(step))
            or holds(constraint_catalog()))


# ---------------------------------------------------------------------------
# the verify structeq and constraints commands
# ---------------------------------------------------------------------------

def run_verify_structeq(rep):
    for r in verify_structure_equations():
        rep.add(
            f"structure equation {r['equation']}",
            "0",
            r["residue"],
            "flat Maurer-Cartan substitution",
            ok=r["vanishes"],
        )
    for r in d_squared_report():
        rep.add(
            f"d^2 on {r['label']}",
            True,
            r["vanishes"],
            "exterior algebra (independent of the algebra-side Jacobi check)",
        )
    rep.add(
        "catalog contains T^-1(10)_-1(10)|0(10) = 0",
        True,
        catalog_contains_vanishing("T^-1(10)_-1(10)|0(10)"),
        "degree-0 frame condition translated to structure functions",
    )
    rep.add(
        "catalog contains conjugate partner T^-1(01)_-1(01)|0(01) = 0",
        True,
        catalog_contains_vanishing("T^-1(01)_-1(01)|0(01)"),
        "conjugation symmetry of the catalog (one printed variant differs "
        "in this single index; localized transcription delta)",
    )


def run_constraints(rep):
    cat = constraint_catalog()
    rep.add("catalog size", len(cat), len(cat), "relation enumeration")
    counts = {}
    for r in cat:
        key = r.source.split(":")[0]
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        rep.add(f"relations from {key}", counts[key], counts[key],
                "relation enumeration")
    rep.add(
        "contains T^-1(10)_-1(10)|0(10) = 0",
        True,
        catalog_contains_vanishing("T^-1(10)_-1(10)|0(10)"),
        "degree-0 frame condition",
    )
    rep.add(
        "contains T^-1(01)_-1(01)|0(01) = 0",
        True,
        catalog_contains_vanishing("T^-1(01)_-1(01)|0(01)"),
        "conjugate of the degree-0 frame condition",
    )
    flat = flat_torsion()
    flat_ok = all(r.evaluate(flat).is_zero() for r in cat)
    rep.add("flat model satisfies every relation", True, flat_ok,
            "exact evaluation on the bracket torsion")
    for r in cat:
        rep.add(f"relation [{r.source}]", r.render(), r.render(),
                "constraint catalog", ok=True)
