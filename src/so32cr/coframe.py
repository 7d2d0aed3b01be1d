"""Symbolic exterior algebra over the ten-element model coframe.

The coframe labels are dual to the complexified algebra basis:

    theta^-2, theta^-1(10), theta^-1(01), theta^0(10), theta^0(01),
    omega^0(10), omega^0(01), omega^1(10), omega^1(01), omega^2

Conjugation swaps the (10)/(01) pairs and fixes theta^-2, omega^2.  The
flat Maurer-Cartan rule d w^a = -(1/2) C^a_bc w^b ^ w^c is generated from
the commutator-derived structure constants, and the ten flat structure
equations are checked coefficient by coefficient; any residue is reported
with its wedge pair rather than silenced, so printed-sign deltas localize.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .scalars import GQ
from . import so32
from .so32 import CONJ_PERM, bracket_complex
from .cochains import cochain_dim
from .forms import Form
from .linalg import Matrix, kernel

COFRAME_LABELS = (
    "theta^-2", "theta^-1(10)", "theta^-1(01)", "theta^0(10)", "theta^0(01)",
    "omega^0(10)", "omega^0(01)", "omega^1(10)", "omega^1(01)", "omega^2",
)

N = 10


def _idx(label: str) -> int:
    return COFRAME_LABELS.index(label)


@lru_cache(maxsize=None)
def maurer_cartan(label: str) -> Form:
    """d of a coframe 1-form under the flat rule, from the structure
    constants of the complexified commutator table."""
    a = _idx(label)
    return Form(
        {(b, c): -bracket_complex(b, c)[a] for b, c in combinations(range(N), 2)}
    )


def exterior_derivative(form: Form) -> Form:
    """d by the Leibniz rule, with the Maurer-Cartan rule on each 1-form
    factor: d(w^i1 ^ ... ^ w^il) = sum_s (-1)^s w^i1 ^ .. d w^is .. ^ w^il."""
    terms = {}
    for key, c in form.coeffs.items():
        for s, i in enumerate(key):
            f = c if s % 2 == 0 else -c
            for pair, m in maurer_cartan(COFRAME_LABELS[i]).coeffs.items():
                new = key[:s] + pair + key[s + 1:]
                terms[new] = terms.get(new, GQ(0)) + f * m
    return Form(terms)


I = GQ(0, 1)
HALF = GQ(Fraction(1, 2))
HALF_I = GQ(0, Fraction(1, 2))


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
# the constraint catalog
# ---------------------------------------------------------------------------

# short grade labels of the complexified basis, used in structure-function
# symbols T^alpha_beta|gamma (m-valued) and R^a_beta|gamma (h-valued)
_SHORT = ("-2", "-1(10)", "-1(01)", "0(10)", "0(01)",
          "0(10)", "0(01)", "1(10)", "1(01)", "2")


@dataclass(frozen=True)
class Symbol:
    """One structure function: T^upper_b|c or R^upper_b|c."""

    kind: str   # "T" for m-valued, "R" for h-valued
    upper: int  # complexified g-basis index of the value
    lower: tuple  # ordered pair of complexified m-basis indices (i < j)

    def render(self) -> str:
        b, c = self.lower
        return (
            f"{self.kind}^{_SHORT[self.upper]}_"
            f"{_SHORT[b]}|{_SHORT[c]}"
        )

    def conj(self) -> "Symbol":
        i, j = (CONJ_PERM[x] for x in self.lower)
        sign = 1
        if i > j:
            i, j, sign = j, i, -sign
        return Symbol(self.kind, CONJ_PERM[self.upper], (i, j)), sign


def symbol_for(value_index: int, arg_pair) -> Symbol:
    kind = "T" if value_index <= 4 else "R"
    i, j = arg_pair
    if i > j:
        raise ValueError("arguments must be ordered")
    return Symbol(kind, value_index, (i, j))


@dataclass(frozen=True)
class Relation:
    """A linear relation sum(coef * symbol) = 0 among structure functions."""

    source: str
    terms: tuple  # of (GQ, Symbol)

    def render(self) -> str:
        body = " + ".join(f"({c.to_str()})*{s.render()}" for c, s in self.terms)
        return body + " = 0"

    def is_single_vanishing(self) -> bool:
        return len(self.terms) == 1

    def evaluate(self, torsion) -> GQ:
        """Value on a full torsion (coefficients over complexified bases)."""
        total = GQ(0)
        for c, s in self.terms:
            total = total + c * torsion.value(*s.lower)[s.upper]
        return total


def _frame_condition_relations():
    from .prolong import frame_conditions

    out = []
    for step in (1, 2, 3):
        for f in frame_conditions(step):
            sym = symbol_for(f.component, (min(f.arg1, f.arg2), max(f.arg1, f.arg2)))
            sign = GQ(1) if f.arg1 < f.arg2 else GQ(-1)
            rel = Relation(
                f"step-{step} frame condition: {f.name}",
                ((sign, sym),),
            )
            out.append(rel)
            csym, csign = sym.conj()
            out.append(
                Relation(
                    f"step-{step} frame condition (conjugate): {f.name}",
                    ((sign * GQ(csign), csym),),
                )
            )
    # drop duplicates while keeping order
    seen = set()
    unique = []
    for r in out:
        key = tuple((c.to_str(), s) for c, s in r.terms)
        if key not in seen:
            seen.add(key)
            unique.append(r)
    return unique


@lru_cache(maxsize=None)
def _symbol_basis(k: int):
    """Complex symbols of c-torsion degree k on wedge pairs inside m_-."""
    grades = (-2, -1, -1)
    syms = []
    for i, j in combinations(range(3), 2):
        target = grades[i] + grades[j] + k
        for beta in range(so32.DIM):
            if so32.GRADES[beta] == target:
                syms.append(Symbol("T" if beta <= 4 else "R", beta, (i, j)))
    return tuple(syms)


def _normalization_relations(k: int):
    """Annihilator relations expressing membership of the degree-k c-torsion
    in the normalization space, over the complex symbol basis."""
    from .prolong import FullTorsion, normalization_space

    syms = _symbol_basis(k)
    n = cochain_dim(2, k)
    # column for each symbol: real monomial coordinates of the elementary
    # torsion with that single complex coefficient
    cols = []
    for s in syms:
        t = FullTorsion({s.upper: Form({s.lower: 1})})
        cols.append(t.restrict_ctorsion(k).coords)
    phi = Matrix.from_columns(cols, nrows=n)
    ns = normalization_space(k)
    if ns.dim == n:
        return []
    rows = [list(v) for v in ns.basis_vectors()]
    ann = kernel(Matrix(rows, ncols=n)) if rows else None
    covectors = (
        ann.basis_vectors() if ann is not None
        else [tuple(GQ(1 if i == q else 0) for i in range(n)) for q in range(n)]
    )
    out = []
    for cv in covectors:
        coefs = Matrix([list(cv)], ncols=n) @ phi
        terms = tuple(
            (coefs[0, q], s) for q, s in enumerate(syms) if coefs[0, q]
        )
        if terms:
            out.append(
                Relation(
                    f"degree-{k} torsion normalization (residual space membership)",
                    terms,
                )
            )
    return out


@lru_cache(maxsize=1)
def constraint_catalog():
    """All linear relations on structure functions induced by the frame
    conditions and the three torsion-normalization conditions."""
    out = _frame_condition_relations()
    for k in (1, 2, 3):
        out.extend(_normalization_relations(k))
    return tuple(out)


def catalog_contains_vanishing(symbol_text: str) -> bool:
    return any(
        r.is_single_vanishing() and r.terms[0][1].render() == symbol_text
        for r in constraint_catalog()
    )
