"""The structure-function catalog of the model.

The full torsion of the model (a dict of 2-forms, one per value label), and
the linear relations among the structure functions T^a_b|c and R^a_b|c that
name its components (``so32cr.structeq``): the frame conditions of each
prolongation step, and the relations that the three torsion normalizations
impose, read off the reduced rows of Kostant's codifferential d*.

``run_constraints`` at the end fills the report of ``so32cr constraints``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .scalars import unit_vec
from . import so32
from .so32 import DIM, GRADES, IN_H, M_MINUS, bracket_complex, to_complex_basis
from .cochains import Cochain, cochain_dim, codifferential_matrix
from .forms import Form
from .linalg import Matrix, rref
from .structeq import (Relation, Symbol, d_squared_report, frame_conditions,
                       frame_conditions_vanish, verify_structure_equations)

# d_squared_report and verify_structure_equations live in structeq; the
# benchmark tracer's SPANS (perfbench/tracing.py) name them under coframe,
# so they stay bound here until its spans stop naming functions by module
__all__ = ["constraint_catalog", "d_squared_report", "flat_torsion",
           "run_constraints", "verify_structure_equations"]


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


# ---------------------------------------------------------------------------
# the constraints command
# ---------------------------------------------------------------------------

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
        frame_conditions_vanish("T^-1(10)_-1(10)|0(10)"),
        "degree-0 frame condition",
    )
    rep.add(
        "contains T^-1(01)_-1(01)|0(01) = 0",
        True,
        frame_conditions_vanish("T^-1(01)_-1(01)|0(01)"),
        "conjugate of the degree-0 frame condition",
    )
    flat = flat_torsion()
    flat_ok = all(r.evaluate(flat).is_zero() for r in cat)
    rep.add("flat model satisfies every relation", True, flat_ok,
            "exact evaluation on the bracket torsion")
    for r in cat:
        rep.add(f"relation [{r.source}]", r.render(), r.render(),
                "constraint catalog")
