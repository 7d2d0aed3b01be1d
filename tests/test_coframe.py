from fractions import Fraction
from operator import add

import pytest

from oracles import add_term, restrict_ctorsion
from test_so32 import WEIGHTS
from so32cr.scalars import GQ, unit_vec
from so32cr.cochains import Cochain
from so32cr import coframe, structeq
from so32cr.coframe import (
    constraint_catalog,
    flat_torsion,
    _symbol_basis,
    _symbol_column,
)
from so32cr.structeq import (
    d_squared_report,
    exterior_derivative,
    frame_conditions,
    frame_conditions_vanish,
    maurer_cartan,
    structure_equation_lhs,
    verify_structure_equations,
    _idx,
)
from so32cr.forms import Form
from so32cr.so32 import COMPLEX_LABELS, DIM, M_MINUS, bracket_coords

I = GQ(0, 1)
HALF_I = GQ(0, Fraction(1, 2))


def test_coframe_rebinds_the_traced_structure_equation_functions():
    # the benchmark tracer wraps these under coframe's name and rebinds
    # every so32cr namespace holding the same object, so the wrapped object
    # must be the one run_verify_structeq calls
    assert coframe.verify_structure_equations is (
        structeq.verify_structure_equations)
    assert coframe.d_squared_report is structeq.d_squared_report


def test_maurer_cartan_omega2():
    # d omega^2 = (i/2) omega^1(10)^omega^1(01) - (omega^0(10)+omega^0(01))^omega^2
    expect = (
        Form({(_idx("omega^1(10)"), _idx("omega^1(01)")): HALF_I})
        - Form({(_idx("omega^0(10)"), _idx("omega^2")): 1})
        - Form({(_idx("omega^0(01)"), _idx("omega^2")): 1})
    )
    assert maurer_cartan("omega^2") == expect


def test_maurer_cartan_theta_minus2():
    expect = (
        Form({(_idx("theta^-1(10)"), _idx("theta^-1(01)")): -HALF_I})
        + Form({(_idx("omega^0(10)"), _idx("theta^-2")): 1})
        + Form({(_idx("omega^0(01)"), _idx("theta^-2")): 1})
    )
    assert maurer_cartan("theta^-2") == expect


def test_maurer_cartan_conjugation():
    for label in ("theta^-1(10)", "theta^0(10)", "omega^0(10)", "omega^1(10)"):
        conj_label = label.replace("(10)", "(01)")
        assert maurer_cartan(conj_label) == maurer_cartan(label).conj()


def test_all_structure_equations_vanish():
    rep = verify_structure_equations()
    assert len(rep) == 10
    for label, residue in rep:
        assert residue == "0", (label, residue)


def test_each_structure_equation_is_weight_homogeneous():
    # w^a is dual to basis element a, so a term w^b ^ w^c of its equation
    # has the weight of a iff wt(b) + wt(c) = wt(a); this holds for every
    # written term and every term of d w^a, under test_so32's weights
    for label, lhs in structure_equation_lhs().items():
        a = _idx(label)
        written = lhs - maurer_cartan(label)
        assert written.coeffs, label
        for form in (written, maurer_cartan(label)):
            for b, c in form.coeffs:
                assert tuple(map(add, WEIGHTS[b], WEIGHTS[c])) == WEIGHTS[a], (
                    label, COMPLEX_LABELS[b], COMPLEX_LABELS[c])


def test_fault_injection_localizes():
    lhs = structure_equation_lhs()["theta^-1(10)"]
    faked = lhs + Form({(_idx("theta^-2"), _idx("omega^2")): 1})
    assert not faked.is_zero()
    assert len(faked.coeffs) == 1
    assert list(faked.coeffs) == [(_idx("theta^-2"), _idx("omega^2"))]


def test_d_squared_zero():
    rep = d_squared_report()
    assert len(rep) == 10
    assert all(vanishes for _, vanishes in rep)
    # and on a nontrivial injected wedge
    w = Form({(0, 9): GQ(1, 2)})
    assert isinstance(exterior_derivative(w).coeffs, dict)


def test_two_form_algebra():
    a = Form({(1, 0): 2})  # reorders with a sign
    assert a.coeffs == {(0, 1): GQ(-2)}
    assert (a + a.scale(-1)).is_zero()
    assert a.conj().coeffs == {(0, 2): GQ(-2)}


def test_catalog_contains_expected_vanishing_pair():
    # the derived pair from the degree-0 frame condition; the second entry
    # carries the conjugated m^0 index (one printed variant differs there
    # by a single index: a localized transcription delta)
    assert frame_conditions_vanish("T^-1(10)_-1(10)|0(10)")
    assert frame_conditions_vanish("T^-1(01)_-1(01)|0(01)")
    # beta = 0 in symbol form
    assert frame_conditions_vanish("T^0(01)_-1(10)|0(10)")
    # the bracket of m_-1 with itself, nonzero on the flat model
    assert not frame_conditions_vanish("T^-2_-1(10)|-1(01)")


def test_catalog_counts():
    cat = constraint_catalog()
    by_deg = {}
    for r in cat:
        by_deg[r.source] = by_deg.get(r.source, 0) + 1
    # normalization contributes codim(normalization space) relations
    assert by_deg["degree-1 torsion normalization (residual space membership)"] == 4
    assert by_deg["degree-2 torsion normalization (residual space membership)"] == 7
    assert by_deg["degree-3 torsion normalization (residual space membership)"] == 4


def test_catalog_conjugation_symmetry():
    # conjugating every index maps the relation set (as a span) to itself;
    # single-symbol relations map to single-symbol relations in the catalog
    cat = constraint_catalog()
    singles = {
        r.terms[0][1].render() for r in cat if len(r.terms) == 1
    }
    for r in cat:
        if len(r.terms) == 1:
            csym, _ = r.terms[0][1].conj()
            assert csym.render() in singles


def test_flat_torsion_restricts_to_the_bracket_of_m_minus():
    # on m_- the model's torsion is the bracket, read in the real basis
    table = {}
    for a in range(len(M_MINUS)):
        for b in range(a + 1, len(M_MINUS)):
            value = bracket_coords(unit_vec(DIM, M_MINUS[a]),
                                   unit_vec(DIM, M_MINUS[b]))
            for beta, c in enumerate(value):
                table[((a, b), beta)] = c
    assert any(table.values())
    assert restrict_ctorsion(flat_torsion(), 0) == Cochain.from_full_table(
        2, 0, table)


def test_flat_model_satisfies_catalog():
    flat = flat_torsion()
    for r in constraint_catalog():
        assert r.evaluate(flat).is_zero(), r.render()


def test_relation_detects_violation():
    flat = flat_torsion()
    bad = add_term(flat, "e^-1(10)", "e^0(10)", "e^-1(10)", GQ(2))
    violated = [r for r in constraint_catalog() if r.evaluate(bad)]
    assert any(
        len(r.terms) == 1
        and r.terms[0][1].render() == "T^-1(10)_-1(10)|0(10)"
        for r in violated
    )


def test_every_frame_condition_can_fail():
    # perturb the flat torsion on each relation's own symbol, conjugates too
    flat = flat_torsion()
    c = GQ(Fraction(3, 2), -1)
    relations = [r for step in (1, 2, 3) for r in frame_conditions(step)]
    assert len(relations) == 12
    for r in relations:
        ((sign, sym),) = r.terms
        assert sign in (1, -1)
        i, j = sym.lower
        bad = add_term(flat, COMPLEX_LABELS[i], COMPLEX_LABELS[j],
                       COMPLEX_LABELS[sym.upper], c)
        assert r.evaluate(flat).is_zero(), r.source
        assert r.evaluate(bad) == sign * c, r.source


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbol_columns_match_restrict_ctorsion(k):
    # each catalog column, read from its symbol's one nonzero component,
    # equals the restriction of the whole one-symbol torsion
    syms = _symbol_basis(k)
    assert syms
    for s in syms:
        torsion = {s.upper: Form({s.lower: 1})}
        assert _symbol_column(s, k) == restrict_ctorsion(torsion, k).coords, s
