from fractions import Fraction

import pytest

from so32cr.scalars import GQ
from so32cr.coframe import (
    FullTorsion,
    catalog_contains_vanishing,
    constraint_catalog,
    d_squared_report,
    exterior_derivative,
    frame_conditions,
    maurer_cartan,
    structure_equation_lhs,
    verify_structure_equations,
    _idx,
    _symbol_basis,
    _symbol_column,
)
from so32cr.forms import Form
from so32cr.so32 import COMPLEX_LABELS

I = GQ(0, 1)
HALF_I = GQ(0, Fraction(1, 2))


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
    for r in rep:
        assert r["vanishes"], r


def test_fault_injection_localizes():
    lhs = structure_equation_lhs()["theta^-1(10)"]
    faked = lhs + Form({(_idx("theta^-2"), _idx("omega^2")): 1})
    assert not faked.is_zero()
    assert len(faked.coeffs) == 1
    assert list(faked.coeffs) == [(_idx("theta^-2"), _idx("omega^2"))]


def test_d_squared_zero():
    rep = d_squared_report()
    assert len(rep) == 10
    assert all(r["vanishes"] for r in rep)
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
    assert catalog_contains_vanishing("T^-1(10)_-1(10)|0(10)")
    assert catalog_contains_vanishing("T^-1(01)_-1(01)|0(01)")
    # beta = 0 in symbol form
    assert catalog_contains_vanishing("T^0(01)_-1(10)|0(10)")


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
        r.terms[0][1].render() for r in cat if r.is_single_vanishing()
    }
    for r in cat:
        if r.is_single_vanishing():
            csym, _ = r.terms[0][1].conj()
            assert csym.render() in singles


def test_flat_model_satisfies_catalog():
    flat = FullTorsion.flat()
    for r in constraint_catalog():
        assert r.evaluate(flat).is_zero(), r.render()


def test_relation_detects_violation():
    flat = FullTorsion.flat()
    bad = flat.add_term("e^-1(10)", "e^0(10)", "e^-1(10)", GQ(2))
    violated = [r for r in constraint_catalog() if r.evaluate(bad)]
    assert any(
        r.is_single_vanishing()
        and r.terms[0][1].render() == "T^-1(10)_-1(10)|0(10)"
        for r in violated
    )


def test_every_frame_condition_can_fail():
    # perturb the flat torsion on each relation's own symbol, conjugates too
    flat = FullTorsion.flat()
    c = GQ(Fraction(3, 2), -1)
    relations = [r for step in (1, 2, 3) for r in frame_conditions(step)]
    assert len(relations) == 12
    for r in relations:
        ((sign, sym),) = r.terms
        assert sign in (1, -1)
        i, j = sym.lower
        bad = flat.add_term(COMPLEX_LABELS[i], COMPLEX_LABELS[j],
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
        torsion = FullTorsion({s.upper: Form({s.lower: 1})})
        assert _symbol_column(s, k) == torsion.restrict_ctorsion(k).coords, s
