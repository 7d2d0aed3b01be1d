from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (BASE_POINT, DIAG_TO_ANTIDIAG, SAMPLE_POINTS,
                     apply_field, basis_matrices, iform, isotropy_algebra,
                     model_levi_cubic)
from so32cr.scalars import GQ, HALF_I
from so32cr import tube
from so32cr.linalg import Matrix, Subspace, kernel_basis, rank
from so32cr.tube import (
    ConePoint,
    Field,
    Poly,
    Powers,
    _d10_frame_at,
    _levi_gram,
    _real_frame_at,
    cone_fields,
    covectors_at,
    cubic_form_at,
    embed_f,
    embedding_identity_check,
    freeman_ranks_at,
    levi_form_at,
    levi_hermitian_rank,
    levi_kernel_at,
    levi_real_gram,
    projective_point,
    quadric_eval,
    rho,
    rib_span_at,
)

I = GQ(0, 1)


def in_model(s) -> bool:
    # a diag-chart tuple on both forms' zero set, with a positive orbit value
    bil, herm, third = quadric_eval(s)
    return bil.is_zero() and herm.is_zero() and third.re > 0


def same_point(s, t) -> bool:
    # two homogeneous 5-vectors of one chart spanning the same line
    return rank(Matrix([list(s), list(t)], ncols=5)) == 1


def gram_forms(gram: Matrix, t):
    """(t^T G t, conj(t)^T G t), entry by entry."""
    pairs = [(i, j, g) for i, row in enumerate(gram.rows) for j, g in row]
    return (sum((t[i] * t[j] * g for i, j, g in pairs), GQ(0)),
            sum((t[i].conj() * t[j] * g for i, j, g in pairs), GQ(0)))


# -- reference: the polynomial path, a CR value read off whole fields --------

def theta_of(field: Field) -> Poly:
    """theta(X) for theta = (i/2)(d'rho - d''rho), as an exact polynomial."""
    r = rho()
    out = Poly()
    for j in range(3):
        out = out + r.diff(j) * field.comps[j]
        out = out - r.diff(j + 3) * field.comps[j + 3]
    return out * HALF_I


_LEVI_POLYNOMIALS = {}


def levi_polynomial(v: Field, u: Field) -> Poly:
    """-theta([V, JU]) as a polynomial; it does not depend on the point, so
    each pair of fields is expanded once."""
    key = (v.comps, u.comps)
    if key not in _LEVI_POLYNOMIALS:
        _LEVI_POLYNOMIALS[key] = -theta_of(v.bracket(u.apply_J()))
    return _LEVI_POLYNOMIALS[key]


def test_poly_ring_and_conjugation():
    z1, zb1 = Poly.var(0), Poly.var(3)
    p = z1 * z1 + zb1 * GQ(0, 2)
    assert p.conj().conj() == p
    assert rho().conj() == rho()
    assert (z1 * GQ(0, 1)).conj() != z1 * GQ(0, 1)
    assert rho().eval(Powers([3, 4, 5])) == GQ(0)
    assert rho().eval(Powers([1, 1, 1])) == GQ(1)


def test_cone_point_validation():
    ConePoint((GQ(3, 7), GQ(4), GQ(5)))
    with pytest.raises(ValueError):
        ConePoint((1, 1, 1))
    with pytest.raises(ValueError):
        ConePoint((GQ(3), GQ(4), GQ(-5)))


def test_cone_fields_tangency():
    l12, l13, l23, r = cone_fields()
    for f in (l12, l13, l23):
        assert apply_field(f, rho()).is_zero()
        assert f.is_type10()
    assert (apply_field(r, rho()) - rho()).is_zero()


def test_frame_rank_at_degenerate_direction():
    l12, l13, l23, _ = cone_fields()
    p = ConePoint((GQ(1), GQ(0), GQ(1)))
    m = Matrix([l12.eval(p.powers), l13.eval(p.powers), l23.eval(p.powers)])
    assert rank(m) == 2


def test_field_bracket_is_polynomial_and_antisymmetric():
    l12, _, _, r = cone_fields()
    br = l12.bracket(r)
    assert br.comps  # stays a polynomial field
    assert (l12.bracket(r) + r.bracket(l12)).eval(Powers((1, 2, 3))) == tuple(
        GQ(0) for _ in range(6)
    )


def test_field_bracket_is_the_commutator_of_derivations():
    # [V, W]f = V(Wf) - W(Vf) on polynomial test functions, for kept cone
    # fields, their conjugates and J images, and fresh rho-multiple
    # perturbations; both orders, each asked twice, so that a bracket kept
    # under the wrong operand shows as a wrong value
    l12, l13, _, r = cone_fields()
    z = [Poly.var(j) for j in range(6)]
    w = Field([z[3], Poly(), Poly(), z[0], Poly(), Poly.const(1)])
    fields = [l12, r, l13.conj(), r.conj(), l12.apply_J(),
              l12.conj() + w.scale(rho()), l13.conj() + w.scale(rho())]
    tests = (rho(), z[0] * z[4] + z[2] * GQ(0, 3),
             z[1] * z[1] * z[5] - z[3] + GQ(2))
    for v in fields:
        for u in fields:
            for a, b in ((v, u), (u, v), (v, u), (u, v)):
                br = a.bracket(b)
                for f in tests:
                    assert (apply_field(br, f)
                            == apply_field(a, apply_field(b, f))
                            - apply_field(b, apply_field(a, f)))


def test_levi_rib_degeneracy_and_rank():
    _, _, _, r = cone_fields()
    l12, l13, l23, _ = cone_fields()
    for p in SAMPLE_POINTS:
        u1 = r + r.conj()
        for other in (l12 + l12.conj(), l23 + l23.conj()):
            assert levi_form_at(p, u1, other).is_zero()
        assert levi_hermitian_rank(p) == 1
        assert rank(levi_real_gram(p)) == 2


def test_rib_is_levi_kernel_and_j_invariant():
    _, _, _, r = cone_fields()
    for p in SAMPLE_POINTS:
        rib = rib_span_at(p)
        assert rib.dim == 2
        assert levi_kernel_at(p) == rib
        # J-invariance: J maps the two spanning vectors into the span
        u1 = (r + r.conj()).apply_J()
        u2 = ((r - r.conj()).scale(I)).apply_J()
        assert rib.contains(u1.eval(p.powers))
        assert rib.contains(u2.eval(p.powers))


def test_rib_involutivity_shadow():
    _, _, _, r = cone_fields()
    u1 = r + r.conj()
    u2 = (r - r.conj()).scale(I)
    for p in SAMPLE_POINTS:
        assert rib_span_at(p).contains(u1.bracket(u2).eval(p.powers))


def test_levi_symmetry_at_samples():
    l12, l13, _, r = cone_fields()
    for p in SAMPLE_POINTS[:3]:
        fields = [
            r + r.conj(),
            (r - r.conj()).scale(I),
            l12 + l12.conj(),
            l13 + l13.conj(),
        ]
        for a in fields:
            for b in fields:
                assert levi_form_at(p, a, b) == levi_form_at(p, b, a)


def test_levi_extension_independence():
    l12, _, _, r = cone_fields()
    w = Field([Poly.var(3), Poly.const(I), Poly(), Poly.var(0), Poly(), Poly.const(2)])
    for p in SAMPLE_POINTS:
        v = l12 + l12.conj()
        base = levi_form_at(p, v, v)
        pert = v + w.scale(rho()) + w.conj().scale(rho())
        assert levi_form_at(p, pert, v) == base
        assert levi_form_at(p, v, pert) == base


def test_levi_rejects_non_sections():
    _, _, _, r = cone_fields()
    p = SAMPLE_POINTS[3]
    with pytest.raises(ValueError):
        levi_form_at(p, Field([1, 0, 0, 1, 0, 0]), r + r.conj())


def test_cubic_form_golden_value_and_linearity():
    l12, _, _, r = cone_fields()
    p = ConePoint((GQ(1), GQ(0), GQ(1)))
    v = cubic_form_at(p, r, l12.conj(), l12.conj())
    assert v == GQ(0, Fraction(-1, 4))  # frozen exact value at (1,0,1)
    assert cubic_form_at(p, r, l12.conj(), l12.conj().scale(2)) == v * GQ(2)
    assert cubic_form_at(p, r.scale(GQ(0, 3)), l12.conj(), l12.conj()) == v * GQ(0, 3)


def test_cubic_nonzero_at_all_samples():
    l12, _, _, r = cone_fields()
    for p in SAMPLE_POINTS:
        assert cubic_form_at(p, r, l12.conj(), l12.conj()) != GQ(0)


def test_cubic_extension_independence():
    l12, _, _, r = cone_fields()
    w = Field([Poly.var(3), Poly.const(I), Poly(), Poly.var(0), Poly(), Poly.const(2)])
    for p in SAMPLE_POINTS[:3]:
        base = cubic_form_at(p, r, l12.conj(), l12.conj())
        assert cubic_form_at(p, r, l12.conj() + w.scale(rho()), l12.conj()) == base


def test_cubic_membership_errors():
    l12, _, _, r = cone_fields()
    p = SAMPLE_POINTS[3]
    with pytest.raises(ValueError):
        cubic_form_at(p, l12, l12.conj(), l12.conj())  # not along the rib
    with pytest.raises(ValueError):
        cubic_form_at(p, r, l12, l12.conj())  # wrong type at the point
    with pytest.raises(ValueError):
        cubic_form_at(p, r.conj(), l12.conj(), l12.conj())  # not (1,0)


def test_freeman_ranks():
    for p in SAMPLE_POINTS:
        assert freeman_ranks_at(p) == (2, 1, 0)


def test_quadric_eval_examples():
    t = projective_point(
        (GQ(0, Fraction(-1, 2)), GQ(3), GQ(4), GQ(5), GQ(0, Fraction(-1, 2))),
        "diag",
    )
    assert quadric_eval(t) == (GQ(0), GQ(0), GQ(Fraction(5, 2)))
    assert in_model(t)
    t2 = projective_point((GQ(1), 0, 0, 0, 0), "diag")
    assert quadric_eval(t2) == (GQ(1), GQ(1), GQ(0))
    assert not in_model(t2)
    # the orbit value is read on the diag representative in either chart:
    # BASE_POINT [1 : i : 0 : 0 : 0] is [1/2 : i/2 : 0 : i/2 : 1/2] there
    bil, herm, third = quadric_eval(projective_point(BASE_POINT, "antidiag"))
    assert bil.is_zero() and herm.is_zero() and third == GQ(Fraction(1, 4))


def test_chart_conversion():
    diag = projective_point(BASE_POINT, "antidiag")
    assert diag == (GQ(Fraction(1, 2)), GQ(0, Fraction(1, 2)), GQ(0),
                    GQ(0, Fraction(1, 2)), GQ(Fraction(1, 2)))
    assert in_model(diag)
    assert same_point(DIAG_TO_ANTIDIAG.apply(diag), BASE_POINT)
    # scaling gives the same projective point
    scaled = projective_point([GQ(0, 3) * c for c in BASE_POINT], "antidiag")
    assert same_point(scaled, diag)
    for coords, chart in (((0,) * 5, "diag"), ((1, 0, 0, 0), "diag"),
                          ((0,) * 5, "antidiag"), ((1, 0, 0, 0, 0), "other")):
        with pytest.raises(ValueError):
            projective_point(coords, chart)


_small_gq = st.builds(
    GQ,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@settings(deadline=None, max_examples=60)
@given(st.lists(_small_gq, min_size=5, max_size=5).filter(any))
def test_antidiag_input_keeps_the_anti_diagonal_forms(t):
    # the chart matrices are inverse to each other and carry the algebra's
    # anti-diagonal form to diag(+,+,+,-,-), so a point given in the
    # anti-diagonal chart keeps the values of that chart's two forms
    to_diag = tube._ANTIDIAG_TO_DIAG
    assert to_diag @ DIAG_TO_ANTIDIAG == Matrix.identity(5)
    assert DIAG_TO_ANTIDIAG @ to_diag == Matrix.identity(5)
    assert DIAG_TO_ANTIDIAG.transpose() @ iform() @ DIAG_TO_ANTIDIAG == Matrix(
        [[s if i == j else 0 for j in range(5)]
         for i, s in enumerate((1, 1, 1, -1, -1))])
    assert quadric_eval(projective_point(t, "antidiag"))[:2] == gram_forms(
        iform(), t)


def test_embed_examples():
    f = embed_f([3, 4, 5])
    assert [c.to_str() for c in f] == [
        "0/1-1/2*i", "3/1", "4/1", "5/1", "0/1-1/2*i",
    ]
    assert in_model(f)
    assert quadric_eval(f)[2] == GQ(Fraction(5, 2))
    assert in_model(embed_f([1, 0, 1]))
    boundary = embed_f([0, 0, 0])
    bil, herm, third = quadric_eval(boundary)
    assert bil.is_zero() and herm.is_zero() and third.is_zero()
    assert not in_model(boundary)


def test_embed_lands_on_quadric_off_cone():
    # for arbitrary z the two forms evaluate to (0, 2 rho(z))
    for z in ([1, 2, 3], [GQ(1, 1), GQ(0, -2), GQ(2, Fraction(1, 3))]):
        f = embed_f(z)
        bil, herm, _ = quadric_eval(f)
        assert bil.is_zero()
        assert herm == GQ(2) * rho().eval(Powers(z))


def test_embedding_identities():
    res = embedding_identity_check()
    assert res["symmetric_form_vanishes"]
    assert res["hermitian_form_is_twice_rho"]


def test_isotropy_algebra():
    iso = isotropy_algebra(BASE_POINT)
    expected = Subspace(
        10, [[1 if i == j else 0 for i in range(10)] for j in (5, 6, 7, 8, 9)]
    )
    assert iso.dim == 5 and iso == expected
    # E^2 annihilates the base point (eigenvalue zero is admitted)
    img = basis_matrices()[9].apply(BASE_POINT)
    assert all(c.is_zero() for c in img)
    scaled = [GQ(Fraction(2, 3), 5) * c for c in BASE_POINT]
    assert isotropy_algebra(scaled) == iso


def test_model_levi_cubic():
    levi, cubic = model_levi_cubic()
    assert levi == GQ(Fraction(-1, 2))
    assert cubic == GQ(0, Fraction(-1, 2))
    levi2, cubic2 = model_levi_cubic(2)
    assert levi2 == levi * GQ(2) and cubic2 == cubic * GQ(2)


def test_theta_kernel_is_distribution():
    # theta vanishes on the L-fields and on R only along the cone
    l12, l13, l23, r = cone_fields()
    for f in (l12, l13, l23):
        for p in SAMPLE_POINTS:
            cov = covectors_at(p)
            assert cov.apply(f.eval(p.powers))[1].is_zero()
            assert cov.apply(f.conj().eval(p.powers))[1].is_zero()


@st.composite
def cone_points(draw):
    """x = s * (a, b, c) for a Pythagorean triple with legs signed and
    ordered at random and a positive rational s, plus a rational y."""
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, m - 1))
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if draw(st.booleans()):
        a, b = b, a
    a *= draw(st.sampled_from((1, -1)))
    b *= draw(st.sampled_from((1, -1)))
    s = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    y = [Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 9)))
         for _ in range(3)]
    return ConePoint(tuple(GQ(s * x, yi) for x, yi in zip((a, b, c), y)))


@settings(deadline=None, max_examples=40)
@given(cone_points())
def test_pointwise_values_match_the_polynomial_path(p):
    l12, l13, l23, r = cone_fields()
    w = Field([Poly.var(3), Poly.const(I), Poly(), Poly.var(0), Poly(),
               Poly.const(2)])
    cov = covectors_at(p)
    at = Powers(p.z)  # the polynomial path reads a power table of its own
    for f in (l12, l13.conj(), r):
        assert cov.apply(f.eval(p.powers))[1] == theta_of(f).eval(at)
    # Levi on real sections, a J image and a rho-multiple perturbation
    real = l12 + l12.conj()
    pert = real + w.scale(rho()) + w.conj().scale(rho())
    for v, u in ((r + r.conj(), real), (real.apply_J(), real), (pert, real),
                 (real, pert)):
        assert levi_form_at(p, v, u) == -theta_of(
            v.bracket(u.apply_J())).eval(at)
    # cubic: the inner bracket stays a field, the outer one is read at p
    for e, h in ((r, l12.conj()), (r.scale(GQ(2, -1)),
                                   l23.conj() + w.scale(rho()))):
        assert cubic_form_at(p, e, h, l13.conj()) == theta_of(
            e.bracket(h).bracket(l13.conj())).eval(at)
    # every entry of the real and the Hermitian Levi Gram
    (f1, f2), _ = _d10_frame_at(p)
    frame, conj_frame = (f1, f2), (f1.conj(), f2.conj())
    herm = _levi_gram(p, frame, conj_frame)
    reals = _real_frame_at(p)[0]
    for gram, rows, cols in ((levi_real_gram(p), reals, reals),
                             (herm, frame, conj_frame)):
        assert gram == Matrix([[levi_polynomial(v, u).eval(at) for u in cols]
                               for v in rows])
    # Freeman step 0 pairs theta with [L, conj L'] and reads its kernel off
    # the transposed Hermitian Gram; step 1 reads [R, conj L'] at p, here
    # against V(W^k) - W(V^k) on the coordinate functions
    ref_rows = Matrix([[theta_of(f.bracket(cb)).eval(at) for f in frame]
                       for cb in conj_frame])
    assert (Subspace(2, kernel_basis(herm.transpose()))
            == Subspace(2, kernel_basis(ref_rows)))
    for f, cb in ((l13, l12.conj()), (r, l23.conj())):
        value = f.bracket(cb).eval(p.powers)
        assert value == tuple(
            (apply_field(f, w) - apply_field(cb, v)).eval(at)
            for v, w in zip(f.comps, cb.comps))
        assert cov.apply(value)[1] == theta_of(f.bracket(cb)).eval(at)


def test_one_reading_of_the_covectors_per_point(monkeypatch):
    # each public evaluator builds theta_p once, whatever the frame size
    calls = []
    original = tube.covectors_at

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(tube, "covectors_at", counting)
    l12, _, _, r = cone_fields()
    real = l12 + l12.conj()
    p = SAMPLE_POINTS[1]
    for evaluate in (levi_real_gram, levi_kernel_at, levi_hermitian_rank,
                     freeman_ranks_at,
                     lambda p: levi_form_at(p, real, real),
                     lambda p: cubic_form_at(p, r, l12.conj(), l12.conj())):
        calls.clear()
        evaluate(p)
        assert calls == [p]


# -- compiled evaluation: jet tables, power tables, warm work ---------------

def naive_eval(poly: Poly, z) -> GQ:
    """The value of each monomial by repeated multiplication, summed."""
    vals = [GQ.of(v) for v in z]
    vals += [v.conj() for v in vals]
    total = GQ(0)
    for mono, c in poly.terms.items():
        t = c
        for e, v in zip(mono, vals):
            for _ in range(e):
                t = t * v
        total = total + t
    return total


def fresh(poly: Poly) -> Poly:
    """An equal polynomial that has not been evaluated yet."""
    return Poly(dict(poly.terms))


@st.composite
def polys(draw, max_degree=4):
    """A random polynomial of total degree at most max_degree."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        mono = [0] * 6
        for _ in range(draw(st.integers(0, max_degree))):
            mono[draw(st.integers(0, 5))] += 1
        terms[tuple(mono)] = draw(_small_gq)
    return Poly(terms)


@settings(deadline=None, max_examples=60)
@given(polys(), st.lists(_small_gq, min_size=3, max_size=3))
def test_compiled_eval_matches_the_monomial_loop(poly, z):
    assert poly.eval(Powers(z)) == naive_eval(poly, z)
    # one power table shared by polynomials of rising degree grows as needed
    powers = Powers(z)
    for q in (Poly.var(0), poly, poly * poly, poly.conj()):
        assert q.eval(powers) == naive_eval(q, z)


def _jet_fields():
    """Cone fields with their conjugates, J images and real parts, and
    non-linear fields: the rho-multiple perturbation of ``model cubic`` and
    products of the coordinates."""
    fields = []
    for f in cone_fields():
        fields += [f, f.conj(), f.apply_J(), f.conj().apply_J()]
    for pair in tube.cone_real_parts():
        fields += list(pair)
    l12 = cone_fields()[0]
    z = [Poly.var(j) for j in range(6)]
    w = Field([z[3], Poly(), Poly(), z[0], Poly(), Poly.const(1)])
    fields += [
        l12.conj() + w.scale(rho()),
        Field([z[0] * z[4], z[1] * z[1] * z[3], Poly(), z[5] * z[5] * z[5],
               z[0] * z[1] * z[2] * z[3], Poly.const(I)]),
        cone_fields()[3].bracket(l12.conj()),
    ]
    return fields


@settings(deadline=None, max_examples=15)
@given(cone_points())
def test_jet_tables_match_a_direct_computation(p):
    for f in _jet_fields():
        for _ in range(2):  # the first reading fills the tables, the second reads them
            value = f.eval(p.powers)
            d = Matrix.from_entries(6, 6, ((i, j, c.eval(p.powers))
                                           for i, j, c in f.partials()))
            at = Powers(p.z)  # a fresh power table, as well as fresh terms
            assert value == tuple(fresh(c).eval(at) for c in f.comps)
            assert d == Matrix([[fresh(c).diff(j).eval(at) for j in range(6)]
                                for c in f.comps])


def test_derived_fields_are_kept():
    for f in cone_fields():
        assert f.conj() is f.conj() and f.conj().conj() is f
        assert f.apply_J() is f.apply_J()
        assert f.partials() is f.partials()
        assert f.conj().comps == Field([c.conj() for c in
                                        f.comps[3:] + f.comps[:3]]).comps
    assert tube.cone_real_parts() is tube.cone_real_parts()


def test_warm_evaluators_build_no_fields_or_derivatives(monkeypatch):
    # after one call per evaluator, a call at a new point builds no field
    # and does no Poly.diff: the brackets of the cubic and of Freeman step
    # 1 are kept on their fields
    l12, _, l23, r = cone_fields()
    real = l12 + l12.conj()
    evaluators = (
        covectors_at, levi_hermitian_rank, levi_real_gram, levi_kernel_at, rib_span_at,
        freeman_ranks_at,
        lambda p: levi_form_at(p, real, real),
        lambda p: cubic_form_at(p, r, l12.conj(), l12.conj()),
        lambda p: cubic_form_at(p, r, l23.conj(), l23.conj()),
    )
    for evaluate in evaluators:
        evaluate(SAMPLE_POINTS[0])
    counts = {"diff": 0, "field": 0}

    def counting(name, method):
        def counted(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return counted

    monkeypatch.setattr(Poly, "diff", counting("diff", Poly.diff))
    monkeypatch.setattr(Field, "__init__", counting("field", Field.__init__))
    for p in SAMPLE_POINTS[1:3]:
        for evaluate in evaluators:
            evaluate(p)
            assert counts == {"diff": 0, "field": 0}, evaluate
