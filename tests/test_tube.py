import random
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (BASE_POINT, DIAG_TO_ANTIDIAG, SAMPLE_POINTS,
                     apply_field, basis_matrices, covectors_at, dtheta,
                     form_value, iform, isotropy_algebra, j_image,
                     model_levi_cubic, pivot_frame_pair, real_parts)
from so32cr.scalars import GQ, HALF_I, over_common_denominator, unit_vec
from so32cr import linalg, quadric, tube
from so32cr.linalg import Matrix, Subspace, kernel_basis, rank
from so32cr.quadric import (
    Poly,
    Powers,
    embed_f,
    embedding_identity_check,
    projective_point,
    quadric_eval,
    rho,
)
from so32cr.tube import (
    ConePoint,
    Field,
    _d10_frame_at,
    _levi_gram,
    _real_frame_at,
    cone_fields,
    cubic_form_at,
    freeman_ranks_at,
    levi_form_at,
    levi_hermitian_rank,
    levi_kernel_at,
    levi_real_gram,
    rib_span_at,
)

I = GQ(0, 1)


def in_model(s) -> bool:
    # a diag-chart tuple on both forms' zero set, with a positive orbit value
    bil, herm, third = quadric_eval(s)
    return bil.is_zero() and herm.is_zero() and third.re_sign() > 0


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
        _LEVI_POLYNOMIALS[key] = -theta_of(v.bracket(j_image(u)))
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
    with pytest.raises(ValueError, match="need 3 complex coordinates"):
        ConePoint((GQ(3), GQ(4)))
    with pytest.raises(ValueError, match="real part is not on the cone"):
        ConePoint((1, 1, 1))
    with pytest.raises(ValueError, match="not on the future half"):
        ConePoint((GQ(3), GQ(4), GQ(-5)))


def test_cone_point_is_immutable_and_keeps_one_power_table():
    p = ConePoint((GQ(3), GQ(4), GQ(5)))
    with pytest.raises(AttributeError, match="ConePoint is immutable"):
        p.z = (GQ(5), GQ(12), GQ(13))
    assert p.powers is p.powers
    # the checked holomorphic frame is kept as well
    assert p.frame is p.frame
    with pytest.raises(AttributeError, match="ConePoint is immutable"):
        p.frame = None


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
    fields = [l12, r, l13.conj(), r.conj(), j_image(l12),
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
        u1, u2 = map(j_image, real_parts(r))
        assert rib.contains(u1.eval(p.powers))
        assert rib.contains(u2.eval(p.powers))


def test_rib_involutivity_shadow():
    _, _, _, r = cone_fields()
    u1 = r + r.conj()
    u2 = (r + r.conj().scale(-1)).scale(I)
    for p in SAMPLE_POINTS:
        assert rib_span_at(p).contains(u1.bracket(u2).eval(p.powers))


def test_levi_symmetry_at_samples():
    l12, l13, _, r = cone_fields()
    for p in SAMPLE_POINTS[:3]:
        fields = [
            r + r.conj(),
            (r + r.conj().scale(-1)).scale(I),
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
    off = Field([1, 0, 0, 1, 0, 0])
    for v, w in ((off, r + r.conj()), (r + r.conj(), off)):
        with pytest.raises(ValueError, match="not a section"):
            levi_form_at(p, v, w)


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


def test_the_section_check_reads_both_halves_of_each_value():
    # V(p) is a section iff sum_j eps_j x^j V^j and sum_j eps_j x^j V^jb
    # both vanish: d/dz^1 fails the first sum alone and its conjugate the
    # second alone, while L13 and L23 pass only with the signs eps
    l12, l13, l23, r = cone_fields()
    p = ConePoint((GQ(3), GQ(4), GQ(5)))
    real = l12 + l12.conj()
    dz1 = Field([1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="field is not a section"):
        levi_form_at(p, dz1, real)
    with pytest.raises(ValueError, match="field is not a section"):
        cubic_form_at(p, r, dz1.conj(), dz1.conj())
    for f in (l13, l23):
        levi_form_at(p, f + f.conj(), real)
        cubic_form_at(p, r, f.conj(), f.conj())


def test_cubic_membership_errors():
    l12, _, _, r = cone_fields()
    p = SAMPLE_POINTS[3]
    with pytest.raises(ValueError, match="must point along the rib"):
        cubic_form_at(p, l12, l12.conj(), l12.conj())
    with pytest.raises(ValueError, match="is not antiholomorphic at"):
        cubic_form_at(p, r, l12, l12.conj())
    with pytest.raises(ValueError, match=r"must be of type \(1,0\)"):
        cubic_form_at(p, r.conj(), l12.conj(), l12.conj())
    off = Field([0, 0, 0, 1, 0, 0])  # of type (0,1), but theta(off) != 0
    for h, hp in ((off, l12.conj()), (l12.conj(), off), (off, off)):
        with pytest.raises(ValueError, match="not a section"):
            cubic_form_at(p, r, h, hp)


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
                          ((0,) * 5, "antidiag")):
        with pytest.raises(ValueError, match="need a nonzero 5-vector"):
            projective_point(coords, chart)
    with pytest.raises(ValueError, match="chart must be 'diag' or 'antidiag'"):
        projective_point((1, 0, 0, 0, 0), "other")


def test_cone_coordinates_need_six_rationals():
    with pytest.raises(ValueError, match="needs 6 rationals x1,x2,x3"):
        quadric._cone_z("3,4,5")


def test_a_field_has_six_components():
    with pytest.raises(ValueError, match="need 6 components"):
        Field([0] * 5)


def test_freeman_ranks_check_the_ruling_field(monkeypatch):
    # a ruling field off the Levi kernel (here L12) is refused, not used; a
    # fresh point, since a shared one may keep the true R(p) in its frame
    l12, l13, l23, _ = cone_fields()
    monkeypatch.setattr(tube, "cone_fields", lambda: (l12, l13, l23, l12))
    with pytest.raises(ArithmeticError, match="rib direction mismatch"):
        freeman_ranks_at(ConePoint(SAMPLE_POINTS[0].z))


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
    # anti-diagonal chart keeps the values of that chart's two forms; the
    # conversion is linear, with the matrix of its values on the units
    to_diag = Matrix.from_columns(
        [projective_point(unit_vec(5, j), "antidiag") for j in range(5)])
    assert projective_point(t, "antidiag") == to_diag.apply(t)
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
    symmetric_vanishes, hermitian_is_twice_rho = embedding_identity_check()
    assert symmetric_vanishes
    assert hermitian_is_twice_rho


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
    ordered at random and a positive rational s, plus a rational y; one
    triple in four is the axis triple (1, 0, 1), so that x^1 or x^2 is 0."""
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, m - 1))
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if draw(st.integers(0, 3)) == 0:
        a, b, c = 1, 0, 1
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
    u10 = Field([Poly.var(3), Poly.const(I), Poly.var(0), Poly(), Poly(),
                 Poly()])  # of type (1,0), so that E + rho U is one too
    cov = covectors_at(p)
    at = Powers(p.z)  # the polynomial path reads a power table of its own
    j_images = [j_image(f) for f in cone_fields()]
    for f in [l12, l13.conj(), r] + j_images:
        assert cov.apply(f.eval(p.powers))[1] == theta_of(f).eval(at)
    # Levi on real sections, J images of the four cone fields and
    # rho-multiple perturbations, in either slot
    real = l12 + l12.conj()
    pert = real + w.scale(rho()) + w.conj().scale(rho())
    pairs = [(r + r.conj(), real), (j_image(real), real), (pert, real),
             (real, pert)]
    for f, jf in zip(cone_fields(), j_images):
        pairs += [(jf, real), (real, jf), (jf, f.conj()), (f, jf.conj())]
    for v, u in pairs:
        assert levi_form_at(p, v, u) == levi_polynomial(v, u).eval(at)
    # cubic: [E, H](p) is the bracket field's value, paired with H'(p) by
    # d theta; E may be perturbed by rho U, H by rho W
    for e, h in ((r, l12.conj()), (r.scale(GQ(2, -1)),
                                   l23.conj() + w.scale(rho())),
                 (r + u10.scale(rho()), l12.conj()),
                 (r.scale(GQ(0, 3)) + u10.scale(rho()), l23.conj())):
        assert cubic_form_at(p, e, h, l13.conj()) == theta_of(
            e.bracket(h).bracket(l13.conj())).eval(at)
    # every entry of the real and the Hermitian Levi Gram; the frame's
    # integer forms, and the real frame read off them, against the values
    # of the frame fields and of their real parts
    (f1, f2), values, forms, r_value = _d10_frame_at(p)
    frame, conj_frame = (f1, f2), (f1.conj(), f2.conj())
    assert [form_value(f) for f in forms] == [f.eval(at) for f in frame]
    assert r_value == r.eval(at)
    assert [form_value(tube._conj(f)) for f in forms] == [
        f.eval(at) for f in conj_frame]
    herm = _levi_gram(forms, [tube._conj(f) for f in forms])
    reals = [u for f in frame for u in real_parts(f)]
    assert [form_value(u) for u in _real_frame_at(p)] == [
        u.eval(at) for u in reals]
    assert rib_span_at(p) == Subspace(6, [u.eval(at)
                                          for u in real_parts(r)])
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


@settings(deadline=None, max_examples=40)
@given(cone_points())
@example(ConePoint((GQ(0), GQ(1), GQ(1))))
@example(ConePoint((GQ(0, 1), GQ(-3, 2), GQ(3, -1))))
@example(ConePoint((GQ(Fraction(-2, 3)), GQ(0, 5), GQ(Fraction(2, 3)))))
def test_frames_match_the_elimination_rule(p):
    # the x^1 = 0 test picks the pair that the first two rref pivots pick,
    # and the real parts of that pair frame the distribution
    assert _d10_frame_at(p)[0] == pivot_frame_pair(p)
    assert rank(Matrix([form_value(u) for u in _real_frame_at(p)])) == 4


WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _workloads():
    # executed from its source text, so no bytecode cache is written there
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


def test_each_benchmark_kind_evaluates_each_field_once(monkeypatch):
    # one op of each tube-points kind at a fresh point: conjugates, J
    # images and real parts are read off values, and no field is evaluated
    # twice.  The counts are Hermitian rank, real Gram, kernel and rib (each
    # builds the frame: two L-fields and R), Freeman (the frame, and step 1
    # stops at the first bracket [R, conj L] outside the span) and cubic (H
    # and [R, H]: E = R needs no rib test)
    workloads = _workloads()
    seen = []
    original = Field.eval

    def counting(field, powers):
        seen.append(field)
        return original(field, powers)

    monkeypatch.setattr(Field, "eval", counting)
    for seed in (1, 2, 3):
        counts = []
        for kind, check in workloads._tube_kinds():
            p = workloads.random_cone_point(random.Random(seed))
            seen.clear()
            assert check(kind(p))
            assert len(set(map(id, seen))) == len(seen), kind
            counts.append(len(seen))
        assert counts == [3, 3, 3, 4, 2]


def test_the_benchmark_kinds_at_one_point_evaluate_each_frame_field_once(
        monkeypatch):
    # the five tube-points kinds at one point share its holomorphic frame
    # and R(p): the first kind evaluates the two fields and R, the others
    # read their values
    workloads = _workloads()
    ruling = cone_fields()[3]
    seen = []
    original = Field.eval

    def counting(field, powers):
        seen.append(field)
        return original(field, powers)

    monkeypatch.setattr(Field, "eval", counting)
    for seed in (1, 2, 3):
        p = workloads.random_cone_point(random.Random(seed))
        seen.clear()
        for kind, check in workloads._tube_kinds():
            assert check(kind(p))
        for field in p.frame[0] + (ruling,):
            assert sum(f is field for f in seen) == 1


def test_the_benchmark_kinds_at_one_point_make_8_eliminations_and_41_dtheta(
        monkeypatch):
    # one row of the work ledger, in calls, never times: the Hermitian
    # rank, real Gram, kernel and Freeman kinds build 4, 16, 16 and 4 Gram
    # entries and the cubic one value; the eliminations are one rank each
    # for the first two, the kernel's rref with the kernel's and the rib's
    # Subspace, and Freeman's kernel with its two Subspaces
    workloads = _workloads()
    counts = {}
    for module, name in ((linalg, "rref"), (tube, "_dtheta")):
        def counting(*args, name=name, original=getattr(module, name)):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    for seed in (1, 2, 3):
        p = workloads.random_cone_point(random.Random(seed))
        counts.clear()
        for kind, check in workloads._tube_kinds():
            assert check(kind(p))
        assert counts == {"rref": 8, "_dtheta": 41}, seed


def _warm_and_fresh_kinds():
    """The tube-points kinds and ``rib_span_at``, each returning the whole
    value the benchmark checks a rank or a fact of, with that fact."""
    l12, l13, l23, r = cone_fields()
    return (
        (levi_hermitian_rank, lambda v: v == 1),
        (levi_real_gram, lambda v: rank(v) == 2),
        (levi_kernel_at, lambda v: v.dim == 2),
        (rib_span_at, lambda v: v.dim == 2),
        (freeman_ranks_at, lambda v: v == (2, 1, 0)),
        (lambda p: tuple(cubic_form_at(p, r, f.conj(), f.conj())
                         for f in (l12, l13, l23)), any),
    )


def _seeded_cone_point(rng: random.Random, height: int) -> ConePoint:
    """x = s * (a, b, c) for a Pythagorean triple, signed and ordered at
    random, plus y; s and y have numerators of up to ``height`` digits."""
    m = rng.randint(2, 9)
    n = rng.randint(1, m - 1)
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if rng.random() < 0.25:
        a, b, c = 1, 0, 1
    if rng.random() < 0.5:
        a, b = b, a
    a *= rng.choice((1, -1))
    b *= rng.choice((1, -1))
    top = 10 ** height
    s = Fraction(rng.randint(1, top), rng.randint(1, 10 ** 6))
    y = [Fraction(rng.randint(-top, top), rng.randint(1, 10 ** 6))
         for _ in range(3)]
    return ConePoint(tuple(GQ(s * x, yi) for x, yi in zip((a, b, c), y)))


def _warm_points():
    """30 seeded points at heights 1, 3 and 20, each with the kinds in a
    shuffled order."""
    rng = random.Random(33)
    kinds = list(_warm_and_fresh_kinds())
    for i in range(30):
        p = _seeded_cone_point(rng, (1, 3, 20)[i % 3])
        rng.shuffle(kinds)
        yield i, p, kinds


def test_warm_point_evaluations_match_fresh_points():
    # the kinds in a shuffled order at one point, each against the same
    # kind at a fresh point of the same z: what the point keeps from one
    # kind is what a fresh point would build for the next.  The kept frame
    # also matches the fields that rref's pivots pick, evaluated on a power
    # table of their own, and the kernel is the rib at the point itself
    for i, p, kinds in _warm_points():
        warm = {kind: kind(p) for kind, _ in kinds}
        for kind, fact in kinds:
            assert warm[kind] == kind(ConePoint(p.z)), (i, kind)
            assert fact(warm[kind]), (i, kind)
        assert warm[levi_kernel_at] == warm[rib_span_at]
        at = Powers(p.z)
        assert [form_value(f) for f in p.frame[2]] == [
            f.eval(at) for f in pivot_frame_pair(p)]


def test_the_levi_grams_store_no_zero():
    # the Grams are built as sparse rows: each equals the matrix of its own
    # dense rows, which keeps no zero; about half of the real Gram's
    # entries are structural zeros
    on_axis = 0
    for _, p, _ in _warm_points():
        forms = p.frame[2]
        for gram in (levi_real_gram(p),
                     _levi_gram(forms, [tube._conj(f) for f in forms])):
            assert gram == Matrix([gram.row(i) for i in range(gram.nrows)])
        on_axis += not p.z[0].re_sign()
    assert on_axis  # the x^1 = 0 frame (L12, L23) is among them


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


_BIG = st.integers(-10 ** 20, 10 ** 20)
_high_gq = st.builds(lambda a, b, d: GQ(Fraction(a, d), Fraction(b, d)),
                     _BIG, _BIG, st.integers(1, 10 ** 6))


@st.composite
def polys(draw, coefficients=_small_gq):
    """A random polynomial of total degree at most 4, of terms of mixed
    degree in general."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        mono = [0] * 6
        for _ in range(draw(st.integers(0, 4))):
            mono[draw(st.integers(0, 5))] += 1
        terms[tuple(mono)] = draw(coefficients)
    return Poly(terms)


@st.composite
def high_points(draw):
    """Three coordinates with numerators of up to 20 digits, each over a
    denominator of its own, one of them zero."""
    dens = draw(st.lists(st.integers(2, 10 ** 6), min_size=3, max_size=3,
                         unique=True))
    z = [GQ(Fraction(draw(_BIG), d), Fraction(draw(_BIG), d)) for d in dens]
    z[draw(st.integers(0, 2))] = GQ(0)
    return z


@settings(deadline=None, max_examples=80)
@given(st.one_of(polys(), polys(_high_gq)),
       st.one_of(st.lists(_small_gq, min_size=3, max_size=3), high_points()))
@example(Poly({(2, 0, 0, 0, 0, 1): GQ(10 ** 19 + 7, -3),
               (0, 1, 0, 0, 0, 0): GQ(Fraction(1, 3)), (0,) * 6: GQ(0, 5)}),
         [GQ(Fraction(10 ** 20 - 1, 7), Fraction(-3, 11)), GQ(0),
          GQ(Fraction(5, 13), Fraction(10 ** 19, 17))])
def test_compiled_eval_matches_the_monomial_loop(poly, z):
    # each term's numerator is scaled by D^gap to the top degree, so terms
    # of mixed degree, coordinates over different denominators, a zero
    # coordinate and 20-digit heights all go through the integer sum
    assert poly.eval(Powers(z)) == naive_eval(poly, z)
    # one power table shared by polynomials of rising degree grows as needed
    powers = Powers(z)
    for q in (Poly.var(0), poly, poly * poly, poly.conj(),
              poly + Poly.var(4) + 1):
        assert q.eval(powers) == naive_eval(q, z)


_mixed_vectors = st.lists(st.one_of(_small_gq, _high_gq), min_size=6,
                          max_size=6)


@settings(deadline=None, max_examples=60)
@given(_mixed_vectors, _mixed_vectors,
       st.lists(st.one_of(_small_gq, _high_gq), min_size=2, max_size=2))
@example([GQ(Fraction(10 ** 19 + 3, 7), Fraction(-5, 3)), GQ(2, -1), GQ(0),
          GQ(Fraction(-1, 2), 4), GQ(Fraction(3, 10 ** 6), 10 ** 20 - 7),
          GQ(0, 1)],
         [GQ(1, 2), GQ(Fraction(-7, 5)), GQ(Fraction(10 ** 20 + 1, 13), -3),
          GQ(0, Fraction(1, 9)), GQ(5), GQ(Fraction(-2, 3), Fraction(1, 4))],
         [GQ(Fraction(1, 3), -2), GQ(Fraction(-10 ** 19, 7), Fraction(5, 2))])
def test_integer_dtheta_matches_the_gq_sum(u, v, coef):
    # d theta, J and conj on integer forms, over each vector's own
    # denominator or over one shared by both (as _section_forms makes them),
    # and a combination of forms over one denominator with complex
    # coefficients, which the cone fields' real values never need
    own = over_common_denominator(u), over_common_denominator(v)
    d, re, im = over_common_denominator(u + v)
    shared = (d, re[:6], im[:6]), (d, re[6:], im[6:])
    assert tube._combine(coef, shared) == tuple(
        coef[0] * x + coef[1] * y for x, y in zip(u, v))
    for fu, fv in (own, shared):
        assert tube._dtheta(fu, fv) == dtheta(u, v)
        assert form_value(tube._J(fu)) == tuple(
            [x * I for x in u[:3]] + [x * -I for x in u[3:]])
        assert form_value(tube._conj(fu)) == tuple(
            x.conj() for x in u[3:] + u[:3])


def _jet_fields():
    """Cone fields with their conjugates, J images and real parts, and
    non-linear fields: the rho-multiple perturbation of ``model cubic`` and
    products of the coordinates."""
    fields = []
    for f in cone_fields():
        fields += [f, f.conj(), j_image(f), j_image(f.conj())]
        fields += list(real_parts(f))
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
        assert f.partials() is f.partials()
        assert f.conj().comps == Field([c.conj() for c in
                                        f.comps[3:] + f.comps[:3]]).comps


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
