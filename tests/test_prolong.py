import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (CARTAN, act_on_cochain, add_term, beta_gauge_response,
                     column_blocks, degree1_normalization_recipe, endo_of_cochain, gl2_endo,
                     gl_graded_j, intersect, levi_compatibility,
                     reference_apply, restrict_ctorsion,
                     rotation_action_matrix, span_sum, symmetric_signature,
                     unflatten, vec_scale, weight_multiplicity)
from so32cr import cochains, linalg, prolong
from so32cr.scalars import GQ, unit_vec
from so32cr.linalg import Matrix, Subspace, kernel, real_rows, solve
from so32cr.so32 import DIM, GRADES, bracket_coords, real_unit
from so32cr.carriers import Carrier, endo_complex_matrix
from so32cr.cochains import (Cochain, coboundary, coboundary_matrix,
                             cochain_dim, codifferential_matrix)
from so32cr.coframe import flat_torsion
from so32cr.structeq import frame_conditions
from so32cr.prolong import (
    STEP_CARRIERS,
    cochain_of_endo,
    gauge_image,
    l1_endo,
    l1_generators,
    normalization_space,
    normalize_ctorsion,
    prolong_step0,
    prolong_step1,
    prolong_step2,
    prolong_step3,
    step3_component_equations,
)

I = GQ(0, 1)


def flat_endo(m):
    return m.flatten()


def prolong_all():
    return (prolong_step0(), prolong_step1(), prolong_step2(), prolong_step3())


def test_prolongation_dimensions():
    assert [s.dim for s in prolong_all()] == [2, 2, 1, 0]


def test_solved_steps_have_the_weights_of_h():
    # ad E^0(10) and ad E^0(01) act on a step's solved endomorphisms by the
    # commutator; the weights are those of h^0, h^1 and h^2 (E^0(10) and
    # E^0(01); E^1(10) and E^1(01); E^2)
    expected = ([(0, 0), (0, 0)], [(0, 1), (1, 0)], [(1, 1)])
    for step, weights in zip(prolong_all(), expected):
        n = step.carrier.dim
        actions = [
            lambda v, ad=step.carrier.ad_action(h): (
                ad @ unflatten(v, n) - unflatten(v, n) @ ad).flatten()
            for h in CARTAN]
        basis = step.space.basis_vectors()
        assert len(basis) == len(weights), step.step
        assert [weight_multiplicity(actions, basis, w)
                for w in weights] == [weights.count(w) for w in weights], (
            step.step)


def test_step0_generators():
    s = prolong_step0()
    b1, b2 = s.generators
    z1 = endo_complex_matrix(s.carrier, b1)
    # B1: e^-2 -> -2e^-2, e^-1(10) -> -e^-1(10), e^0(10) -> 0
    assert z1[0, 0] == GQ(-2)
    assert z1[1, 1] == GQ(-1)
    assert all(z1[r, 3].is_zero() for r in range(5))
    z2 = endo_complex_matrix(s.carrier, b2)
    assert z2[3, 3] == GQ(0, -2)  # B2: e^0(10) -> -2i e^0(10)
    for g in s.generators:
        assert s.space.contains(flat_endo(g))
    span = Subspace(25, [flat_endo(g) for g in s.generators])
    assert span == s.space


def test_step0_solved_relations():
    # the solution space is exactly the family tau = 2 Re(lam), mu = 2i Im(lam)
    s = prolong_step0()
    c = s.carrier
    fam = []
    for lam in (GQ(1), I):
        tau = lam + lam.conj()
        mu = lam - lam.conj()
        cols = [[GQ(0)] * 5 for _ in range(5)]
        from so32cr.carriers import endo_from_complex_images
        b = endo_from_complex_images(
            c,
            {
                "e^-2": [(tau, "e^-2")],
                "e^-1(10)": [(lam, "e^-1(10)")],
                "e^0(10)": [(mu, "e^0(10)")],
            },
        )
        fam.append(flat_endo(b))
    assert Subspace(25, fam) == s.space


def test_the_levi_condition_is_db_at_degree_0():
    # over gl_0^gr(m), the paper's Levi rows and step 0's coboundary rows
    # cut out one 8-dimensional space of gauge coefficients
    carrier, basis, gauge, d = prolong._gauge(0)
    assert gauge.ncols == 9
    assert [unflatten(v, carrier.dim) for v in gauge.columns()] == list(basis)
    levi = Matrix.from_columns([levi_compatibility(b) for b in basis])
    assert kernel(real_rows(levi)) == kernel(real_rows(d))
    assert kernel(real_rows(d)).dim == 8


def test_step0_j_rows_match_the_j_compatible_gauge():
    # step 0's one system, dB = 0 and J rows included, against the Levi
    # oracle and the cubic condition solved inside the oracle's
    # J-compatible gl_0^gr(m)
    gauge = gl_graded_j(Carrier("m"), 0).basis_endos()
    assert len(gauge) == 5
    solutions = kernel(real_rows(Matrix.from_columns(
        [levi_compatibility(b) + prolong.cubic_conditions(b)
         for b in gauge])))
    old = Subspace(25, [
        reference_apply(Matrix.from_columns([b.flatten() for b in gauge]), t)
        for t in solutions.basis_vectors()])
    assert old.dim == 2
    assert prolong_step0().space == old


def test_l1_subspace():
    carrier = Carrier("m+h0")
    l1 = Subspace(carrier.dim ** 2, [g.flatten() for g in l1_generators()])
    assert l1.dim == 6
    assert l1_endo(0, 0, 0) == Matrix.from_entries(7, 7, ())
    z = endo_complex_matrix(carrier, l1_endo(0, 1, 0))
    # mu = 1, nu = 0: h^0 part of B(e^-1(10)) is -E^0(01)
    assert z[5, 1].is_zero() and z[6, 1] == GQ(-1)
    assert z[3, 1] == GQ(1)


def test_step1_generators_match_stated_values():
    s = prolong_step1()
    g1, g2 = s.generators
    z1 = endo_complex_matrix(s.carrier, g1)
    # B1(e^-2) = e^-1(10) + e^-1(01); B1(e^-1(10)) = -(i/2)e^0(10) + (i/2)E^0(10)
    assert z1[1, 0] == GQ(1) and z1[2, 0] == GQ(1)
    assert z1[3, 1] == GQ(0, Fraction(-1, 2)) and z1[5, 1] == GQ(0, Fraction(1, 2))
    assert all(z1[r, 3].is_zero() for r in range(7))
    z2 = endo_complex_matrix(s.carrier, g2)
    # B2(e^-2) = i(e^-1(10) - e^-1(01)); B2(e^-1(10)) = (1/2)e^0(10) + (1/2)E^0(10)
    assert z2[1, 0] == I and z2[2, 0] == -I
    assert z2[3, 1] == GQ(Fraction(1, 2)) and z2[5, 1] == GQ(Fraction(1, 2))
    # generators are the l1 members with nu = (i/2)conj(lam), mu = -(i/2)lam
    assert g1 == l1_endo(1, GQ(0, Fraction(-1, 2)), GQ(0, Fraction(1, 2)))
    assert g2 == l1_endo(I, GQ(Fraction(1, 2)), GQ(Fraction(1, 2)))
    # and equal the projected adjoint action of the h^1 witnesses
    assert g1 == s.carrier.ad_action(vec_scale(-1, real_unit("E_2^1")))
    assert g2 == s.carrier.ad_action(real_unit("E_1^1"))
    assert Subspace(49, [flat_endo(g1), flat_endo(g2)]) == s.space


def test_step2_generator():
    s = prolong_step2()
    (g,) = s.generators
    z = endo_complex_matrix(s.carrier, g)
    assert z[5, 0] == GQ(1) and z[6, 0] == GQ(1)  # B(e^-2) = E^0(10)+E^0(01)
    assert z[7, 1] == I                            # B(e^-1(10)) = iE^1(10)
    assert z[8, 2] == -I                           # B(e^-1(01)) = -iE^1(01)
    assert g == gl2_endo(0, 1, I, 0)               # family (0, t, it, 0) at t=1
    assert g == s.carrier.ad_action(real_unit("E^2"))
    assert Subspace(81, [flat_endo(g)]) == s.space


def test_step3_trivial():
    s = prolong_step3()
    assert s.dim == 0
    assert step3_component_equations().dim == 0
    from so32cr.carriers import gl_filtered
    assert gl_filtered(Carrier("m+h"), 5) == ()


def test_witness_bracket_compatibility():
    # commutators of the quotient ad-actions reproduce ad of the bracket
    witnesses = [
        (0, real_unit("E_1^0")), (0, real_unit("E_2^0")),
        (1, vec_scale(-1, real_unit("E_2^1"))), (1, real_unit("E_1^1")),
        (2, real_unit("E^2")),
    ]
    assert [x for s in prolong_all() for x in s.witnesses] == [
        x for _, x in witnesses]
    carrier_for = {0: "m+h0", 1: "m+h0+h1", 2: "m+h"}
    for (k, x) in witnesses:
        for (l, y) in witnesses:
            c = Carrier(carrier_for[min(k + l, 2)])
            qx, qy = c.ad_action(x), c.ad_action(y)
            assert qx @ qy - qy @ qx == c.ad_action(bracket_coords(x, y))


def test_invariant_inner_product():
    # the paper's degree-1 recipe (oracles.degree1_normalization_recipe)
    # takes an orthocomplement for the product that makes the monomial
    # basis of C^2_1 orthonormal, so its Gram is the identity
    assert "orthonormal" in prolong.INNER_PRODUCT_NOTE
    n = cochain_dim(2, 1)
    g = Matrix.identity(n)
    pos, neg, zero = symmetric_signature(g)
    assert (neg, zero) == (0, 0) and pos == n
    # the rotation generator acts skew-adjointly for it
    a = rotation_action_matrix(2, 1, real_unit("E_2^0"))
    assert a.transpose() @ g + g @ a == Matrix.from_entries(n, n, ())


def test_gauge_image_dims_and_complementarity():
    assert gauge_image(1).dim == 4  # dim l1 - dim closed directions = 6 - 2
    for k in (1, 2, 3):
        gi, ns = gauge_image(k), normalization_space(k)
        n = cochain_dim(2, k)
        assert intersect(gi, ns).dim == 0
        assert gi.dim + ns.dim == n
        assert span_sum(gi, ns).dim == n


def test_the_normalization_space_is_ker_dstar_at_every_degree():
    # the gauge image is the whole image of d on C^1_k, so ker d* is a
    # complement of it; at degree 1 that image is all of C^2_1, and the
    # paper's orthocomplement recipe gives the same 0
    for k in (1, 2, 3):
        n = cochain_dim(2, k)
        assert gauge_image(k) == Subspace(n, coboundary_matrix(1, k).columns())
        assert normalization_space(k) == kernel(codifferential_matrix(2, k))
    assert gauge_image(1).dim == cochain_dim(2, 1)
    assert degree1_normalization_recipe() == normalization_space(1)
    # the recipe splits the image of the paper's l1: each generator's
    # (mu, nu, nu') on e^-1(10) lies on the locus where beta does not move
    for g in l1_generators():
        z = endo_complex_matrix(Carrier("m+h0"), g)
        assert beta_gauge_response(z[3, 1], z[5, 1], z[6, 1]).is_zero()


def test_normalization_ad_invariance():
    actors = {1: (5, 6), 2: (5, 6, 7, 8), 3: (5, 6, 7, 8, 9)}
    for k, idxs in actors.items():
        ns = normalization_space(k)
        for i in idxs:
            k2 = k + GRADES[i]
            for v in ns.basis_vectors():
                img = act_on_cochain(unit_vec(DIM, i), Cochain(2, k, v))
                if cochain_dim(2, k2) == 0:
                    assert not any(img.coords)
                elif k2 in (1, 2, 3):
                    assert normalization_space(k2).contains(img.coords)


def test_normalize_fixed_point_and_pure_gauge():
    for k in (2, 3):
        ns = normalization_space(k)
        v = ns.basis_vectors()[0]
        c = Cochain(2, k, v)
        b, res = normalize_ctorsion(c)
        carrier = Carrier(STEP_CARRIERS[k])
        assert res.coords == c.coords
        assert not any(coboundary(cochain_of_endo(carrier, b, k)).coords)
    # pure gauge input normalizes to zero
    carrier = Carrier(STEP_CARRIERS[2])
    b0 = gl2_endo(1, GQ(0, 2), 0, GQ(3))
    c = coboundary(cochain_of_endo(carrier, b0, 2))
    _, res = normalize_ctorsion(c)
    assert not any(res.coords)


def test_normalize_round_trip_random():
    rng = random.Random(99)
    for k in (1, 2, 3):
        carrier = Carrier(STEP_CARRIERS[k])
        n = cochain_dim(2, k)
        for _ in range(20):
            c = Cochain(
                2, k,
                [GQ(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(n)],
            )
            b, res = normalize_ctorsion(c)
            back = coboundary(cochain_of_endo(carrier, b, k)) + res
            assert back.coords == c.coords
            assert normalization_space(k).contains(res.coords)


def test_normalize_rejects_degrees_without_a_step():
    for k in (0, 4):
        with pytest.raises(ValueError, match="expected a 2-cochain of degree"):
            normalize_ctorsion(Cochain.zero(2, k))
        with pytest.raises(ValueError,
                           match="normalization degree must be 1, 2 or 3"):
            normalization_space(k)


def test_endo_cochain_round_trip():
    carrier = Carrier("m+h0+h1")
    b = gl2_endo(GQ(1, -1), 2, I, GQ(0, 3))
    c = cochain_of_endo(carrier, b, 2)
    assert endo_of_cochain(carrier, c) == b


def test_frame_conditions_on_flat_model():
    flat = flat_torsion()
    for step in (1, 2, 3):
        for f in frame_conditions(step):
            assert f.evaluate(flat).is_zero()
    with pytest.raises(ValueError, match="step must be 1, 2 or 3"):
        frame_conditions(4)


def test_alpha_perturbation_response():
    flat = flat_torsion()
    nu = GQ(Fraction(5, 3), -2)
    pert = add_term(flat, "e^-1(10)", "e^0(10)", "e^-1(10)", nu)
    alpha = frame_conditions(1)[0]
    assert alpha.evaluate(pert) == nu
    assert alpha.evaluate(flat).is_zero()


def test_beta_gauge_response():
    flat = flat_torsion()
    beta = frame_conditions(1)[2]
    rng = random.Random(1)
    for _ in range(10):
        mu = GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
        nu = GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
        nup = GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
        response = beta_gauge_response(mu, nu, nup)
        varied = add_term(flat, "e^-1(10)", "e^0(10)", "e^0(01)", response)
        assert beta.evaluate(varied) == response
        # the response vanishes exactly on the l1 locus
        assert beta_gauge_response(mu, nu, nu - mu.conj()).is_zero()


def test_flat_ctorsion_degrees():
    flat = flat_torsion()
    assert any(restrict_ctorsion(flat, 0).coords)
    for k in (1, 2, 3):
        c = restrict_ctorsion(flat, k)
        assert not any(c.coords)
        assert normalization_space(k).contains(c.coords)


# -- the fixed normalization maps against the solve-based split ---------------

def _reference_split(c):
    """Solve [D | normalization basis] x = c (free variables 0), then
    B = G x_G and residual = c - D x_G, both products summed term by term
    apart from ``Matrix.apply``."""
    carrier, _, gauge, d = prolong._gauge(c.k)
    span = Matrix.from_columns(
        d.columns() + normalization_space(c.k).basis_vectors(),
        nrows=len(c.coords))
    x, _ = solve(span, c.coords)
    xg = x[: gauge.ncols]
    return (unflatten(reference_apply(gauge, xg), carrier.dim).rows,
            tuple(a - b for a, b in zip(c.coords, reference_apply(d, xg))))


_HEIGHTS = (
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**3, 10**3), st.integers(1, 10**3)),
    st.builds(Fraction, st.integers(-10**30, 10**30),
              st.integers(10**19, 10**20)),
)


# the column blocks of each split map of normalize_ctorsion (the connected
# components of its row-column graph): apply puts each over its own
# denominator
SPLIT_BLOCKS = {
    1: ({0, 3}, {1, 2}),
    2: ({0, 3, 4, 6}, {1, 2, 5, 7}),
    3: ({0, 2, 5, 7, 8}, {1, 3, 4, 6, 9}),
}


@st.composite
def ctorsions(draw):
    """A degree-k 2-cochain, k in {1, 2, 3}, with entries of one height or
    of a height drawn per entry (small integers, three-digit or 20- to
    30-digit rationals), some zero, and sometimes one whole column block of
    the split map zero."""
    k = draw(st.sampled_from((1, 2, 3)))
    n = cochain_dim(2, k)
    heights = draw(st.one_of(
        st.sampled_from(_HEIGHTS).map(lambda q: [q] * n),
        st.lists(st.sampled_from(_HEIGHTS), min_size=n, max_size=n)))
    coords = [draw(st.one_of(st.just(GQ(0)), st.builds(GQ, q, q)))
              for q in heights]
    for j in draw(st.sampled_from(((),) + SPLIT_BLOCKS[k])):
        coords[j] = GQ(0)
    return Cochain(2, k, coords)


@settings(deadline=None, max_examples=60)
@given(ctorsions())
def test_normalize_matches_the_solve_split(c):
    b, residual = normalize_ctorsion(c)
    ref_b, ref_residual = _reference_split(c)
    assert b.rows == ref_b
    assert residual.coords == ref_residual


def test_the_annihilator_kernel_is_the_normalization_space():
    for k in (1, 2, 3):
        a = prolong._normalize_maps(k)[2]
        assert kernel(a) == normalization_space(k)
        assert a.nrows == cochain_dim(2, k) - normalization_space(k).dim
    assert prolong._normalize_maps(1)[2] == Matrix.identity(cochain_dim(2, 1))


def test_each_split_map_has_two_column_blocks():
    # the precondition of apply's per-block denominators paying off: every
    # split map falls into the same two column blocks, and every row of the
    # annihilator lies inside one of them
    for k, blocks in SPLIT_BLOCKS.items():
        _, split, annihilator = prolong._normalize_maps(k)
        assert column_blocks(split) == set(map(frozenset, blocks))
        for row in annihilator.rows:
            assert any({j for j, _ in row} <= b for b in blocks), (k, row)


def test_no_output_is_reduced_against_both_block_denominators(monkeypatch):
    # counts, never times: with the k = 3 input's first block over p and its
    # second over q, no GQ that the split map or the annihilator builds is
    # reduced against a multiple of p*q (one denominator for the whole
    # input gave each of the 14 split outputs one)
    prolong._normalize_maps(3)
    p, q = 10**9 + 7, 998244353
    first, second = SPLIT_BLOCKS[3]
    c = Cochain(2, 3, [GQ(Fraction(j + 1, p), Fraction(-1, p)) if j in first
                       else GQ(Fraction(j, q), Fraction(2, q))
                       for j in range(10)])
    assert first | second == set(range(10))
    denominators = []
    original = linalg._gq

    def recording(a, b, d):
        denominators.append(d)
        return original(a, b, d)

    monkeypatch.setattr(linalg, "_gq", recording)
    b, residual = normalize_ctorsion(c)
    monkeypatch.undo()
    assert len(denominators) == 14
    assert [d for d in denominators if d % (p * q) == 0] == []
    assert (b.rows, residual.coords) == _reference_split(c)


def test_warm_normalize_runs_no_elimination(monkeypatch):
    for k in (1, 2, 3):
        normalize_ctorsion(Cochain.zero(2, k))
    counts = {"rref": 0, "solve": 0}

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    for module in (linalg, cochains, prolong):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    rng = random.Random(15)
    for k in (1, 2, 3):
        for _ in range(5):
            normalize_ctorsion(Cochain(2, k, [
                GQ(Fraction(rng.randrange(-99, 100), rng.randrange(1, 99)),
                   rng.randrange(-9, 10))
                for _ in range(cochain_dim(2, k))]))
    assert counts == {"rref": 0, "solve": 0}


def test_a_corrupted_projector_entry_is_caught(monkeypatch):
    # the membership check still runs per call: a wrong entry (i, j) of the
    # residual rows of the split map, with the unit vector e_i outside the
    # normalization space, moves the residual of the input e_j out of it
    k = 3
    layout, split, annihilator = prolong._normalize_maps(k)
    n = split.ncols
    top = split.nrows - n  # the residual rows are the last n
    ns = normalization_space(k)
    i, j = next((i, j) for i, row in enumerate(split.rows[top:])
                for j, _ in row if not ns.contains(unit_vec(n, i)))
    bad = split + Matrix.from_entries(split.nrows, n, [(top + i, j, 1)])
    normalize_ctorsion(Cochain(2, k, unit_vec(n, j)))
    monkeypatch.setattr(prolong, "_normalize_maps",
                        lambda k: (layout, bad, annihilator))
    with pytest.raises(ArithmeticError,
                       match="residual escaped the normalization space"):
        normalize_ctorsion(Cochain(2, k, unit_vec(n, j)))
