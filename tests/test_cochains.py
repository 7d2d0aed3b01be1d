import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from oracles import (CARTAN, act_on_cochain, argument_side,
                     codifferential_by_pairing, evaluate_cochain, intersect,
                     killing_gram, rotation_action_matrix, span_sum,
                     weight_multiplicity)
from so32cr import linalg
from so32cr.scalars import GQ, HALF, over_common_denominator, unit_vec, zero_vec
from so32cr.linalg import Matrix, kernel, rank, solution_map
from so32cr.so32 import (DIM, GRADES, GRADE_DIMS, bracket_coords,
                         to_complex_basis)
from so32cr.forms import perm_sign
from so32cr.cochains import (
    Cochain,
    _Side,
    _coboundary_on,
    _side_h,
    _side_m,
    coboundary,
    coboundary_matrix,
    cochain_dim,
    cochain_monomials,
    codifferential_matrix,
    cohomology_dim,
    ctorsion_from_json,
    hodge_decompose,
    kostant_pieces,
)

G0 = [unit_vec(DIM, i) for i in (3, 4, 5, 6)]
HPLUS = [(i, unit_vec(DIM, i)) for i in (7, 8, 9)]


def codifferential(c):
    return Cochain(c.ell - 1, c.k, codifferential_matrix(c.ell, c.k).apply(c.coords))


def basis_cochain(ell, k, p, scale=1):
    n = cochain_dim(ell, k)
    return Cochain(ell, k, [GQ(scale if q == p else 0) for q in range(n)])


def brute_force_dim(ell, k):
    # independent enumeration: sum over wedge monomials of dim g^(grade+k)
    wedges = itertools.combinations([-2, -1, -1], ell)
    return sum(GRADE_DIMS.get(sum(w) + k, 0) for w in wedges)


def test_dimensions_match_enumeration():
    for ell in range(4):
        for k in range(-4, 7):
            assert cochain_dim(ell, k) == brute_force_dim(ell, k), (ell, k)
    assert cochain_dim(1, 1) == 10
    assert cochain_dim(2, 1) == 4
    assert cochain_dim(0, 2) == 1


def test_homogeneity_rejected_at_construction():
    with pytest.raises(ValueError,
                       match="coefficient at .* violates homogeneity"):
        # a grade-0 value on a grade -2 argument is degree 2, not 1
        Cochain.from_full_table(1, 1, {((0,), 3): GQ(1)})
    with pytest.raises(ValueError, match="ell must be between 0 and 3"):
        cochain_monomials(4, 0)


def test_cochain_is_an_immutable_value():
    a = Cochain(0, 1, [1, 0])
    b = Cochain(0, 1, (GQ(1), GQ(0)))
    assert a == b and hash(a) == hash(b)
    # the same coordinates over a slice of another degree
    assert cochain_dim(0, -1) == 2 and a != Cochain(0, -1, [1, 0])
    assert a != a.coords
    with pytest.raises(AttributeError, match="Cochain is immutable"):
        a.k = 2
    with pytest.raises(ValueError, match="coordinate count does not match"):
        Cochain(0, 1, [1, 0, 0])
    with pytest.raises(ValueError, match="cochain bidegree mismatch"):
        a + Cochain(0, -1, [1, 0])


def test_coboundary_of_constant():
    # d of the 0-cochain E^2 evaluated at e^-2 is [e^-2, E^2]
    c = Cochain.from_full_table(0, 2, {((), 9): GQ(1)})
    val = to_complex_basis(evaluate_cochain(coboundary(c), [1, 0, 0]))
    assert val[5] == GQ(-1) and val[6] == GQ(-1)
    assert sum(1 for x in val if x) == 2


def test_coboundary_kills_ad_cochains():
    # c(Y) = [Y, Z] is d(Z), hence closed, for every Z
    for z in range(10):
        c = coboundary(Cochain.from_full_table(0, GRADES[z], {((), z): GQ(1)}))
        assert not any(coboundary(c).coords)


def test_dd_zero_and_dstar_dstar_zero():
    for k in range(0, 5):
        for ell in (0, 1):
            assert not any(
                (coboundary_matrix(ell + 1, k) @ coboundary_matrix(ell, k)).rows)
        for ell in (2, 3):
            assert not any(
                (codifferential_matrix(ell - 1, k) @ codifferential_matrix(ell, k)).rows)


def test_degree_bounds_raise():
    with pytest.raises(ValueError, match="coboundary needs a cochain degree"):
        coboundary(Cochain.zero(3, 2))
    with pytest.raises(ValueError, match="coboundary needs a cochain degree"):
        coboundary_matrix(3, 2)
    with pytest.raises(ValueError, match="undefined for 0-cochains"):
        codifferential_matrix(0, 0)


def test_side_rejects_arguments_that_do_not_close():
    # [e_1^-1, E_1^1] is a nonzero element of g^0, outside their span
    with pytest.raises(ValueError, match="does not close under bracket"):
        _Side((1, 7), 1)


@pytest.mark.parametrize("data, message", [
    ({"k": 1, "terms": {}}, "c-torsion input must be"),
    ({"k": 1, "terms": [{"args": ["e^-2"], "value": "e^-2", "coef": "1"}]},
     "term args .* must be two of"),
    ({"k": 1, "terms": [{"args": ["e^-2", "e^-2"], "value": "e^-2",
                         "coef": "1"}]}, "repeat the argument 'e\\^-2'"),
    ({"k": 1, "terms": [{"args": ["e^-2", "e_1^-1"], "value": "e^5",
                         "coef": "1"}]}, "term value 'e\\^5' must be one of"),
])
def test_ctorsion_from_json_names_what_is_wrong(data, message):
    with pytest.raises(ValueError, match=message):
        ctorsion_from_json(data)


def test_codifferential_of_zero():
    assert not any(codifferential(Cochain.zero(2, 2)).coords)


def cochain_slices():
    """(ell, k) of every nonempty slice C^ell_k."""
    return [(ell, k) for ell in range(4) for k in range(-8, 9)
            if cochain_dim(ell, k)]


def kostant_prediction():
    """{(ell, k): weights of H^ell_k} by Kostant's theorem for B2 and its
    contact grading, in the weights of ad E^0(10), ad E^0(01): simple roots
    alpha1 = (1, -1), the root of g^0, and alpha2 = (0, 1), so rho =
    (3/2, 1/2); lambda = (1, 1), the highest root.  The Weyl group acts by
    signed permutations.  Each w whose affine image w.lambda = w(lambda +
    rho) - rho = (a, b) is g^0-dominant (a >= b) gives the string -(a, b) +
    j alpha1, j = 0..a-b, in degree ell = length of w, at k = -(a + b)."""
    rho, lam = (Fraction(3, 2), Fraction(1, 2)), (1, 1)
    positive = ((1, -1), (0, 1), (1, 0), (1, 1))
    out = {}
    for perm in ((0, 1), (1, 0)):
        for signs in itertools.product((1, -1), repeat=2):
            def w(v):
                return tuple(s * v[p] for s, p in zip(signs, perm))
            a, b = (int(x - r) for x, r in zip(
                w([x + r for x, r in zip(lam, rho)]), rho))
            if a < b:
                continue
            # the length: the positive roots c1 alpha1 + c2 alpha2 that w
            # makes negative (c1 = x, c2 = x + y for a root (x, y))
            length = sum(x < 0 or x + y < 0
                         for x, y in map(w, positive))
            out[length, -(a + b)] = sorted(
                (-a + j, -b - j) for j in range(a - b + 1))
    return out


def test_kostant_table_on_every_slice():
    predicted = kostant_prediction()
    slices = cochain_slices()
    assert len(slices) == 22 and set(predicted) <= set(slices)
    for ell, k in slices:
        weights = predicted.get((ell, k), [])
        harmonic = kostant_pieces(ell, k)[1]
        assert cohomology_dim(ell, k) == harmonic.dim == len(weights), (
            ell, k)
        actions = [rotation_action_matrix(ell, k, h).apply for h in CARTAN]
        basis = harmonic.basis_vectors()
        assert [weight_multiplicity(actions, basis, w)
                for w in weights] == [weights.count(w) for w in weights], (
            ell, k)
    # empty slices have trivial cohomology
    assert cochain_dim(3, 1) == 0 and cohomology_dim(3, 1) == 0


def test_kostant_direct_sum():
    for ell, k in cochain_slices():
        exact, harm, coex = kostant_pieces(ell, k)
        n = cochain_dim(ell, k)
        assert exact.dim + harm.dim + coex.dim == n
        assert span_sum(exact, harm, coex).dim == n
        assert intersect(exact, harm).dim == 0
        assert intersect(exact, coex).dim == 0
        assert intersect(harm, coex).dim == 0
        if ell >= 1:  # ker d* = harmonic + coexact
            assert kernel(codifferential_matrix(ell, k)) == span_sum(harm, coex)
        if ell <= 2:  # ker d = exact + harmonic
            assert kernel(coboundary_matrix(ell, k)) == span_sum(exact, harm)


def test_codifferential_is_the_killing_pairing_transpose():
    slices = [(ell, k) for ell in (1, 2, 3) for k in range(-8, 9)
              if cochain_dim(ell, k) or cochain_dim(ell - 1, k)]
    assert len(slices) == 21
    for ell, k in slices:
        assert codifferential_matrix(ell, k) == codifferential_by_pairing(
            ell, k), (ell, k)


# -- Kostant's Laplacian (Cap and Slovak, Parabolic Geometries I, 3.3) -------

# the eigenvalues of box = d* d + d d* on the cochain slices
LAPLACIAN_SPECTRUM = tuple(GQ(Fraction(n, 6)) for n in range(5))


def laplacian(ell, k) -> Matrix:
    """box = d* d + d d* on C^ell_k."""
    n = cochain_dim(ell, k)
    box = Matrix.from_entries(n, n, ())
    if ell < 3:
        box = box + codifferential_matrix(ell + 1, k) @ coboundary_matrix(ell, k)
    if ell > 0:
        box = box + coboundary_matrix(ell - 1, k) @ codifferential_matrix(ell, k)
    return box


def g0_casimir(ell, k) -> Matrix:
    """C_g0 = sum kappa0^ab rho(x_a) rho(x_b) on C^ell_k, kappa0 the Killing
    Gram on the grade-0 basis x_a and rho the action on cochains."""
    g0 = [i for i, g in enumerate(GRADES) if g == 0]
    kappa0_inv = solution_map(Matrix([[killing_gram()[a][b] for b in g0]
                                      for a in g0]))
    rho = [rotation_action_matrix(ell, k, unit_vec(DIM, a)) for a in g0]
    n = cochain_dim(ell, k)
    casimir = Matrix.from_entries(n, n, ())
    for a, row in enumerate(kappa0_inv.rows):
        for b, c in row:
            casimir = casimir + (rho[a] @ rho[b]).scale(c)
    return casimir


def test_kostant_laplacian_is_the_g0_casimir_plus_the_degree():
    # box = (1 - C_g0)/2 + (k/6) 1 pins the sign and the scale of d*, apart
    # from the Killing-pairing formula, and its kernel is the harmonic piece
    spectra = {}
    for ell, k in cochain_slices():
        box, one = laplacian(ell, k), Matrix.identity(cochain_dim(ell, k))
        assert box == ((one - g0_casimir(ell, k)).scale(HALF)
                       + one.scale(GQ(Fraction(k, 6)))), (ell, k)
        assert kernel(box) == kostant_pieces(ell, k)[1], (ell, k)
        # diagonalizable with its spectrum in LAPLACIAN_SPECTRUM: the product
        # of box - lambda over the five values vanishes
        shifted = [box - one.scale(lam) for lam in LAPLACIAN_SPECTRUM]
        product = one
        for m in shifted:
            product = product @ m
        assert product == one.scale(0), (ell, k)
        spectra[ell, k] = tuple(one.nrows - rank(m) for m in shifted)
    assert len(spectra) == 22
    # the slices (ell, k) and (3 - ell, 4 - k) have the same spectrum
    for (ell, k), dims in spectra.items():
        assert spectra[3 - ell, 4 - k] == dims, (ell, k)


def test_hodge_exact_input():
    b = basis_cochain(1, 2, 3)
    c = coboundary(b)
    t = hodge_decompose(c)
    assert t.exact.coords == c.coords
    assert not any(t.harmonic.coords) and not any(t.coexact.coords)


def test_hodge_resum_and_projector_idempotence():
    for k in range(1, 5):
        for p in range(cochain_dim(2, k)):
            c = basis_cochain(2, k, p, scale=3)
            t = hodge_decompose(c)
            assert t.resum().coords == c.coords
            # decomposing a component returns it unchanged
            assert hodge_decompose(t.exact).exact.coords == t.exact.coords
            assert hodge_decompose(t.harmonic).harmonic.coords == t.harmonic.coords
            assert hodge_decompose(t.coexact).coexact.coords == t.coexact.coords


def test_hodge_overlapping_pieces_raise(monkeypatch):
    from so32cr import cochains
    from so32cr.linalg import Subspace

    n = cochain_dim(2, 2)
    e = [unit_vec(n, i) for i in range(n)]
    # dimensions add up to n, but the first two pieces coincide
    pieces = (Subspace(n, e[:1]), Subspace(n, e[:1]), Subspace(n, e[1:-1]))
    monkeypatch.setattr(cochains, "kostant_pieces", lambda ell, k: pieces)
    with pytest.raises(ArithmeticError, match="Kostant pieces overlap"):
        hodge_decompose(basis_cochain(2, 2, n - 1))  # outside their span
    with pytest.raises(ArithmeticError, match="Kostant pieces overlap"):
        hodge_decompose(basis_cochain(2, 2, 0))  # inside, not unique
    # dimensions that do not add up to n
    short = (Subspace(n, e[:1]), Subspace(n), Subspace(n, e[1:-1]))
    monkeypatch.setattr(cochains, "kostant_pieces", lambda ell, k: short)
    with pytest.raises(ArithmeticError, match="do not decompose the slice"):
        hodge_decompose(basis_cochain(2, 2, 0))


def test_cohomology_dim_eliminates_once_per_coboundary(monkeypatch):
    slices = ((1, 2), (2, 2), (2, 3), (1, 1))
    expected = [cohomology_dim(ell, k) for ell, k in slices]  # warm caches
    original = linalg.rref
    for (ell, k), dim in zip(slices, expected):
        calls = []
        monkeypatch.setattr(linalg, "rref",
                            lambda m: calls.append(m.ncols) or original(m))
        assert cohomology_dim(ell, k) == dim
        assert len(calls) <= 2, (ell, k, calls)


def test_h0_negative_degrees():
    # H^0_k = g^k ∩ ker(ad of every m_- element), computed two ways
    for k in (-2, -1):
        expected = 0
        for idx in range(10):
            if GRADES[idx] != k:
                continue
            v = unit_vec(DIM, idx)
            if all(not any(bracket_coords(unit_vec(DIM, a), v))
                   for a in (0, 1, 2)):
                expected += 1
        assert cohomology_dim(0, k) == expected


def test_g0_equivariance():
    for x in G0:
        for k in range(0, 5):
            for ell in (0, 1, 2):
                for p in range(cochain_dim(ell, k)):
                    c = basis_cochain(ell, k, p)
                    assert (
                        coboundary(act_on_cochain(x, c)).coords
                        == act_on_cochain(x, coboundary(c)).coords
                    )
            for ell in (1, 2, 3):
                for p in range(cochain_dim(ell, k)):
                    c = basis_cochain(ell, k, p)
                    assert (
                        codifferential(act_on_cochain(x, c)).coords
                        == act_on_cochain(x, codifferential(c)).coords
                    )


def test_ker_dstar_invariance():
    actors = [(i, unit_vec(DIM, i)) for i in (3, 4, 5, 6)] + HPLUS
    for k in range(1, 5):
        for ell in (1, 2, 3):
            kd = kernel(codifferential_matrix(ell, k))
            for idx, x in actors:
                k2 = k + GRADES[idx]
                for v in kd.basis_vectors():
                    img = act_on_cochain(x, Cochain(ell, k, v))
                    if cochain_dim(ell, k2) == 0:
                        assert not any(img.coords)
                    else:
                        assert kernel(codifferential_matrix(ell, k2)).contains(
                            img.coords
                        )


def test_evaluation_antisymmetry():
    c = basis_cochain(2, 2, 1)
    x, y = [1, 2, GQ(0, 1)], [0, 1, -1]
    assert evaluate_cochain(c, x, y) == tuple(
        -GQ.of(v) for v in evaluate_cochain(c, y, x))
    assert all(not v for v in evaluate_cochain(c, x, x))
    # on its own pair of basis arguments a monomial gives its value vector
    ((wedge, beta),) = c.coeff_map()
    e = [unit_vec(3, a) for a in wedge]
    assert evaluate_cochain(c, *e) == unit_vec(DIM, beta)


# -- reference: the Chevalley-Eilenberg formula evaluated on argument tuples ---

def ref_eval_coeffs(coeff_map, arg_tuple):
    """Value (g-vector) of a cochain on a tuple of argument indices."""
    if len(set(arg_tuple)) < len(arg_tuple):
        return zero_vec(DIM)
    order = tuple(sorted(arg_tuple))
    sign = perm_sign(arg_tuple)
    out = [GQ(0)] * DIM
    for beta in range(DIM):
        c = coeff_map.get((order, beta))
        if c:
            out[beta] = out[beta] + c * GQ(sign)
    return tuple(out)


def ref_action(side):
    """(x, v) -> x.v on value coordinates: the bracket on m_-, and on h_+,
    whose values are Killing-dual coordinates K v, the bracket moved
    through the Killing Gram K."""
    if side.sign > 0:
        return bracket_coords
    gram = Matrix(killing_gram())
    gram_inv = solution_map(gram)
    return lambda x, v: gram.apply(bracket_coords(x, gram_inv.apply(v)))


def ref_coboundary_of_monomial(side, ell, mono):
    """Coefficient map of the (ell+1)-cochain d(mono)."""
    coeff = {mono: GQ(1)}
    act = ref_action(side)
    out = {}
    for target in itertools.combinations(range(side.n), ell + 1):
        val = [GQ(0)] * DIM
        # sum_s (-1)^(s+1) [X_s, c(... ^X_s ...)]
        for s in range(ell + 1):
            rest = target[:s] + target[s + 1:]
            inner = ref_eval_coeffs(coeff, rest)
            if any(inner):
                term = act(side.args[target[s]], inner)
                sgn = GQ((-1) ** s)  # (-1)^(s+1) with s starting at 1
                val = [v + sgn * t for v, t in zip(val, term)]
        # sum_{s<t} (-1)^(s+t) c([X_s, X_t] ^ ...)
        for s in range(ell + 1):
            for t in range(s + 1, ell + 1):
                rest = tuple(x for q, x in enumerate(target) if q not in (s, t))
                br = side.bracket_coeffs[(target[s], target[t])]
                sgn = (-1) ** (s + t)  # 1-based (s+1)+(t+1) parity
                for c_idx, bc in enumerate(br):
                    if not bc:
                        continue
                    inner = ref_eval_coeffs(coeff, (c_idx,) + rest)
                    if any(inner):
                        f = GQ(sgn) * bc
                        val = [v + f * x for v, x in zip(val, inner)]
        for beta in range(DIM):
            if val[beta]:
                out[(target, beta)] = val[beta]
    return out


def ref_coboundary_matrix(side, ell, k):
    src = side.graded_monomials(ell, k)
    dst = side.graded_monomials(ell + 1, k)
    dst_index = {m: p for p, m in enumerate(dst)}
    cols = []
    for mono in src:
        col = [GQ(0)] * len(dst)
        for key, c in ref_coboundary_of_monomial(side, ell, mono).items():
            col[dst_index[key]] = c
        cols.append(col)
    return Matrix.from_columns(cols, nrows=len(dst))


# the Killing pairing of m_- with h_+ is KAPPA times the identity
KAPPA = GQ(6)


def nonempty_slices():
    """(side, ell, k) with a nonempty source or target, on both complexes."""
    return [
        (side, ell, k)
        for side in (_side_m(), _side_h())
        for ell in range(3)
        for k in range(-8, 9)
        if side.graded_monomials(ell, k) or side.graded_monomials(ell + 1, k)
    ]


def test_coboundary_matches_reference_evaluator():
    # the reference reads the argument vectors of oracles.argument_side; on
    # h_+ those are the Killing duals h_+ / KAPPA, so the engine's d_h over
    # the arguments h_+ is KAPPA times it
    slices = nonempty_slices()
    assert len(slices) == 42
    for side, ell, k in slices:
        scale = 1 if side.sign > 0 else KAPPA.inverse()
        assert _coboundary_on(side, ell, k).scale(scale) == ref_coboundary_matrix(
            argument_side(side.sign), ell, k), (side.sign, ell, k)


def test_sides_are_read_off_the_structure_constants(monkeypatch):
    from so32cr import cochains, so32

    calls = []

    def counting(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)
        return counted

    monkeypatch.setattr(so32, "bracket_coords",
                        counting("bracket_coords", so32.bracket_coords))
    monkeypatch.setattr(linalg, "rref", counting("rref", linalg.rref))
    for f in (so32.structure_constants, cochains._side_m, cochains._side_h,
              cochains._coboundary_on, cochains._killing_pairing):
        f.cache_clear()
    cochains._side_m(), cochains._side_h()
    for ell in (1, 2, 3):
        for k in range(-8, 9):
            codifferential_matrix(ell, k)
    assert calls == []


def test_killing_pairing_is_checked(monkeypatch):
    from so32cr import cochains, so32

    assert cochains._killing_pairing() == KAPPA
    killing = so32.killing
    # one pair scaled, one off-diagonal entry, and kappa = 0
    mutants = (lambda i, j: killing(i, j) * GQ(2 if (i, j) == (1, 7) else 1),
               lambda i, j: killing(i, j) + GQ(1 if (i, j) == (0, 7) else 0),
               lambda i, j: killing(i, j) * GQ(0))
    try:
        for mutant in mutants:
            monkeypatch.setattr(so32, "killing", mutant)
            cochains._killing_pairing.cache_clear()
            with pytest.raises(ArithmeticError, match=(
                    "the Killing pairing of m_- and h_\\+ is not kappa times "
                    "the identity")):
                cochains._killing_pairing()
    finally:
        cochains._killing_pairing.cache_clear()


def to_qq_i(x: GQ):
    d, (a,), (b,) = over_common_denominator([x])
    return QQ_I(QQ(a, d), QQ(b, d))


def sympy_rank(m: Matrix) -> int:
    rows = [[to_qq_i(x) for x in m.row(i)] for i in range(m.nrows)]
    return DomainMatrix(rows, (m.nrows, m.ncols), QQ_I).rank()


def test_ranks_match_sympy_over_gaussian_rationals():
    mats = [_coboundary_on(side, ell, k) for side, ell, k in nonempty_slices()]
    mats += [
        codifferential_matrix(ell, k)
        for ell in (1, 2, 3)
        for k in range(-8, 9)
        if cochain_dim(ell, k) or cochain_dim(ell - 1, k)
    ]
    assert sum(1 for m in mats if m.nrows and m.ncols and any(m.rows)) > 20
    for m in mats:
        assert rank(m) == sympy_rank(m), m


wedges = st.integers(1, 3).flatmap(
    lambda ell: st.permutations(range(3)).map(lambda p: tuple(p[:ell])))


@given(wedges, st.integers(0, DIM - 1),
       st.fractions(min_value=-9, max_value=9, max_denominator=9))
def test_from_full_table_sorts_a_permuted_wedge_with_its_sign(wedge, beta, c):
    k = GRADES[beta] - sum((-2, -1, -1)[a] for a in wedge)
    permuted = Cochain.from_full_table(len(wedge), k, {(wedge, beta): c})
    ordered = Cochain.from_full_table(
        len(wedge), k, {(tuple(sorted(wedge)), beta): c * perm_sign(wedge)})
    assert permuted == ordered
