import itertools

import pytest

from so32cr.scalars import GQ
from so32cr.linalg import kernel
from so32cr.so32 import Alg, GRADES, GRADE_DIMS, to_complex_basis
from so32cr.cochains import (
    Cochain,
    act_on_cochain,
    coboundary,
    coboundary_matrix,
    cochain_dim,
    cochain_monomials,
    codifferential,
    codifferential_matrix,
    cohomology_dim,
    hodge_decompose,
    kostant_pieces,
)

G0 = [Alg.basis(i) for i in (3, 4, 5, 6)]
HPLUS = [(i, Alg.basis(i)) for i in (7, 8, 9)]


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
    with pytest.raises(ValueError):
        # a grade-0 value on a grade -2 argument is degree 2, not 1
        Cochain.from_full_table(1, 1, {((0,), 3): GQ(1)})
    with pytest.raises(ValueError):
        cochain_monomials(4, 0)


def test_coboundary_of_constant():
    # d of the 0-cochain E^2 evaluated at e^-2 is [e^-2, E^2]
    c = Cochain.from_full_table(0, 2, {((), 9): GQ(1)})
    val = to_complex_basis(coboundary(c).evaluate([1, 0, 0]))
    assert val[5] == GQ(-1) and val[6] == GQ(-1)
    assert sum(1 for x in val if x) == 2


def test_coboundary_kills_ad_cochains():
    # c(Y) = [Y, Z] is d(Z), hence closed, for every Z
    for z in range(10):
        c = coboundary(Cochain.from_full_table(0, GRADES[z], {((), z): GQ(1)}))
        assert coboundary(c).is_zero()


def test_dd_zero_and_dstar_dstar_zero():
    for k in range(0, 5):
        for ell in (0, 1):
            assert (
                coboundary_matrix(ell + 1, k) @ coboundary_matrix(ell, k)
            ).is_zero()
        for ell in (2, 3):
            assert (
                codifferential_matrix(ell - 1, k) @ codifferential_matrix(ell, k)
            ).is_zero()


def test_degree_bounds_raise():
    with pytest.raises(ValueError):
        coboundary(Cochain.zero(3, 2))
    with pytest.raises(ValueError):
        codifferential(Cochain.zero(0, 0))


def test_codifferential_of_zero():
    assert codifferential(Cochain.zero(2, 2)).is_zero()


def test_kostant_direct_sum():
    for k in range(1, 5):
        exact, harm, coex = kostant_pieces(2, k)
        n = cochain_dim(2, k)
        assert exact.dim + harm.dim + coex.dim == n
        assert exact.sum(harm).sum(coex).dim == n
        assert exact.intersect(harm).dim == 0
        assert exact.intersect(coex).dim == 0
        assert harm.intersect(coex).dim == 0
        # ker d* = harmonic + coexact
        kd = kernel(codifferential_matrix(2, k))
        assert kd == harm.sum(coex)


def test_hodge_exact_input():
    b = basis_cochain(1, 2, 3)
    c = coboundary(b)
    t = hodge_decompose(c)
    assert t.exact.coords == c.coords
    assert t.harmonic.is_zero() and t.coexact.is_zero()


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
    from so32cr.linalg import Subspace, unit_vec

    n = cochain_dim(2, 2)
    e = [unit_vec(n, i) for i in range(n)]
    # dimensions add up to n, but the first two pieces coincide
    pieces = (Subspace(n, e[:1]), Subspace(n, e[:1]), Subspace(n, e[1:-1]))
    monkeypatch.setattr(cochains, "kostant_pieces", lambda ell, k: pieces)
    with pytest.raises(ArithmeticError):
        hodge_decompose(basis_cochain(2, 2, n - 1))  # outside their span
    with pytest.raises(ArithmeticError):
        hodge_decompose(basis_cochain(2, 2, 0))  # inside, not unique


def test_cohomology_dims():
    for ell in (1, 2):
        for k in range(0, 5):
            assert cohomology_dim(ell, k) == kostant_pieces(ell, k)[1].dim
    # empty slices have trivial cohomology
    assert cochain_dim(3, 1) == 0 and cohomology_dim(3, 1) == 0


def test_h0_negative_degrees():
    # H^0_k = g^k ∩ ker(ad of every m_- element), computed two ways
    for k in (-2, -1):
        expected = 0
        for idx in range(10):
            if GRADES[idx] != k:
                continue
            v = Alg.basis(idx)
            if all(Alg.basis(a).bracket(v).is_zero() for a in (0, 1, 2)):
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
    actors = [(i, Alg.basis(i)) for i in (3, 4, 5, 6)] + HPLUS
    for k in range(1, 5):
        for ell in (1, 2, 3):
            kd = kernel(codifferential_matrix(ell, k))
            for idx, x in actors:
                k2 = k + GRADES[idx]
                for v in kd.basis_vectors():
                    img = act_on_cochain(x, Cochain(ell, k, v))
                    if cochain_dim(ell, k2) == 0:
                        assert img.is_zero()
                    else:
                        assert kernel(codifferential_matrix(ell, k2)).contains(
                            img.coords
                        )


def test_evaluation_antisymmetry():
    c = basis_cochain(2, 2, 1)
    x, y = [1, 2, GQ(0, 1)], [0, 1, -1]
    assert c.evaluate(x, y) == tuple(-GQ.of(v) for v in c.evaluate(y, x))
    assert all(not v for v in c.evaluate(x, x))
