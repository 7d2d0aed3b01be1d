import itertools
import random

import pytest

from so32cr.scalars import GQ
from so32cr.linalg import Matrix, rank, vec
from so32cr import so32
from so32cr.so32 import (
    Alg,
    DIM,
    GRADES,
    GRADE_DIMS,
    apply_J,
    basis_matrices,
    complex_unit,
    filtration_chain,
    from_complex_basis,
    iform,
    killing,
    killing_gram,
    symmetric_signature,
    table1_crosscheck,
    to_complex_basis,
)

I = GQ(0, 1)


def lbl(name):
    return Alg.from_label(name)


def test_basis_matrix_entries():
    bm = basis_matrices()
    em2 = bm[0]
    assert em2[3, 0] == GQ(1) and em2[4, 1] == GQ(-1)
    assert sum(1 for i in range(5) for j in range(5) if em2[i, j]) == 2
    E2 = bm[9]
    assert E2[0, 3] == GQ(1) and E2[1, 4] == GQ(-1)
    assert sum(1 for i in range(5) for j in range(5) if E2[i, j]) == 2


def test_basis_independent_and_iskew():
    bm = basis_matrices()
    flat = Matrix([[m[i, j] for i in range(5) for j in range(5)] for m in bm])
    assert rank(flat) == 10
    form = iform()
    for m in bm:
        assert (m.transpose() @ form + form @ m).is_zero()


def test_matrix_round_trip():
    for i in range(DIM):
        x = Alg.basis(i)
        assert Alg.from_matrix(x.to_matrix()) == x


def test_bracket_examples():
    assert lbl("E_1^0").bracket(lbl("E^2")) == lbl("E^2").scale(2)
    z = lbl("E^2").bracket(lbl("e^-2")).complex_coords()
    expect = [GQ(0)] * DIM
    expect[5] = expect[6] = GQ(1)  # E^0(10) + E^0(01)
    assert list(z) == expect


def test_bracket_antisymmetry_and_bilinearity():
    x = lbl("e_1^-1") + lbl("E^2").scale(GQ(0, 2))
    y = lbl("e_2^-1") - lbl("E_2^0")
    assert x.bracket(x).is_zero()
    assert (x.bracket(y) + y.bracket(x)).is_zero()
    assert x.scale(3).bracket(y) == x.bracket(y).scale(3)


def test_jacobi_all_basis_triples():
    basis = [Alg.basis(i) for i in range(DIM)]
    count = 0
    for x, y, z in itertools.combinations(basis, 3):
        s = (
            x.bracket(y).bracket(z)
            + y.bracket(z).bracket(x)
            + z.bracket(x).bracket(y)
        )
        assert s.is_zero()
        count += 1
    assert count == 120


def test_bracket_grading():
    for gi, gj in itertools.product(range(-2, 3), repeat=2):
        for i in so32.GRADE_INDICES[gi]:
            for j in so32.GRADE_INDICES[gj]:
                b = Alg.basis(i).bracket(Alg.basis(j))
                dec = b.grade_decompose()
                if gi + gj < -2 or gi + gj > 2:
                    assert b.is_zero()
                else:
                    assert set(dec) <= {gi + gj}


def test_grading_eigenspaces():
    grading = lbl("E_1^0")
    for i in range(DIM):
        x = Alg.basis(i)
        assert grading.bracket(x) == x.scale(GRADES[i])
    assert [GRADE_DIMS[g] for g in (-2, -1, 0, 1, 2)] == [1, 2, 4, 2, 1]


def test_fixture_conjugation_asymmetry_localizes_to_deltas():
    # the commutator table is conjugation symmetric; the transcribed fixture
    # breaks that symmetry exactly at the two flagged cells
    fixture = so32.table1_fixture()
    conj_label = {
        lab: so32.COMPLEX_LABELS[so32.CONJ_PERM[so32.COMPLEX_LABELS.index(lab)]]
        for lab in so32.TABLE1_COLS
    }
    conj_label["E_1^0"] = "E_1^0"
    asymmetric = []
    for row in so32.TABLE1_ROWS:
        for col in so32.TABLE1_COLS:
            mirror = fixture[(conj_label[row], conj_label[col])]
            value = fixture[(row, col)]
            expected = tuple(
                value[so32.CONJ_PERM[i]].conj() for i in range(DIM)
            )
            if tuple(mirror) != expected:
                asymmetric.append((row, col))
    assert set(asymmetric) == {
        ("e^-1(10)", "e^-1(01)"),
        ("e^-1(01)", "e^-1(10)"),
    }


def test_table1_crosscheck():
    cells = table1_crosscheck()
    assert len(cells) == 110
    deltas = [c for c in cells if not c.match]
    # the two printed cells that disagree with the commutator, both by a
    # scalar factor (1/2 vs i/2 on the grade -1 pairing)
    assert {(c.row, c.col) for c in deltas} == {
        ("e^-1(10)", "e^-1(01)"),
        ("e^-1(01)", "e^-1(10)"),
    }
    assert all(c.explained for c in deltas)
    by_key = {(c.row, c.col): c for c in cells}
    ok = by_key[("E_1^0", "e^-2")]
    assert ok.match
    assert ok.commutator_value[0] == GQ(-2)
    d = by_key[("e^-1(10)", "e^-1(01)")]
    assert d.commutator_value[0] == GQ(0, "1/2")
    assert d.table_value[0] == GQ("1/2")


def test_conjugation_symmetry_of_commutator_table():
    # sigma[x, y] = [sigma x, sigma y] on all complexified basis pairs
    for i in range(DIM):
        for j in range(DIM):
            lhs = Alg(from_complex_basis(so32.bracket_complex(i, j))).conj()
            ci = Alg(complex_unit(i)).conj()
            cj = Alg(complex_unit(j)).conj()
            assert lhs == ci.bracket(cj)


def test_complex_basis_change():
    # E_1^1 -> E^1(10) + E^1(01)
    z = to_complex_basis(lbl("E_1^1").coords)
    assert z[7] == GQ(1) and z[8] == GQ(1) and sum(1 for c in z if c) == 2
    # e^-2 fixed
    z = to_complex_basis(lbl("e^-2").coords)
    assert z[0] == GQ(1) and sum(1 for c in z if c) == 1
    # e_2^-1 -> i(e^-1(10) - e^-1(01))
    z = to_complex_basis(lbl("e_2^-1").coords)
    assert z[1] == I and z[2] == -I
    # round trip on all basis vectors
    for i in range(DIM):
        x = Alg.basis(i)
        assert vec(from_complex_basis(to_complex_basis(x.coords))) == x.coords


def test_real_form_membership():
    assert lbl("e_1^-1").is_real()
    assert not Alg(complex_unit(1)).is_real()  # e^-1(10) alone is not real
    assert (Alg(complex_unit(1)) + Alg(complex_unit(2))).is_real()


def test_grade_decompose():
    assert set(lbl("e^-2").grade_decompose()) == {-2}
    assert set(lbl("E_1^0").grade_decompose()) == {0}
    dec = (lbl("e_1^-1") + lbl("E^2")).grade_decompose()
    assert set(dec) == {-1, 2}
    assert dec[-1] == lbl("e_1^-1") and dec[2] == lbl("E^2")


def test_killing_values():
    assert killing(lbl("E_1^0"), lbl("E_1^0")) == GQ(12)
    assert killing(lbl("e^-2"), lbl("e_1^-1")) == GQ(0)
    assert killing(lbl("e^-2"), lbl("E^2")) != GQ(0)


def test_killing_symmetric_and_graded():
    g = killing_gram()
    assert g == g.transpose()
    for i in range(DIM):
        for j in range(DIM):
            if GRADES[i] + GRADES[j] != 0:
                assert g[i, j].is_zero()


def test_killing_ad_invariance():
    basis = [Alg.basis(i) for i in range(DIM)]
    for x in basis:
        for y in basis:
            for z in basis:
                assert (
                    killing(x.bracket(y), z) + killing(y, x.bracket(z))
                ).is_zero()


def test_killing_signature():
    assert symmetric_signature(killing_gram()) == (6, 4, 0)


def test_signature_obeys_sylvester_law():
    # B^T D B is congruent to D, so it has D's sign count
    rng = random.Random(1852)
    for _ in range(100):
        n = rng.randrange(1, 7)
        while True:
            b = Matrix([[rng.randrange(-2, 3) for _ in range(n)]
                        for _ in range(n)])
            if rank(b) == n:
                break
        diag = [rng.choice((-2, -1, 0, 1, 3)) for _ in range(n)]
        d = Matrix([[diag[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])
        expected = (sum(x > 0 for x in diag), sum(x < 0 for x in diag),
                    diag.count(0))
        assert symmetric_signature(b.transpose() @ d @ b) == expected


def test_signature_rejects_non_symmetric_and_non_real():
    with pytest.raises(ValueError, match="non-symmetric"):
        symmetric_signature(Matrix([[1, 2], [0, 1]]))
    with pytest.raises(ValueError, match="non-real"):
        symmetric_signature(Matrix([[1, I], [I, 1]]))


def test_killing_nondegenerate():
    assert rank(killing_gram()) == DIM


def test_apply_J():
    assert apply_J(lbl("e_1^-1")) == lbl("e_2^-1")
    assert apply_J(apply_J(lbl("e_1^0"))) == -lbl("e_1^0")
    x = lbl("E_1^1") + lbl("e_2^-1")
    assert apply_J(x) == lbl("E_2^1") - lbl("e_1^-1")
    with pytest.raises(ValueError):
        apply_J(lbl("e^-2"))
    with pytest.raises(ValueError):
        apply_J(lbl("E^2") + lbl("e_1^0"))


def test_filtration_chains():
    f = filtration_chain("F")
    assert [s.dim for s in f] == [10, 9, 7, 3, 1, 0]
    fs = filtration_chain("F*")
    assert [s.dim for s in fs] == [10, 9, 7, 5, 3, 1, 0]
    assert len(fs) == len(f) + 1
    for chain in (f, fs):
        for big, small in zip(chain, chain[1:]):
            assert big.contains_subspace(small) and big.dim > small.dim
    # V_0 / V_(0|0) has dimension 2 (a copy of m^0)
    assert fs[2].dim - fs[3].dim == 2
