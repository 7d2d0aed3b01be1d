import itertools
import random
from fractions import Fraction
from importlib import resources

import pytest

from oracles import (LEVELS, basis_matrices, complex_basis_matrix,
                     complex_basis_matrix_inv, coordinate_subspace,
                     filtration_steps, from_matrix, grades, iform,
                     killing_gram, symmetric_signature, to_matrix, trace,
                     vec_add, vec_scale)
from so32cr.scalars import GQ, unit_vec, vec
from so32cr.linalg import Matrix, rank
from so32cr import so32
from so32cr.carriers import Carrier
from so32cr.so32 import (
    DIM,
    GRADES,
    GRADE_DIMS,
    bracket_coords,
    complex_unit,
    from_complex_basis,
    real_unit,
    table1_crosscheck,
    to_complex_basis,
)

I = GQ(0, 1)
BASIS = [unit_vec(DIM, i) for i in range(DIM)]


def gram() -> Matrix:
    return Matrix(killing_gram())


def killing(x, y):
    return sum((a * b for a, b in zip(x, gram().apply(y))), GQ(0))


def apply_J(x):
    # J on the whole algebra, extended by zero on m^-2 and h^2
    return Carrier("m+h").j_matrix().apply(x)


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
        assert m.transpose() @ form + form @ m == Matrix.from_entries(5, 5, ())


def test_matrix_round_trip():
    for x in BASIS:
        assert from_matrix(to_matrix(x)) == x


def _commutator(i, j):
    """The dense 5x5 commutator of two basis matrices, in coordinates: the
    reference the sparse table is checked against."""
    bm = basis_matrices()
    return from_matrix(bm[i] @ bm[j] - bm[j] @ bm[i])


def test_structure_constants_match_the_dense_commutator():
    table = so32.structure_constants()
    for i in range(DIM):
        for j in range(DIM):
            row = table.get((i, j), {})
            coords = tuple(row.get(k, GQ(0)) for k in range(DIM))
            assert coords == _commutator(i, j)
    consts = [t for row in table.values() for t in row.values()]
    assert len(consts) == 72
    allowed = {GQ(Fraction(s * n, 2)) for s in (1, -1) for n in (1, 2, 4)}
    assert set(consts) <= allowed


def test_complex_table_matches_a_per_call_basis_change():
    for i in range(DIM):
        for j in range(DIM):
            assert so32.bracket_complex(i, j) == to_complex_basis(
                bracket_coords(complex_unit(i), complex_unit(j)))


def test_killing_gram_matches_the_trace_of_ad_products():
    ads = [Matrix.from_columns([_commutator(i, j) for j in range(DIM)])
           for i in range(DIM)]
    assert killing_gram() == tuple(
        tuple(trace(ads[i] @ ads[j]) for j in range(DIM)) for i in range(DIM))


def test_from_matrix_rejects_non_members():
    with pytest.raises(ValueError, match="not in so"):
        from_matrix(Matrix.identity(5))
    # a[4, 0] is no coordinate's entry, so only the membership check sees it
    corner = Matrix([[1 if (i, j) == (4, 0) else 0 for j in range(5)]
                     for i in range(5)])
    with pytest.raises(ValueError, match="not in so"):
        from_matrix(corner)


def test_tables_are_built_without_dense_products(monkeypatch):
    products = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        products.append((self.nrows, other.ncols))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    built = (so32.structure_constants, so32.complex_structure_constants)
    for f in built:
        f.cache_clear()
    so32.structure_constants()
    so32.complex_structure_constants()
    assert products == []


# the weights of the complexified basis: the eigenvalues of ad E^0(10) and
# ad E^0(01), in the order of COMPLEX_LABELS
WEIGHTS = ((-1, -1), (-1, 0), (0, -1), (-1, 1), (1, -1),
           (0, 0), (0, 0), (0, 1), (1, 0), (1, 1))


def test_the_complexified_basis_is_a_weight_basis():
    table = so32.complex_structure_constants()
    cartan = [so32.COMPLEX_LABELS.index(x) for x in ("E^0(10)", "E^0(01)")]
    # ad E^0(10) and ad E^0(01) are diagonal, with these integer eigenvalues
    for b, weight in enumerate(WEIGHTS):
        for h, eigenvalue in zip(cartan, weight):
            assert table[h, b] == vec_scale(eigenvalue, unit_vec(DIM, b)), (
                h, b)
    # a bracket adds weights, and a grade is the sum of a weight's entries
    for (a, b), coords in table.items():
        for c, x in enumerate(coords):
            assert not x or WEIGHTS[c] == tuple(
                p + q for p, q in zip(WEIGHTS[a], WEIGHTS[b])), (a, b, c)
    assert tuple(map(sum, WEIGHTS)) == GRADES


def test_bracket_examples():
    assert bracket_coords(real_unit("E_1^0"), real_unit("E^2")) == vec_scale(
        2, real_unit("E^2"))
    z = to_complex_basis(bracket_coords(real_unit("E^2"), real_unit("e^-2")))
    expect = [GQ(0)] * DIM
    expect[5] = expect[6] = GQ(1)  # E^0(10) + E^0(01)
    assert list(z) == expect


def test_bracket_antisymmetry_and_bilinearity():
    x = vec_add(real_unit("e_1^-1"), vec_scale(GQ(0, 2), real_unit("E^2")))
    y = vec_add(real_unit("e_2^-1"), vec_scale(-1, real_unit("E_2^0")))
    assert not any(bracket_coords(x, x))
    assert not any(vec_add(bracket_coords(x, y), bracket_coords(y, x)))
    assert bracket_coords(vec_scale(3, x), y) == vec_scale(3, bracket_coords(x, y))


def test_jacobi_all_basis_triples():
    br = bracket_coords
    count = 0
    for x, y, z in itertools.combinations(BASIS, 3):
        s = vec_add(vec_add(br(br(x, y), z), br(br(y, z), x)), br(br(z, x), y))
        assert not any(s)
        count += 1
    assert count == 120


def test_bracket_grading():
    for gi, gj in itertools.product(range(-2, 3), repeat=2):
        for i in so32.GRADE_INDICES[gi]:
            for j in so32.GRADE_INDICES[gj]:
                b = bracket_coords(BASIS[i], BASIS[j])
                if gi + gj < -2 or gi + gj > 2:
                    assert not any(b)
                else:
                    assert grades(b) <= {gi + gj}


def test_grading_eigenspaces():
    grading = real_unit("E_1^0")
    for x, g in zip(BASIS, GRADES):
        assert bracket_coords(grading, x) == vec_scale(g, x)
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


class _FixtureText:
    """Stands in for the package's resource files, holding one text."""

    def __init__(self, text):
        self.text = text

    def joinpath(self, name):
        return self

    def read_text(self):
        return self.text


@pytest.mark.parametrize("mangle, message", [
    (lambda rows: [rows[0].rsplit("\t", 1)[0]] + rows[1:],
     "fixture row 'E_1\\^0' has 9 cells"),
    (lambda rows: [rows[1], rows[0]] + rows[2:], "fixture rows out of order"),
    (lambda rows: [rows[0].replace("(2/1)*E^2", "2*E^2", 1)] + rows[1:],
     "bad fixture term: '2\\*E\\^2'"),
], ids=["short row", "rows swapped", "bad term"])
def test_table1_fixture_names_its_parse_errors(monkeypatch, mangle, message):
    text = resources.files("so32cr").joinpath("table1.txt").read_text()
    rows = [line for line in text.splitlines()
            if line and not line.startswith("#")]
    mangled = "\n".join(mangle(rows))
    monkeypatch.setattr(resources, "files",
                        lambda package: _FixtureText(mangled))
    with pytest.raises(ValueError, match=message):
        so32.table1_fixture()


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
    assert d.commutator_value[0] == GQ(0, Fraction(1, 2))
    assert d.table_value[0] == GQ(Fraction(1, 2))


def test_conjugation_symmetry_of_commutator_table():
    # sigma[x, y] = [sigma x, sigma y] on all complexified basis pairs, with
    # sigma the conjugation of real coordinates
    def sigma(x):
        return tuple(c.conj() for c in x)

    for i in range(DIM):
        for j in range(DIM):
            lhs = sigma(from_complex_basis(so32.bracket_complex(i, j)))
            assert lhs == bracket_coords(sigma(complex_unit(i)),
                                         sigma(complex_unit(j)))


def test_complex_basis_change():
    # E_1^1 -> E^1(10) + E^1(01)
    z = to_complex_basis(real_unit("E_1^1"))
    assert z[7] == GQ(1) and z[8] == GQ(1) and sum(1 for c in z if c) == 2
    # e^-2 fixed
    z = to_complex_basis(real_unit("e^-2"))
    assert z[0] == GQ(1) and sum(1 for c in z if c) == 1
    # e_2^-1 -> i(e^-1(10) - e^-1(01))
    z = to_complex_basis(real_unit("e_2^-1"))
    assert z[1] == I and z[2] == -I
    # round trip on all basis vectors
    for x in BASIS:
        assert from_complex_basis(to_complex_basis(x)) == x


def _gaussian_vectors(seed, count=20):
    rng = random.Random(seed)
    return [vec(GQ(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                for _ in range(DIM)) for _ in range(count)]


def test_pair_rule_matches_the_basis_change_matrix():
    # the per-pair maps against the 10x10 matrix and its inverse by
    # elimination, on the ten units and on seeded Gaussian vectors
    cbm, cbm_inv = complex_basis_matrix(), complex_basis_matrix_inv()
    assert cbm @ cbm_inv == Matrix.identity(DIM)
    for x in BASIS + _gaussian_vectors(31):
        assert to_complex_basis(x) == cbm_inv.apply(x)
        assert from_complex_basis(x) == cbm.apply(x)
    assert cbm.columns() == [complex_unit(i) for i in range(DIM)]


def test_pair_rule_round_trips_both_ways():
    for x in BASIS + _gaussian_vectors(32):
        assert from_complex_basis(to_complex_basis(x)) == x
        assert to_complex_basis(from_complex_basis(x)) == x
        # a leading block that no pair straddles maps on its own
        for n in (5, 7, 9):
            assert to_complex_basis(x[:n]) == to_complex_basis(x)[:n]
            assert from_complex_basis(x[:n]) == from_complex_basis(x)[:n]


def test_real_form_membership():
    # x is in the real form iff its complex coordinates are conjugation
    # symmetric: z[CONJ_PERM[i]] = conj(z[i])
    for x, real in (
        (real_unit("e_1^-1"), True),
        (complex_unit(1), False),  # e^-1(10) alone is not real
        (vec_add(complex_unit(1), complex_unit(2)), True),
    ):
        z = to_complex_basis(x)
        symmetric = all(z[so32.CONJ_PERM[i]].conj() == z[i] for i in range(DIM))
        assert symmetric == real


def test_grade_decompose():
    # the grades of an element are the support of its grade decomposition
    assert grades(real_unit("e^-2")) == {-2}
    assert grades(real_unit("E_1^0")) == {0}
    assert grades(vec_add(real_unit("e_1^-1"), real_unit("E^2"))) == {-1, 2}
    assert grades(vec_scale(0, real_unit("E^2"))) == set()


def test_killing_values():
    assert killing(real_unit("E_1^0"), real_unit("E_1^0")) == GQ(12)
    assert killing(real_unit("e^-2"), real_unit("e_1^-1")) == GQ(0)
    assert killing(real_unit("e^-2"), real_unit("E^2")) != GQ(0)


def test_killing_symmetric_and_graded():
    g = gram()
    assert g == g.transpose()
    for i in range(DIM):
        for j in range(DIM):
            if GRADES[i] + GRADES[j] != 0:
                assert g[i, j].is_zero()


def test_killing_ad_invariance():
    for x in BASIS:
        for y in BASIS:
            for z in BASIS:
                assert (killing(bracket_coords(x, y), z)
                        + killing(y, bracket_coords(x, z))).is_zero()


def test_killing_signature():
    assert symmetric_signature(gram()) == (6, 4, 0)


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
    assert rank(gram()) == DIM


def test_apply_J():
    assert apply_J(real_unit("e_1^-1")) == real_unit("e_2^-1")
    assert apply_J(apply_J(real_unit("e_1^0"))) == vec_scale(-1, real_unit("e_1^0"))
    x = vec_add(real_unit("E_1^1"), real_unit("e_2^-1"))
    assert apply_J(x) == vec_add(real_unit("E_2^1"),
                                 vec_scale(-1, real_unit("e_1^-1")))
    assert not any(apply_J(vec_add(real_unit("E^2"), real_unit("e^-2"))))


def test_filtration_chains():
    f, fs = ([coordinate_subspace(DIM, step) for step in filtration_steps(kind)]
             for kind in ("F", "F*"))
    assert [s.dim for s in f] == [10, 9, 7, 3, 1, 0]
    assert [s.dim for s in fs] == [10, 9, 7, 5, 3, 1, 0]
    assert len(fs) == len(f) + 1
    for chain in (f, fs):
        for big, small in zip(chain, chain[1:]):
            assert all(big.contains(v) for v in small.basis_vectors())
            assert big.dim > small.dim
    # V_0 / V_(0|0) has dimension 2 (a copy of m^0)
    assert fs[2].dim - fs[3].dim == 2


def test_graded_layout_tables():
    # every index set is derived from GRADES, IN_H and CONJ_PERM; pin the
    # derived tables against the layout written out by hand
    assert so32.GRADE_INDICES == {
        -2: (0,), -1: (1, 2), 0: (3, 4, 5, 6), 1: (7, 8), 2: (9,)}
    assert list(so32.GRADE_DIMS.items()) == [
        (-2, 1), (-1, 2), (0, 4), (1, 2), (2, 1)]
    assert LEVELS == (0, 1, 1, 2, 2, 3, 3, 4, 4, 5)
    assert so32.M_MINUS == (0, 1, 2)
    assert so32._J_IMAGE == {1: (2, 1), 2: (1, -1), 3: (4, 1), 4: (3, -1),
                             5: (6, 1), 6: (5, -1), 7: (8, 1), 8: (7, -1)}
    assert filtration_steps("F*", (0, 1, 2, 3, 4, 5, 6)) == [
        (0, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), (3, 4, 5, 6), (5, 6),
        (), (), ()]
    with pytest.raises(ValueError, match="kind must be 'F' or 'F\\*'"):
        filtration_steps("G")
    # X^(10) = (X_1 - i X_2)/2 and X^(01) = (X_1 + i X_2)/2 on each pair
    half, half_i = GQ(Fraction(1, 2)), GQ(0, Fraction(1, 2))
    for lo, hi in ((1, 2), (3, 4), (5, 6), (7, 8)):
        col10, col01 = complex_unit(lo), complex_unit(hi)
        assert (col10[lo], col10[hi], col01[lo], col01[hi]) == (
            half, -half_i, half, half_i)
        assert sum(1 for c in col10 + col01 if c) == 4
    for i in (0, 9):
        assert complex_unit(i) == unit_vec(DIM, i)


def test_j_is_i_on_the_holomorphic_basis():
    # J acts as multiplication by i on each X^(10) and by -i on each X^(01)
    for z in (1, 3, 5, 7):
        x = complex_unit(z)
        assert apply_J(x) == vec_scale(I, x)
        y = complex_unit(so32.CONJ_PERM[z])
        assert apply_J(y) == vec_scale(-I, y)
