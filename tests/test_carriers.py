import random

import pytest

from oracles import (complex_basis_matrix, complex_basis_matrix_inv,
                     filtration_steps, fstar_ladder, gl_graded_j, gl_semitone,
                     j_rows)
from so32cr.scalars import GQ, I
from so32cr.linalg import Matrix, Subspace, kernel
from so32cr.so32 import _J_IMAGE, CONJ_PERM, DIM, GRADES, IN_H, real_unit
from so32cr.carriers import (
    CARRIER_NAMES,
    STEP_CARRIERS,
    Carrier,
    endo_complex_matrix,
    endo_from_complex_images,
    gl_filtered,
    gl_graded,
)


def contains(endos, m):
    return endos.space.contains(m.flatten())


def includes(big, small):
    return all(big.contains(v) for v in small.basis_vectors())


def frame_freedom(c):
    # the degree-1* algebra of first-order frame changes I + B
    return gl_semitone(c, 1, star=True, j_compatible=True)


def test_graded_dimensions():
    assert gl_graded(Carrier("m"), 0).dim == 9
    assert gl_graded_j(Carrier("m"), 0).dim == 5
    assert gl_graded_j(Carrier("m+h0"), 1).dim == 8
    assert gl_graded(Carrier("m+h0+h1"), 2).dim == 8
    assert gl_graded(Carrier("m+h"), 3).dim == 4


def test_identity_in_gl0_not_gl1():
    for name in CARRIER_NAMES:
        c = Carrier(name)
        ident = Matrix.identity(c.dim)
        assert contains(gl_filtered(c, 0), ident)
        assert contains(gl_semitone(c, 0, star=True), ident)
        assert not contains(gl_filtered(c, 1), ident)


def test_j_condition_vacuous_for_degree_two_and_up():
    for name in CARRIER_NAMES:
        c = Carrier(name)
        for k in (2, 3, 4):
            assert gl_graded_j(c, k).space == gl_graded(c, k).space
            assert (
                gl_semitone(c, k, star=True, j_compatible=True).space
                == gl_semitone(c, k, star=True, j_compatible=False).space
            )


def test_star_equals_plain_on_m():
    m = Carrier("m")
    plain = gl_semitone(m, 1, star=False, j_compatible=True)
    star = gl_semitone(m, 1, star=True, j_compatible=True)
    assert plain.space == star.space and plain.dim == star.dim == 6


def test_star_differs_on_m_h0():
    c = Carrier("m+h0")
    plain = gl_semitone(c, 1, star=False, j_compatible=True)
    star = gl_semitone(c, 1, star=True, j_compatible=True)
    assert includes(star.space, plain.space)
    assert star.dim - plain.dim == 4


def test_endo_filtration_chain():
    for name in CARRIER_NAMES:
        c = Carrier(name)
        for k in range(0, 5):
            assert includes(gl_filtered(c, k).space,
                            gl_filtered(c, k + 1).space)
        assert gl_filtered(c, 5).dim == 0


def test_endo_bracket_degree_additivity():
    rng = random.Random(3)
    for name in ("m", "m+h"):
        c = Carrier(name)
        for k, l in [(0, 1), (1, 1), (1, 2), (2, 2)]:
            ek = gl_filtered(c, k).basis_endos()
            el = gl_filtered(c, l).basis_endos()
            if not ek or not el:
                continue
            for _ in range(6):
                a = ek[rng.randrange(len(ek))]
                b = el[rng.randrange(len(el))]
                comm = a @ b - b @ a
                assert contains(gl_filtered(c, min(k + l, 5)), comm)


def test_ad_of_h_restricts_to_graded():
    cases = [
        ("E_1^0", 0, "m"), ("E_2^0", 0, "m"),
        ("E_1^1", 1, "m+h0"), ("E_2^1", 1, "m+h0"),
        ("E^2", 2, "m+h0+h1"),
    ]
    for label, k, cname in cases:
        c = Carrier(cname)
        assert contains(gl_graded_j(c, k), c.ad_action(real_unit(label)))


def test_frame_freedom_on_m_is_gl1():
    m = Carrier("m")
    assert frame_freedom(m).space == gl_semitone(m, 1, j_compatible=True).space


def test_frame_freedom_first_order_closure():
    rng = random.Random(11)
    for name in CARRIER_NAMES:
        c = Carrier(name)
        ff = frame_freedom(c)
        basis = ff.basis_endos()
        ident = Matrix.identity(c.dim)
        for _ in range(5):
            b1 = Matrix.from_entries(c.dim, c.dim, ())
            b2 = Matrix.from_entries(c.dim, c.dim, ())
            for e in basis:
                b1 = b1 + e.scale(GQ(rng.randrange(-2, 3)))
                b2 = b2 + e.scale(GQ(rng.randrange(-2, 3)))
            prod = (ident + b1) @ (ident + b2) - ident
            assert contains(ff, prod)
        # B = 0: identity change
        assert contains(ff, Matrix.from_entries(c.dim, c.dim, ()))


def test_frame_freedom_fixes_graded_projections():
    # I + B agrees with the identity on every semitone quotient
    for name in CARRIER_NAMES:
        c = Carrier(name)
        ladder = fstar_ladder(c)
        for b in frame_freedom(c).basis_endos():
            for lvl in range(len(ladder) - 1):
                level, below = set(ladder[lvl]), set(ladder[lvl + 1])
                for col in level - below:
                    img = b.col(col)
                    assert all(
                        img[r].is_zero() for r in level - below
                    ), (name, lvl)


def test_endo_from_complex_images_reality():
    c = Carrier("m+h0")
    b = endo_from_complex_images(
        c, {"e^-2": [(GQ(0, 1), "e^-1(10)"), (GQ(0, -1), "e^-1(01)")]}
    )
    z = endo_complex_matrix(c, b)
    assert z[1, 0] == GQ(0, 1) and z[2, 0] == GQ(0, -1)
    # round trip through complex coordinates is consistent
    assert all(b[r, col].is_real() for r in range(7) for col in range(7))


def leading_blocks(n):
    """The leading n x n blocks of the 10x10 basis change and its inverse."""
    return tuple(Matrix([m.row(r)[:n] for r in range(n)])
                 for m in (complex_basis_matrix(), complex_basis_matrix_inv()))


def test_complex_coordinates_use_the_leading_blocks_of_the_basis_change():
    # the pair rule on a carrier's n coordinates acts as the leading blocks
    rng = random.Random(11)
    for name in CARRIER_NAMES:
        c = Carrier(name)
        n = c.dim
        lead, lead_inv = leading_blocks(n)
        b = Matrix([[GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
                     for _ in range(n)] for _ in range(n)])
        assert endo_complex_matrix(c, b) == lead_inv @ b @ lead, name
    # e^-2 -> i e^-1(10) - i e^-1(01) on m, in complex coordinates
    lead, lead_inv = leading_blocks(5)
    mz = Matrix.from_entries(5, 5, [(1, 0, I), (2, 0, -I)])
    assert endo_from_complex_images(
        Carrier("m"), {"e^-2": [(I, "e^-1(10)"), (-I, "e^-1(01)")]}
    ) == lead @ mz @ lead_inv


def test_each_carrier_is_a_leading_block_of_the_basis():
    # the kept basis vectors are the first dim ones, no conjugate pair and
    # no J pair straddles dim, and the quotient action of ad(x) is the
    # leading block of the one on m+h
    rng = random.Random(5)
    full = Carrier("m+h")
    for step, name in STEP_CARRIERS.items():
        c = Carrier(name)
        n = c.dim
        kept = [i for i in range(DIM) if not IN_H[i] or GRADES[i] <= step - 1]
        assert kept == list(range(n)), name
        j_pairs = [(i, j) for i, (j, _) in _J_IMAGE.items()]
        for i, j in [*enumerate(CONJ_PERM), *j_pairs]:
            assert (i < n) == (j < n), (name, i, j)
        for _ in range(3):
            x = [GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
                 for _ in range(DIM)]
            lead = full.ad_action(x)
            assert c.ad_action(x) == Matrix(
                [lead.row(r)[:n] for r in range(n)]), name


def test_carrier_errors_are_named():
    with pytest.raises(ValueError, match="unknown carrier 'h'"):
        Carrier("h")
    m = Carrier("m")
    for gl in (gl_filtered, gl_graded):
        with pytest.raises(ValueError,
                           match="only nonnegative degrees are defined here"):
            gl(m, -1)
    with pytest.raises(ValueError,
                       match="images do not define a real endomorphism"):
        endo_from_complex_images(m, {"e^-2": [(I, "e^-2")]})
    with pytest.raises(ValueError, match="image leaves the carrier"):
        endo_from_complex_images(m, {"e^-2": [(1, "E^0(10)")]})


# -- reference formulation: unit rows for every entry outside the pattern
# plus the J rows, then one kernel of the full n^2-column matrix ------------

def _reference_space(c, allowed, j_domain):
    n = c.dim
    rows = []
    for r in range(n):
        for col in range(n):
            if (r, col) not in allowed:
                row = [GQ(0)] * (n * n)
                row[r * n + col] = GQ(1)
                rows.append(row)
    if j_domain:
        j = j_rows(c, j_domain, range(n * n))
        rows += [j.row(i) for i in range(j.nrows)]
    if not rows:
        return Subspace.coordinate(n * n, range(n * n))
    return kernel(Matrix(rows, ncols=n * n))


def _reference_filtered(c, k, star, j):
    n = c.dim
    allowed = {(r, col) for r in range(n) for col in range(n)}

    def restrict(domain, target):
        allowed.difference_update(
            (r, col) for col in domain for r in range(n) if r not in target
        )

    if not star:
        chain = filtration_steps("F", range(c.dim))
        for t in range(5):
            restrict(chain[t], chain[min(t + k, 5)])
    else:
        ladder = fstar_ladder(c)
        pos = {-2: 0, -1: 1, 0: 2, 1: 4, 2: 5}

        def ladder_pos(m):
            return pos.get(m, 6 if m > 2 else 0)

        restrict(ladder[0], ladder[ladder_pos(-2 + k)])
        restrict(ladder[1], ladder[ladder_pos(-1 + k)])
        for t in range(4):
            restrict(ladder[2 + t], ladder[min(2 + t + k, 6)])
    return _reference_space(c, allowed, fstar_ladder(c)[1] if j else ())


def _reference_graded(c, k, j):
    n = c.dim
    allowed = {(r, col) for r in range(n) for col in range(n)
               if c.grades[r] == c.grades[col] + k}
    domain = [p for p in range(c.dim) if p in (1, 2, 3, 4)]
    return _reference_space(c, allowed, domain if j else ())


def test_filtered_spaces_match_kernel_reference():
    # the engine's plain gl_k, and the oracle's four variants of it
    for name in CARRIER_NAMES:
        c = Carrier(name)
        for k in range(6):
            assert gl_filtered(c, k).space == _reference_filtered(
                c, k, False, False), (name, k)
            for star in (False, True):
                for j in (False, True):
                    assert gl_semitone(c, k, star, j).space == (
                        _reference_filtered(c, k, star, j)
                    ), (name, k, star, j)


def test_graded_spaces_match_kernel_reference():
    # the engine's plain gl_k^gr, and the oracle's J-compatible one
    for name in CARRIER_NAMES:
        c = Carrier(name)
        for k in range(4):
            assert gl_graded(c, k).space == _reference_graded(
                c, k, False), (name, k)
            assert gl_graded_j(c, k).space == _reference_graded(
                c, k, True), (name, k)
