import random
from fractions import Fraction
from math import gcd

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from oracles import coordinate_subspace, intersect, span_sum, unflatten
from so32cr import linalg
from so32cr.scalars import GQ, over_common_denominator, unit_vec, vec
from so32cr.linalg import (
    NO_SOLUTION,
    Matrix,
    Subspace,
    kernel,
    rank,
    rref,
    solution_map,
    solve,
)

I = GQ(0, 1)


def dense_rows(m):
    return [m.row(i) for i in range(m.nrows)]


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(2)).dim == 0


def test_kernel_hand_eliminated():
    # [[1, i], [-i, 1]] has rank 1; kernel spanned by (-i, 1).
    m = Matrix([[1, I], [-I, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert k.contains(vec([-I, 1]))
    for row in dense_rows(m):
        assert sum(
            (a * b for a, b in zip(row, vec([-I, 1]))), GQ(0)
        ).is_zero()


def test_kernel_zero_matrix_full():
    assert kernel(Matrix.from_entries(3, 3, ())).dim == 3


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        a = Matrix(
            [
                [GQ(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(n)]
                for _ in range(m)
            ]
        )
        assert rank(a) + kernel(a).dim == n


def test_solve_identity():
    x, ker = solve(Matrix.identity(3), vec([1, I, GQ(0, -2)]))
    assert x == vec([1, I, GQ(0, -2)])
    assert ker.dim == 0


def test_solve_underdetermined():
    a = Matrix([[1, 1]])
    res = solve(a, vec([2]))
    assert res is not NO_SOLUTION
    x, ker = res
    assert a.apply(x) == vec([2])
    assert x == vec([2, 0])
    assert ker.dim == 1 and ker.contains(vec([1, -1]))


def test_solve_inconsistent():
    a = Matrix([[1], [0]])
    assert solve(a, vec([0, 1])) is NO_SOLUTION


def test_subspace_canonical_equality():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n + 1)
        base = [
            [GQ(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(n)]
            for _ in range(k)
        ]
        s1 = Subspace(n, base)
        # random invertible recombination of the same spanning set
        mixed = []
        for _ in range(k + 2):
            w = [GQ(0)] * n
            for row in base:
                c = GQ(rng.randrange(-2, 3), rng.randrange(-2, 3))
                w = [a + c * b for a, b in zip(w, row)]
            mixed.append(w)
        s2 = Subspace(n, mixed)
        assert s2.dim <= s1.dim
        if s2.dim == s1.dim:
            assert s1 == s2
            assert s1.basis == s2.basis


def test_coordinate_subspace_is_canonical():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(1, 9)
        positions = [rng.randrange(n) for _ in range(rng.randrange(n + 1))]
        assert coordinate_subspace(n, positions) == Subspace(
            n, [unit_vec(n, p) for p in positions]
        )
    with pytest.raises(ValueError, match="coordinate position outside"):
        coordinate_subspace(3, [3])
    with pytest.raises(ValueError, match="coordinate position outside"):
        coordinate_subspace(3, [-1, 0])


def test_lattice_basics():
    e1, e2, e3 = (unit_vec(3, i) for i in range(3))
    a = Subspace(3, [e1])
    b = Subspace(3, [e2])
    assert intersect(a, b).dim == 0
    assert intersect(a, a) == a
    c = Subspace(3, [e1, e2])
    d = Subspace(3, [e2, e3])
    assert intersect(c, d) == Subspace(3, [e2])


def test_dimension_formula_randomized():
    # dim A + dim B == dim(A+B) + dim(A∩B), 500 pairs, ambient dim <= 12
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randrange(1, 13)
        def rand_space():
            k = rng.randrange(0, n + 1)
            return Subspace(
                n,
                [
                    [GQ(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n)]
                    for _ in range(k)
                ],
            )
        a, b = rand_space(), rand_space()
        s = span_sum(a, b)
        i = intersect(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        for big, small in ((s, a), (s, b), (a, i), (b, i)):
            assert all(big.contains(v) for v in small.basis_vectors())


def test_matrix_equality_ignores_how_it_was_built():
    # explicit zeros or omitted ones, rows or columns, entries that cancel,
    # a double transpose: one matrix, one hash
    rows = [[0, 2, 0, 0], [0, 0, 0, 0], [I, 0, 0, GQ(1, -1)]]
    m = Matrix(rows)
    built = [
        Matrix([[GQ.of(x) for x in r] for r in rows]),
        Matrix.from_entries(3, 4, [(0, 1, 2), (2, 0, I), (2, 3, GQ(1, -1)),
                                   (1, 2, 0)]),
        Matrix.from_entries(3, 4, [(0, 1, 3), (0, 1, -1), (1, 1, 5),
                                   (1, 1, -5), (2, 0, I), (2, 3, GQ(1, -1))]),
        Matrix.from_columns([[r[j] for r in rows] for j in range(4)]),
        m.transpose().transpose(),
        m + Matrix.from_entries(3, 4, ()),
        m - Matrix(rows) + m,
        m.scale(I).scale(-I),
    ]
    for other in built:
        assert other == m and hash(other) == hash(m)
        assert dense_rows(other) == dense_rows(m)
    square = Matrix([[0, 2, 0], [0, 0, 0], [I, 0, 0]])
    assert unflatten(square.flatten(), 3) == square
    assert m != Matrix(rows[:2] + [[I, 0, 0, 1]])
    assert Matrix.from_entries(2, 3, ()) != Matrix.from_entries(2, 4, ())
    assert m[2, 3] == GQ(1, -1) and m[1, 3] == 0
    for bad in ((3, 0), (0, 4), (-1, 0)):
        with pytest.raises(IndexError, match="entry outside the matrix"):
            Matrix.from_entries(3, 4, [(*bad, 1)])
    with pytest.raises(IndexError, match="tuple index out of range"):
        m[0, 4]


def test_rref_idempotent_and_inverse():
    m = Matrix([[2, I], [1, 1], [GQ(0, -1), 3]])
    r, piv = rref(m)
    assert rref(r)[0] == r
    sq = Matrix([[1, I], [0, 2]])
    # the solution map of a square matrix of full rank is its inverse
    assert sq @ solution_map(sq) == Matrix.identity(2)


# -- differential oracle: sympy's DomainMatrix over QQ_I ---------------------

def to_qq_i(x: GQ):
    d, (a,), (b,) = over_common_denominator([x])
    return QQ_I(QQ(a, d), QQ(b, d))


def _to_sympy(rows, ncols) -> DomainMatrix:
    return DomainMatrix(
        [[to_qq_i(x) for x in r] for r in rows],
        (len(rows), ncols), QQ_I)


def _from_sympy(x) -> GQ:
    return GQ(Fraction(int(x.x.numerator), int(x.x.denominator)),
              Fraction(int(x.y.numerator), int(x.y.denominator)))


def _random_matrix(rng) -> Matrix:
    """A Gaussian-integer matrix up to 6 x 7; a third of them are products
    through a smaller inner dimension, so deficient ranks are common, and a
    third are sparse draws at the density the engine runs at (5-25 %
    nonzero), half of those with a zeroed row or column."""
    m, n = rng.randrange(1, 7), rng.randrange(1, 8)

    def entries(r, c):
        return Matrix([[GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
                        for _ in range(c)] for _ in range(r)], ncols=c)

    kind = rng.randrange(3)
    if kind == 0:
        inner = rng.randrange(1, min(m, n) + 1)
        return entries(m, inner) @ entries(inner, n)
    if kind == 1:
        density = rng.uniform(0.05, 0.25)
        rows = [[GQ(rng.randint(1, 3) * rng.choice((1, -1)), rng.randrange(-3, 4))
                 if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        if rng.randrange(2):
            if rng.randrange(2):
                rows[rng.randrange(m)] = [0] * n
            else:
                zero_col = rng.randrange(n)
                for row in rows:
                    row[zero_col] = 0
        return Matrix(rows, ncols=n)
    return entries(m, n)


def test_rref_kernel_solve_match_sympy():
    rng = random.Random(1968)
    for _ in range(150):
        a = _random_matrix(rng)
        sa = _to_sympy(dense_rows(a), a.ncols)
        r, pivots = rref(a)
        sr, spivots = sa.rref()
        assert pivots == tuple(spivots)
        assert dense_rows(r) == [tuple(_from_sympy(x) for x in row)
                                 for row in sr.to_list()]
        ker = kernel(a)
        assert ker == Subspace(a.ncols, [[_from_sympy(x) for x in row]
                                         for row in sa.nullspace().to_list()])
        if rng.randrange(2):  # a right-hand side inside the column space
            b = a.apply(vec([rng.randrange(-3, 4) for _ in range(a.ncols)]))
        else:
            b = vec([GQ(rng.randrange(-3, 4), rng.randrange(-3, 4))
                     for _ in range(a.nrows)])
        aug = _to_sympy([row + (bi,) for row, bi in zip(dense_rows(a), b)],
                        a.ncols + 1)
        res = solve(a, b)
        assert (res is not NO_SOLUTION) == (aug.rank() == sa.rank())
        if res is not NO_SOLUTION:
            x, solved_ker = res
            assert a.apply(x) == b
            assert solved_ker == ker


# the coefficient heights of normalize-stream's ops: small integers, three-
# digit rationals, and 30-digit numerators over 20-digit denominators
_HEIGHTS = (
    lambda rng: Fraction(rng.randint(-3, 3)),
    lambda rng: Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 10**3)),
    lambda rng: Fraction(rng.randint(-10**30, 10**30),
                         rng.randint(1, 10**20)),
)


def _engine_height_matrix(rng) -> Matrix:
    """Up to 6 x 7 at one height or mixed ones; entries are non-real, so
    every pivot is, a third of the matrices are products through a smaller
    inner dimension (deficient ranks), and half have a zero row or
    column."""
    m, n = rng.randrange(1, 7), rng.randrange(1, 8)
    fixed = rng.choice(_HEIGHTS + (None,))

    def entry():
        q = fixed or rng.choice(_HEIGHTS)
        return GQ(q(rng), q(rng) or 1)

    if rng.randrange(3):
        rows = [[entry() if rng.random() < 0.6 else GQ(0) for _ in range(n)]
                for _ in range(m)]
    else:
        inner = rng.randrange(1, min(m, n) + 1)
        rows = dense_rows(Matrix([[entry() for _ in range(inner)]
                                  for _ in range(m)])
                          @ Matrix([[entry() for _ in range(n)]
                                    for _ in range(inner)]))
        rows = [list(r) for r in rows]
    if rng.randrange(2):
        if rng.randrange(2):
            rows[rng.randrange(m)] = [GQ(0)] * n
        else:
            zero_col = rng.randrange(n)
            for row in rows:
                row[zero_col] = GQ(0)
    return Matrix(rows, ncols=n)


def _canonical(x: GQ) -> bool:
    """d > 0 and gcd(a, b, d) = 1: equal, and hashing equal, to the value
    its text parses to."""
    text = GQ.from_str(x.to_str())
    return (x._d > 0 and gcd(x._a, x._b, x._d) == 1 and x == text
            and hash(x) == hash(text))


def test_rref_and_kernel_at_engine_heights_match_sympy(monkeypatch):
    # rref keeps every entry in lowest terms while it eliminates: each
    # triple it hands to _gq for the returned matrix is already reduced
    unreduced = []
    original = linalg._gq

    def checked(a, b, d):
        if d <= 0 or gcd(a, b, d) != 1:
            unreduced.append((a, b, d))
        return original(a, b, d)

    monkeypatch.setattr(linalg, "_gq", checked)
    rng = random.Random(1931)
    for _ in range(60):
        a = _engine_height_matrix(rng)
        sa = _to_sympy(dense_rows(a), a.ncols)
        r, pivots = rref(a)
        sr, spivots = sa.rref()
        assert pivots == tuple(spivots)
        assert dense_rows(r) == [tuple(_from_sympy(x) for x in row)
                                 for row in sr.to_list()]
        ker = kernel(a)
        null = sa.nullspace()
        expected = null.rref()[0].to_list() if null.shape[0] else []
        assert ker.basis_vectors() == [tuple(_from_sympy(x) for x in row)
                                       for row in expected]
        assert all(_canonical(x) for _, _, x in r._entries())
        assert all(_canonical(x) for v in ker.basis_vectors() for x in v)
    assert unreduced == []


def test_apply_matches_sympy():
    # shapes down to 0 x n and m x 0, zero rows, the zero vector, and
    # entries of one height or of mixed heights (so mixed denominators), up
    # to 30-digit numerators over 20-digit denominators
    rng = random.Random(1979)
    heights = (
        lambda: Fraction(rng.randint(-3, 3)),
        lambda: Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
        lambda: Fraction(rng.randint(-10**30, 10**30),
                         rng.randint(10**19, 10**20)),
    )
    for trial in range(300):
        m, n = rng.randrange(6), rng.randrange(7)
        fixed = rng.choice(heights) if trial % 2 else None

        def entry(density):
            if rng.random() >= density:
                return GQ(0)
            q = fixed or rng.choice(heights)
            return GQ(q(), q() if rng.randrange(3) else 0)

        density = rng.uniform(0.1, 1)
        rows = [[entry(density) for _ in range(n)] for _ in range(m)]
        if m and rng.randrange(2):
            rows[rng.randrange(m)] = [GQ(0)] * n
        a = Matrix(rows, ncols=n)
        v = vec([entry(0 if trial % 5 == 0 else rng.uniform(0.3, 1))
                 for _ in range(n)])
        built, h = Matrix(rows, ncols=n), hash(a)
        out = a.apply(v)
        expected = (_to_sympy(dense_rows(a), n)
                    * _to_sympy([[x] for x in v], 1)).to_list()
        assert out == tuple(_from_sympy(x) for (x,) in expected)
        assert a.apply(v) == out
        assert a == built and hash(a) == h == hash(built)
        with pytest.raises(ValueError, match="shape mismatch in apply"):
            a.apply(v + (GQ(1),))


def _count_rref(monkeypatch):
    calls = []
    original = linalg.rref

    def counted(m):
        calls.append((m.nrows, m.ncols))
        return original(m)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def test_solve_eliminates_once(monkeypatch):
    calls = _count_rref(monkeypatch)
    x, ker = solve(Matrix([[1, 2], [3, I]]), vec([1, 0]))
    assert ker.dim == 0 and len(calls) == 1
    calls.clear()
    # one elimination of [A | b], one canonical form of the kernel
    x, ker = solve(Matrix([[1, 1]]), vec([2]))
    assert ker.dim == 1 and len(calls) == 2


def test_solution_map_matches_solve():
    rng = random.Random(2024)
    tried = 0
    while tried < 60:
        a = _random_matrix(rng)
        if rank(a) < a.nrows:
            with pytest.raises(ArithmeticError, match="dependent rows"):
                solution_map(a)
            continue
        tried += 1
        x_map = solution_map(a)
        for _ in range(3):
            b = vec([GQ(rng.randrange(-9, 10), rng.randrange(-9, 10))
                     for _ in range(a.nrows)])
            x, _ = solve(a, b)
            assert x_map.apply(b) == x
    with pytest.raises(ArithmeticError, match="the reason given"):
        solution_map(Matrix([[1, I], [I, -1]]), "the reason given")


def test_malformed_input_is_named():
    square = Matrix([[1, I], [0, 2]])
    wide = Matrix([[1, 0, I]])
    with pytest.raises(ValueError, match="ragged matrix"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="vector length is not n"):
        unflatten(vec([1, 2, 3]), 2)
    with pytest.raises(ValueError, match="shape mismatch in matrix sum"):
        square + wide
    with pytest.raises(ValueError, match="shape mismatch in matmul"):
        wide @ square
    with pytest.raises(ValueError, match="shape mismatch in solve"):
        solve(square, vec([1]))
    with pytest.raises(ValueError, match="vector length != ambient dimension"):
        Subspace(3, [[1, 2]])
    plane = Subspace(3, [unit_vec(3, 0), unit_vec(3, 1)])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        plane.contains(unit_vec(2, 0))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        intersect(plane, Subspace(2, [unit_vec(2, 0)]))


def test_matrices_and_subspaces_are_immutable():
    m = Matrix([[1, I]])
    s = Subspace(2, [[1, I]])
    with pytest.raises(AttributeError, match="Matrix is immutable"):
        m.rows = ()
    with pytest.raises(AttributeError, match="Subspace is immutable"):
        s.rows = ()
    assert m == Matrix([[1, I]]) and s == Subspace(2, [[1, I]])
