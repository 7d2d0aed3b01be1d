"""Dense exact linear algebra over Q[i].

Everything is built on one primitive, Gauss-Jordan reduction with exact
scalars (no pivot strategy is needed because nothing rounds).  Subspaces are
kept in a canonical form -- the reduced column echelon basis, equivalently
the reduced row echelon form of the row span -- so that two subspaces are
equal iff their stored bases are structurally equal.
"""

from __future__ import annotations

from .scalars import GQ, ZERO

Vector = tuple  # tuple of GQ


def vec(entries) -> Vector:
    # most rows are already GQ (built by rref, @, apply): no call for those
    return tuple(x if type(x) is GQ else GQ.of(x) for x in entries)


def zero_vec(n: int) -> Vector:
    return tuple(GQ(0) for _ in range(n))


def unit_vec(n: int, i: int) -> Vector:
    return tuple(GQ(1) if j == i else GQ(0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Vector) -> Vector:
    c = GQ.of(c)
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a.is_zero() for a in v)


class Matrix:
    """Immutable dense matrix over GQ, stored as a tuple of row tuples."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = tuple(vec(r) for r in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(m: int, n: int) -> "Matrix":
        return Matrix([zero_vec(n) for _ in range(m)], ncols=n)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([unit_vec(n, i) for i in range(n)], ncols=n)

    @staticmethod
    def from_columns(cols, nrows=None) -> "Matrix":
        cols = [vec(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return Matrix(
            [tuple(c[i] for c in cols) for i in range(nrows)],
            ncols=len(cols),
        )

    @staticmethod
    def unflatten(v, n: int) -> "Matrix":
        """The n x n matrix whose row-major entries are v (inverse of flatten)."""
        v = vec(v)
        if len(v) != n * n:
            raise ValueError("vector length is not n*n")
        return Matrix([v[r * n: (r + 1) * n] for r in range(n)], ncols=n)

    def flatten(self) -> Vector:
        """Row-major entries, the vectorization under which spaces of
        endomorphisms are kept as subspaces."""
        return tuple(x for r in self.rows for x in r)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(
            [self.col(j) for j in range(self.ncols)], ncols=self.nrows
        )

    def conj(self) -> "Matrix":
        return Matrix([[x.conj() for x in r] for r in self.rows], ncols=self.ncols)

    def __add__(self, other):
        return Matrix(
            [vec_add(r, s) for r, s in zip(self.rows, other.rows, strict=True)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return Matrix(
            [vec_sub(r, s) for r, s in zip(self.rows, other.rows, strict=True)],
            ncols=self.ncols,
        )

    def scale(self, c) -> "Matrix":
        return Matrix([vec_scale(c, r) for r in self.rows], ncols=self.ncols)

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        ocols = other.columns()
        return Matrix(
            [
                tuple(
                    sum((a * b for a, b in zip(r, c) if a and b), GQ(0))
                    for c in ocols
                )
                for r in self.rows
            ],
            ncols=other.ncols,
        )

    def apply(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError("shape mismatch in apply")
        return tuple(
            sum((a * b for a, b in zip(r, v) if a and b), GQ(0))
            for r in self.rows
        )

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)

    def trace(self) -> GQ:
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), GQ(0))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(x.to_str() for x in r) for r in self.rows
        )
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  Leading entries are 1, pivot columns are
    cleared above and below, zero rows sink to the bottom.
    """
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot_row = None
        for i in range(pr, nr):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        if piv != 1:
            inv = piv.inverse()
            rows[pr] = [inv * x for x in rows[pr]]
        for i in range(nr):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return Matrix(rows, ncols=nc), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def real_rows(m: Matrix) -> Matrix:
    """The rational matrix with the real and the imaginary part of each row
    of m: its real kernel vectors are the real solutions of m x = 0."""
    rows = []
    for r in m.rows:
        rows.append([GQ(x.re) for x in r])
        rows.append([GQ(x.im) for x in r])
    return Matrix(rows, ncols=m.ncols)


class Subspace:
    """A linear subspace of GQ^n in canonical echelon form.

    The stored ``rows`` are the reduced-row-echelon basis of the row span of
    whatever spanning set was given; the ``basis`` matrix (columns = basis
    vectors) is therefore in reduced column echelon form with leading
    entries 1, and structural equality decides subspace equality.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, spanning_vectors=()):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        vs = [vec(v) for v in spanning_vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if vs:
            r, piv = rref(Matrix(vs, ncols=ambient_dim))
            rows = tuple(r.rows[i] for i in range(len(piv)))
        else:
            rows = ()
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace.coordinate(n, range(n))

    @staticmethod
    def coordinate(n: int, positions) -> "Subspace":
        """The span of the unit vectors at the given positions; sorted unit
        rows are already in canonical form, so no elimination runs."""
        positions = sorted(set(positions))
        if positions and not 0 <= positions[0] <= positions[-1] < n:
            raise ValueError("coordinate position outside the ambient space")
        s = Subspace(n)
        object.__setattr__(s, "rows", tuple(unit_vec(n, p) for p in positions))
        return s

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """Canonical basis as matrix columns (reduced column echelon)."""
        return Matrix.from_columns(list(self.rows), nrows=self.ambient_dim)

    def basis_vectors(self):
        return list(self.rows)

    def contains(self, v) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        v = list(v)
        for row in self.rows:
            lead = next(j for j, x in enumerate(row) if x)
            if v[lead]:
                c = v[lead]
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return all(x.is_zero() for x in v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.ambient_dim, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of [B1 | B2] (Zassenhaus-free version)."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = Matrix.from_columns(self.rows + other.rows,
                                      nrows=self.ambient_dim)
        b1 = self.basis
        return Subspace(self.ambient_dim, [
            b1.apply(k[: self.dim]) for k in kernel_basis(stacked)
        ])

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _null_vectors(r: Matrix, pivots, n: int):
    """Back substitution: the null space basis, one vector per free column
    among the first n columns of a reduced matrix r with the given pivots."""
    piv_set = set(pivots)
    free = [j for j in range(n) if j not in piv_set]
    basis = []
    for f in free:
        x = [GQ(0)] * n
        x[f] = GQ(1)
        for i, p in enumerate(pivots):
            x[p] = -r.rows[i][f]
        basis.append(tuple(x))
    return basis


def kernel_basis(m: Matrix):
    """Basis of the null space {x : m x = 0}, via back substitution on rref."""
    r, pivots = rref(m)
    return _null_vectors(r, pivots, m.ncols)


def kernel(m: Matrix) -> Subspace:
    """The exact null space as a canonical subspace of GQ^ncols."""
    return Subspace(m.ncols, kernel_basis(m))


class NoSolution:
    """The type of solve()'s marker value for inconsistent systems."""

    def __repr__(self):
        return "NoSolution"


NO_SOLUTION = NoSolution()


def solve(a: Matrix, b):
    """Solve a x = b exactly.

    Returns (particular_solution, kernel_subspace) or NO_SOLUTION when b is
    outside the column space.  Inconsistency is a value, not an error.  One
    elimination of [a | b] answers both: its left block is rref(a).
    """
    b = vec(b)
    if len(b) != a.nrows:
        raise ValueError("shape mismatch in solve")
    aug = Matrix([list(r) + [bi] for r, bi in zip(a.rows, b)], ncols=a.ncols + 1)
    r, pivots = rref(aug)
    if a.ncols in pivots:
        return NO_SOLUTION
    x = [GQ(0)] * a.ncols
    for i, p in enumerate(pivots):
        x[p] = r.rows[i][a.ncols]
    return tuple(x), Subspace(a.ncols, _null_vectors(r, pivots, a.ncols))


def solution_map(a: Matrix, why: str = "dependent rows") -> Matrix:
    """X with X b = solve(a, b)'s particular solution for every b: when a
    has full row rank, rref([a | b]) pivots inside a and ends in E b, for E
    the right block of one rref([a | I]).  ArithmeticError(why) otherwise."""
    n, m = a.nrows, a.ncols
    r, pivots = rref(Matrix([row + unit_vec(n, i)
                             for i, row in enumerate(a.rows)], ncols=m + n))
    if any(p >= m for p in pivots):
        raise ArithmeticError(why)
    pivot_rows = dict(zip(pivots, r.rows))
    return Matrix([pivot_rows[j][m:] if j in pivot_rows else zero_vec(n)
                   for j in range(m)], ncols=n)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    try:
        return solution_map(m)
    except ArithmeticError:
        raise ValueError("singular matrix") from None


def sparse_entries(m: Matrix) -> tuple:
    """(nrows, the nonzero entries of m as (i, j, m[i, j]))."""
    return m.nrows, tuple((i, j, x) for i, r in enumerate(m.rows)
                          for j, x in enumerate(r) if x)


def apply_entries(sparse, v) -> Vector:
    """m v from ``sparse_entries(m)``, skipping the zero entries of v."""
    nrows, entries = sparse
    out = [ZERO] * nrows
    for i, j, a in entries:
        if x := v[j]:
            out[i] = out[i] + a * x
    return tuple(out)
