"""Exact sparse linear algebra over Q[i].

Everything is built on one primitive, Gauss-Jordan reduction with exact
scalars (no pivot strategy is needed because nothing rounds) on the nonzero
entries of each row, written out on the ints (a, b, d) of each entry with
one gcd per result: every entry stays in lowest terms, so this is not
fraction-free elimination.  Subspaces are kept in a canonical form -- the
reduced column echelon basis, equivalently the reduced row echelon form of
the row span -- so that two subspaces are equal iff their stored bases are
structurally equal.  ``Matrix.apply`` works block by block: a block is a
connected component of the graph joining each row to its columns, each
block's part of the vector goes over its own common denominator (an all-zero
part is skipped), and each nonzero output costs one gcd against the
denominators of its own block only.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .scalars import GQ, ONE, ZERO, _gq, over_common_denominator, vec

Vector = tuple  # tuple of GQ


def _row(pairs) -> tuple:
    """(column, value) pairs as a sparse row: ascending columns, no zeros."""
    return tuple(sorted((j, x) for j, x in pairs if x))


_set = object.__setattr__


class Matrix:
    """Immutable sparse matrix over GQ: ``rows[i]`` is row i's sparse row,
    its nonzero entries as (column, value) pairs in ascending column order,
    so equal matrices have equal rows.  The constructor takes dense rows;
    ``row``, ``columns`` and ``flatten`` return dense vectors.  ``apply``
    keeps an integer form (== and hash ignore it), built on its first call:
    the matrix's blocks, each with its columns, its own common denominator
    L and, per row, the numerators over L with the columns indexed within
    the block (see ``_integer_form``)."""

    __slots__ = ("rows", "nrows", "ncols", "_integer")

    def __init__(self, rows, ncols=None):
        rows = [vec(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
        _set(self, "rows", tuple(tuple(p for p in enumerate(r)
                                       if p[1]._a or p[1]._b) for r in rows))
        _set(self, "nrows", len(rows))
        _set(self, "ncols", ncols or 0)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _of(rows: tuple, ncols: int) -> "Matrix":
        """The matrix with the given sparse rows, which must be canonical."""
        m = object.__new__(Matrix)
        _set(m, "rows", rows)
        _set(m, "nrows", len(rows))
        _set(m, "ncols", ncols)
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(tuple(((i, ONE),) for i in range(n)), n)

    @staticmethod
    def from_columns(cols, nrows=None) -> "Matrix":
        return Matrix(cols, ncols=nrows).transpose()

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries) -> "Matrix":
        """The matrix whose (i, j) entry is the sum of the values x of the
        given triples (i, j, x); a triple outside the shape is an error."""
        rows = [{} for _ in range(nrows)]
        for i, j, x in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError("entry outside the matrix")
            r = rows[i]
            r[j] = r[j] + x if j in r else GQ.of(x)
        return Matrix._of(tuple(_row(r.items()) for r in rows), ncols)

    def flatten(self) -> Vector:
        """Row-major entries, the vectorization under which spaces of
        endomorphisms are kept as subspaces."""
        return tuple(x for i in range(self.nrows) for x in self.row(i))

    def __getitem__(self, ij):
        i, j = ij
        return self.row(i)[j]

    def _entries(self):
        return ((i, j, x) for i, r in enumerate(self.rows) for j, x in r)

    def row(self, i: int) -> Vector:
        out = [ZERO] * self.ncols
        for j, x in self.rows[i]:
            out[j] = x
        return tuple(out)

    def columns(self):
        t = self.transpose()
        return [t.row(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        cols = [[] for _ in range(self.ncols)]
        for i, j, x in self._entries():
            cols[j].append((i, x))
        return Matrix._of(tuple(map(tuple, cols)), self.nrows)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix.from_entries(self.nrows, self.ncols,
                                   chain(self._entries(), other._entries()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        c = GQ.of(c)
        return Matrix._of(tuple(_row((j, c * x) for j, x in r)
                                for r in self.rows), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        return Matrix.from_entries(self.nrows, other.ncols, (
            (i, j, a * b) for i, k, a in self._entries()
            for j, b in other.rows[k]))

    def apply(self, v: Vector) -> Vector:
        """M v for v a vector of GQ, one block at a time: each block's part
        of v goes over its own common denominator, and a zero part is
        skipped, so each output's gcd sees no other block's denominators."""
        if self.ncols != len(v):
            raise ValueError("shape mismatch in apply")
        if getattr(self, "_integer", None) is None:
            _set(self, "_integer", _integer_form(self.rows))
        out = [ZERO] * self.nrows
        for cols, den, rows in self._integer:
            if any(part := [v[j] for j in cols]):
                dv, va, vb = over_common_denominator(part)
                dv *= den
                for i, real, imag in rows:
                    s = t = 0
                    for j, p in real:
                        s += p * va[j]
                        t += p * vb[j]
                    for j, q in imag:
                        s -= q * vb[j]
                        t += q * va[j]
                    if s or t:
                        out[i] = _gq(s, t, dv)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(x.to_str() for x in self.row(i)) for i in range(self.nrows)
        )
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def _integer_form(rows) -> list:
    """``Matrix.apply``'s form of sparse rows: per block, a connected
    component of the graph that joins each nonzero row to its columns,
    (columns, L, rows) with the block's columns ascending, L the lcm of its
    entries' denominators and, per row i, (i, real, imag), the (position in
    columns, numerator over L) pairs of the nonzero parts of its entries.
    One pass over the rows: a row's block absorbs every block it meets."""
    blocks = []  # [column set, row indices]
    for i, r in enumerate(rows):
        if r:
            block = [{j for j, _ in r}, [i]]
            for b in [b for b in blocks if not block[0].isdisjoint(b[0])]:
                blocks.remove(b)
                block = [block[0] | b[0], b[1] + block[1]]
            blocks.append(block)
    form = []
    for cols, members in blocks:
        at = {j: p for p, j in enumerate(sorted(cols))}
        den = lcm(*[x._d for i in members for _, x in rows[i]])
        form.append((list(at), den, [
            (i, [(at[j], x._a * (den // x._d)) for j, x in rows[i] if x._a],
             [(at[j], x._b * (den // x._d)) for j, x in rows[i] if x._b])
            for i in members]))
    return form


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  Leading entries are 1, pivot columns are
    cleared above and below, zero rows sink to the bottom.  The rows are
    eliminated as {column: (a, b, d)}, the ints of each GQ: the pivot
    inverse and each update x - f*y are written out on them and reduced by
    one gcd, so every entry stays in lowest terms (this is not fraction-free
    elimination), and GQs are built only for R.
    """
    rows = [{j: (x._a, x._b, x._d) for j, x in r} for r in m.rows]
    pivots = []
    for pc in range(m.ncols):
        pr = len(pivots)
        if pr == m.nrows:
            break
        for i in range(pr, m.nrows):
            if pc in rows[i]:
                break
        else:
            continue
        prow = rows[i]
        rows[i], rows[pr] = rows[pr], prow
        a, b, d = prow.pop(pc)
        if b or a != d:  # times the inverse d (a - b i)/(a^2 + b^2)
            n = a * a + b * b
            for j, (xa, xb, xd) in prow.items():
                xa, xb, xd = (d * (xa * a + xb * b), d * (xb * a - xa * b),
                              xd * n)
                g = gcd(xa, xb, xd)
                prow[j] = xa // g, xb // g, xd // g
        pitems = list(prow.items())
        prow[pc] = 1, 0, 1
        for i, r in enumerate(rows):
            if i != pr and (f := r.pop(pc, None)):
                fa, fb, fd = f
                for j, (ya, yb, yd) in pitems:  # r -= f * prow, no zero kept
                    xa, xb, xd = r.pop(j, (0, 0, 1))
                    yd *= fd
                    xa, xb = (xa * yd - xd * (fa * ya - fb * yb),
                              xb * yd - xd * (fa * yb + fb * ya))
                    if xa or xb:
                        xd *= yd
                        g = gcd(xa, xb, xd)
                        r[j] = xa // g, xb // g, xd // g
        pivots.append(pc)
    return Matrix._of(tuple([
        tuple([(j, _gq(*x)) for j, x in sorted(r.items())]) for r in rows
    ]), m.ncols), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def real_rows(m: Matrix) -> Matrix:
    """The rational matrix with the real and the imaginary part of each row
    of m: its real kernel vectors are the real solutions of m x = 0."""
    rows = []
    for r in m.rows:
        rows.append(tuple((j, x.re) for j, x in r if x.re_sign()))
        rows.append(tuple((j, x.im) for j, x in r if not x.is_real()))
    return Matrix._of(tuple(rows), m.ncols)


class Subspace:
    """A linear subspace of GQ^n in canonical echelon form.

    The stored ``rows`` are the sparse reduced-row-echelon basis of the row
    span of whatever spanning set was given; the ``basis`` matrix (columns
    = basis vectors) is therefore in reduced column echelon form with
    leading entries 1, and structural equality decides subspace equality.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, spanning_vectors=()):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        m = Matrix(spanning_vectors, ncols=ambient_dim)
        if m.ncols != ambient_dim:
            raise ValueError("vector length != ambient dimension")
        r, piv = rref(m) if m.nrows else (m, ())
        object.__setattr__(self, "rows", r.rows[: len(piv)])

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """Canonical basis as matrix columns (reduced column echelon)."""
        return Matrix._of(self.rows, self.ambient_dim).transpose()

    def basis_vectors(self):
        rows = Matrix._of(self.rows, self.ambient_dim)
        return [rows.row(i) for i in range(self.dim)]

    def contains(self, v) -> bool:
        v = list(vec(v))
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row in self.rows:
            # row[0] is the leading entry, 1 in the pivot column
            if c := v[row[0][0]]:
                for j, b in row:
                    v[j] = v[j] - c * b
        return not any(v)

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
    pivot_rows = [dict(row) for row in r.rows[: len(pivots)]]
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [ZERO] * n
        x[f] = ONE
        for p, row in zip(pivots, pivot_rows):
            if y := row.get(f):
                x[p] = -y
        basis.append(tuple(x))
    return basis


def kernel_basis(m: Matrix):
    """Basis of the null space {x : m x = 0}, via back substitution on rref."""
    return _null_vectors(*rref(m), m.ncols)


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
    n = a.ncols
    r, pivots = rref(Matrix._of(tuple(row + ((n, bi),) if bi else row
                                      for row, bi in zip(a.rows, b)), n + 1))
    if n in pivots:
        return NO_SOLUTION
    x = {p: row[-1][1] for row, p in zip(r.rows, pivots) if row[-1][0] == n}
    return (tuple(x.get(j, ZERO) for j in range(n)),
            Subspace(n, _null_vectors(r, pivots, n)))


def solution_map(a: Matrix, why: str = "dependent rows") -> Matrix:
    """X with X b = solve(a, b)'s particular solution for every b: when a
    has full row rank, rref([a | b]) pivots inside a and ends in E b, for E
    the right block of one rref([a | I]).  ArithmeticError(why) otherwise."""
    n, m = a.nrows, a.ncols
    r, pivots = rref(Matrix._of(tuple(row + ((m + i, ONE),)
                                      for i, row in enumerate(a.rows)), m + n))
    if any(p >= m for p in pivots):
        raise ArithmeticError(why)
    pivot_rows = dict(zip(pivots, r.rows))
    return Matrix._of(tuple(
        tuple((c - m, x) for c, x in pivot_rows.get(j, ()) if c >= m)
        for j in range(m)), n)
