"""The Lie algebra so(3,2) in anti-diagonal coordinates.

The ambient bilinear form is the 5x5 anti-diagonal matrix; the algebra is
{A : A^T I + I A = 0}, a 10-dimensional real space with the fixed ordered
basis

    e^-2, e_1^-1, e_2^-1, e_1^0, e_2^0, E_1^0, E_2^0, E_1^1, E_2^1, E^2

graded by the adjoint eigenvalues of the grading element E_1^0 with grades
(-2,-1,-1,0,0,0,0,1,1,2).  The complexified basis splits each grade-0/±1
pair into holomorphic/antiholomorphic halves:

    e^-2, e^-1(10), e^-1(01), e^0(10), e^0(01),
    E^0(10), E^0(01), E^1(10), E^1(01), E^2

with X^(10) = (X_1 - i X_2)/2 and X^(01) its conjugate, so that
X_1 = X^(10) + X^(01) and X_2 = i(X^(10) - X^(01)).

All brackets are grounded in the 5x5 matrix commutator; the shipped
bracket-table fixture (``table1.txt``) is a transcription that the
crosscheck compares against the commutator, flagging any cell-local
scalar-factor deltas instead of trusting them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .scalars import GQ, HALF, HALF_I
from .linalg import Matrix, Subspace, inverse, unit_vec, vec, vec_add, vec_scale

DIM = 10
N = 5

REAL_LABELS = (
    "e^-2", "e_1^-1", "e_2^-1", "e_1^0", "e_2^0",
    "E_1^0", "E_2^0", "E_1^1", "E_2^1", "E^2",
)
COMPLEX_LABELS = (
    "e^-2", "e^-1(10)", "e^-1(01)", "e^0(10)", "e^0(01)",
    "E^0(10)", "E^0(01)", "E^1(10)", "E^1(01)", "E^2",
)
GRADES = (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2)

# indices of each grade in the (shared) basis order
GRADE_INDICES = {-2: (0,), -1: (1, 2), 0: (3, 4, 5, 6), 1: (7, 8), 2: (9,)}
GRADE_DIMS = {-2: 1, -1: 2, 0: 4, 1: 2, 2: 1}

# conjugation on the complexified basis: swap (10) <-> (01)
CONJ_PERM = (0, 2, 1, 4, 3, 6, 5, 8, 7, 9)

# sparse entries (row, col, value) of the ten basis matrices
_BASIS_ENTRIES = (
    ((3, 0, 1), (4, 1, -1)),                       # e^-2
    ((2, 0, 1), (4, 2, -1)),                       # e_1^-1
    ((2, 1, 1), (3, 2, -1)),                       # e_2^-1
    ((0, 0, 1), (1, 1, -1), (3, 3, 1), (4, 4, -1)),   # e_1^0
    ((0, 1, 1), (1, 0, 1), (3, 4, -1), (4, 3, -1)),   # e_2^0
    ((0, 0, 1), (1, 1, 1), (3, 3, -1), (4, 4, -1)),   # E_1^0
    ((0, 1, 1), (1, 0, -1), (3, 4, -1), (4, 3, 1)),   # E_2^0
    ((0, 2, 1), (2, 4, -1)),                       # E_1^1
    ((1, 2, 1), (2, 3, -1)),                       # E_2^1
    ((0, 3, 1), (1, 4, -1)),                       # E^2
)


def iform() -> Matrix:
    """The ambient symmetric form: 1s on the anti-diagonal."""
    return Matrix(
        [[1 if i + j == N - 1 else 0 for j in range(N)] for i in range(N)]
    )


@lru_cache(maxsize=1)
def basis_matrices():
    """The ten 5x5 basis matrices, in the fixed order of REAL_LABELS."""
    out = []
    for entries in _BASIS_ENTRIES:
        rows = [[GQ(0)] * N for _ in range(N)]
        for (i, j, v) in entries:
            rows[i][j] = GQ(v)
        out.append(Matrix(rows))
    return tuple(out)


def to_matrix(coords) -> Matrix:
    coords = vec(coords)
    m = Matrix.zero(N, N)
    for c, b in zip(coords, basis_matrices()):
        if c:
            m = m + b.scale(c)
    return m


def from_matrix(a: Matrix):
    """Coordinates of a 5x5 matrix in the basis; raises if not in so(3,2)."""
    coords = (
        a[3, 0],                      # e^-2
        a[2, 0],                      # e_1^-1
        a[2, 1],                      # e_2^-1
        (a[0, 0] - a[1, 1]) / GQ(2),  # e_1^0
        (a[0, 1] + a[1, 0]) / GQ(2),  # e_2^0
        (a[0, 0] + a[1, 1]) / GQ(2),  # E_1^0
        (a[0, 1] - a[1, 0]) / GQ(2),  # E_2^0
        a[0, 2],                      # E_1^1
        a[1, 2],                      # E_2^1
        a[0, 3],                      # E^2
    )
    if to_matrix(coords) != a:
        raise ValueError("matrix is not in so(3,2) (or its complexification)")
    return coords


@lru_cache(maxsize=1)
def structure_constants():
    """table[i][j] = coordinates of [b_i, b_j], from the matrix commutator."""
    bm = basis_matrices()
    table = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            comm = bm[i] @ bm[j] - bm[j] @ bm[i]
            row.append(from_matrix(comm))
        table.append(tuple(row))
    return tuple(table)


def bracket_coords(x, y):
    """[x, y] on coordinate vectors (GQ-bilinear extension)."""
    x, y = vec(x), vec(y)
    table = structure_constants()
    out = [GQ(0)] * DIM
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, t in enumerate(table[i][j]):
                if t:
                    out[k] = out[k] + c * t
    return tuple(out)


class Alg:
    """Element of so(3,2) (or its complexification) as a coordinate vector."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = vec(coords)
        if len(coords) != DIM:
            raise ValueError("need 10 coordinates")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Alg is immutable")

    @staticmethod
    def basis(i: int) -> "Alg":
        return Alg(unit_vec(DIM, i))

    @staticmethod
    def from_label(label: str) -> "Alg":
        return Alg.basis(REAL_LABELS.index(label))

    @staticmethod
    def zero() -> "Alg":
        return Alg([0] * DIM)

    def __add__(self, other):
        return Alg(vec_add(self.coords, other.coords))

    def __sub__(self, other):
        return Alg(vec_add(self.coords, vec_scale(-1, other.coords)))

    def scale(self, c) -> "Alg":
        return Alg(vec_scale(c, self.coords))

    def __neg__(self):
        return self.scale(-1)

    def bracket(self, other: "Alg") -> "Alg":
        return Alg(bracket_coords(self.coords, other.coords))

    def to_matrix(self) -> Matrix:
        return to_matrix(self.coords)

    @staticmethod
    def from_matrix(a: Matrix) -> "Alg":
        return Alg(from_matrix(a))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def conj(self) -> "Alg":
        """Conjugation of the complexification fixing the real form."""
        return Alg([c.conj() for c in self.coords])

    def is_real(self) -> bool:
        """Membership in the real form: conjugation-symmetric complex coords."""
        z = self.complex_coords()
        return all(
            z[CONJ_PERM[i]].conj() == z[i] for i in range(DIM)
        )

    def complex_coords(self):
        return to_complex_basis(self.coords)

    def grade_decompose(self):
        """Split into ad(E_1^0)-eigencomponents, keyed by grade -2..2."""
        out = {}
        for g, idxs in GRADE_INDICES.items():
            comp = [GQ(0)] * DIM
            nonzero = False
            for i in idxs:
                comp[i] = self.coords[i]
                nonzero = nonzero or bool(self.coords[i])
            if nonzero:
                out[g] = Alg(comp)
        return out

    def __eq__(self, other):
        if not isinstance(other, Alg):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        terms = [
            f"({c.to_str()})*{REAL_LABELS[i]}"
            for i, c in enumerate(self.coords)
            if c
        ]
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=1)
def complex_basis_matrix() -> Matrix:
    """Columns = complexified basis vectors in real coordinates."""
    cols = [[GQ(0)] * DIM for _ in range(DIM)]
    cols[0][0] = GQ(1)                          # e^-2
    cols[1][1], cols[1][2] = HALF, -HALF_I      # e^-1(10)
    cols[2][1], cols[2][2] = HALF, HALF_I       # e^-1(01)
    cols[3][3], cols[3][4] = HALF, -HALF_I      # e^0(10)
    cols[4][3], cols[4][4] = HALF, HALF_I       # e^0(01)
    cols[5][5], cols[5][6] = HALF, -HALF_I      # E^0(10)
    cols[6][5], cols[6][6] = HALF, HALF_I       # E^0(01)
    cols[7][7], cols[7][8] = HALF, -HALF_I      # E^1(10)
    cols[8][7], cols[8][8] = HALF, HALF_I       # E^1(01)
    cols[9][9] = GQ(1)                          # E^2
    return Matrix.from_columns(cols)


@lru_cache(maxsize=1)
def complex_basis_matrix_inv() -> Matrix:
    return inverse(complex_basis_matrix())


def to_complex_basis(coords):
    return complex_basis_matrix_inv().apply(vec(coords))


def from_complex_basis(zcoords):
    return complex_basis_matrix().apply(vec(zcoords))


def complex_unit(i: int):
    """Real coordinates of the i-th complexified basis vector."""
    return complex_basis_matrix().col(i)


def bracket_complex(zi: int, zj: int):
    """[z_i, z_j] of complexified basis vectors, in complex coordinates."""
    return to_complex_basis(
        bracket_coords(complex_unit(zi), complex_unit(zj))
    )


# ---------------------------------------------------------------------------
# adjoint representation, Killing form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def ad_matrix(i: int) -> Matrix:
    """ad(b_i) as a 10x10 matrix (columns = brackets with basis vectors)."""
    table = structure_constants()
    return Matrix.from_columns([table[i][j] for j in range(DIM)])


@lru_cache(maxsize=1)
def killing_gram() -> Matrix:
    """Gram matrix of kappa(x,y) = trace(ad x . ad y) on the real basis."""
    ads = [ad_matrix(i) for i in range(DIM)]
    return Matrix(
        [[(ads[i] @ ads[j]).trace() for j in range(DIM)] for i in range(DIM)]
    )


def killing(x: Alg, y: Alg) -> GQ:
    g = killing_gram()
    return sum(
        (xi * g[i, j] * yj
         for i, xi in enumerate(x.coords) if xi
         for j, yj in enumerate(y.coords) if yj),
        GQ(0),
    )


def symmetric_signature(gram: Matrix):
    """(n_pos, n_neg, n_zero) of a rational symmetric matrix.

    The characteristic polynomial comes from Faddeev-LeVerrier.  A real
    symmetric matrix has only real eigenvalues, so Descartes' rule of signs
    counts the positive ones exactly, and zero's multiplicity is the number
    of vanishing low-order coefficients.
    """
    if any(not x.is_real() for r in gram.rows for x in r):
        raise ValueError("signature of a non-real matrix")
    if gram != gram.transpose():
        raise ValueError("signature of a non-symmetric matrix")
    n = gram.nrows
    # coeffs[k] multiplies lambda^(n-k) in det(lambda I - gram)
    coeffs = [GQ(1)]
    m = Matrix.zero(n, n)
    for k in range(1, n + 1):
        m = gram @ m + Matrix.identity(n).scale(coeffs[-1])
        coeffs.append(-(gram @ m).trace() / k)
    zero = n - max(k for k, c in enumerate(coeffs) if c)
    signs = [c.re > 0 for c in coeffs if c]
    pos = sum(s != t for s, t in zip(signs, signs[1:]))
    return pos, n - zero - pos, zero


# ---------------------------------------------------------------------------
# partial complex structure and filtrations
# ---------------------------------------------------------------------------

# J on basis indices: i -> (image index, sign)
_J_IMAGE = {1: (2, 1), 2: (1, -1), 3: (4, 1), 4: (3, -1),
            5: (6, 1), 6: (5, -1), 7: (8, 1), 8: (7, -1)}


def apply_J(x: Alg) -> Alg:
    """The grade-preserving complex structure on m^-1+m^0+h^0+h^1.

    Raises ValueError when x has a grade -2 or grade 2 component.
    """
    if x.coords[0] or x.coords[9]:
        raise ValueError("J is undefined on the m^-2 / h^2 components")
    out = [GQ(0)] * DIM
    for i, c in enumerate(x.coords):
        if c:
            j, s = _J_IMAGE[i]
            out[j] = out[j] + c * GQ(s)
    return Alg(out)


def _span(indices) -> Subspace:
    return Subspace(DIM, [unit_vec(DIM, i) for i in indices])


def filtration_chain(kind: str):
    """The two canonical filtrations of m+h, as subspaces of GQ^10.

    kind "F":  m+h > m^-1+m^0+h > m^0+h > h^1+h^2 > h^2 > 0
    kind "F*": same with the extra semitone step h = h^0+h^1+h^2 inserted
    between m^0+h and h^1+h^2.
    """
    chain = [
        _span(range(0, 10)),
        _span(range(1, 10)),
        _span(range(3, 10)),
        _span(range(7, 10)),
        _span(range(9, 10)),
        Subspace.zero(DIM),
    ]
    if kind == "F":
        return chain
    if kind == "F*":
        return chain[:3] + [_span(range(5, 10))] + chain[3:]
    raise ValueError("kind must be 'F' or 'F*'")


# ---------------------------------------------------------------------------
# bracket-table fixture and crosscheck
# ---------------------------------------------------------------------------

TABLE1_ROWS = (
    "E_1^0", "E^2", "E^1(10)", "E^1(01)", "E^0(10)", "E^0(01)",
    "e^0(10)", "e^0(01)", "e^-1(10)", "e^-1(01)", "e^-2",
)
TABLE1_COLS = (
    "E^2", "E^1(10)", "E^1(01)", "E^0(10)", "E^0(01)",
    "e^0(10)", "e^0(01)", "e^-1(10)", "e^-1(01)", "e^-2",
)

_TERM_RE = re.compile(r"^\(([^)]*)\)\*(.+)$")


def parse_combination(cell: str):
    """Parse "(c1)*label1 + (c2)*label2" into complex coordinates."""
    cell = cell.strip()
    out = [GQ(0)] * DIM
    if cell == "0":
        return tuple(out)
    for term in cell.split(" + "):
        m = _TERM_RE.match(term.strip())
        if not m:
            raise ValueError(f"bad fixture term: {term!r}")
        coef = GQ.from_str(m.group(1))
        idx = COMPLEX_LABELS.index(m.group(2).strip())
        out[idx] = out[idx] + coef
    return tuple(out)


def format_combination(zcoords) -> str:
    terms = [
        f"({c.to_str()})*{COMPLEX_LABELS[i]}"
        for i, c in enumerate(zcoords)
        if c
    ]
    return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=1)
def table1_fixture():
    """The transcribed bracket table: dict (row_label, col_label) -> coords."""
    text = resources.files("so32cr").joinpath("table1.txt").read_text()
    table = {}
    rows_seen = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split("\t")]
        row_label, cells = cells[0], cells[1:]
        if len(cells) != len(TABLE1_COLS):
            raise ValueError(f"fixture row {row_label!r} has {len(cells)} cells")
        rows_seen.append(row_label)
        for col_label, cell in zip(TABLE1_COLS, cells):
            table[(row_label, col_label)] = parse_combination(cell)
    if tuple(rows_seen) != TABLE1_ROWS:
        raise ValueError("fixture rows out of order")
    return table


def _arg_coords(label: str):
    """Real coordinates of a Table-1 row/column argument."""
    if label == "E_1^0":
        return unit_vec(DIM, 5)
    return complex_unit(COMPLEX_LABELS.index(label))


@dataclass(frozen=True)
class CellCheck:
    row: str
    col: str
    table_value: tuple
    commutator_value: tuple
    match: bool
    scalar_factor: GQ | None  # table = factor * commutator, when both nonzero

    @property
    def explained(self) -> bool:
        return self.match or self.scalar_factor is not None


def table1_crosscheck():
    """Compare every fixture cell against the matrix commutator.

    The commutator is authoritative.  A mismatching cell is "explained" when
    the transcription differs from the truth by a single scalar factor.
    """
    fixture = table1_fixture()
    out = []
    for row_label in TABLE1_ROWS:
        x = _arg_coords(row_label)
        for col_label in TABLE1_COLS:
            y = _arg_coords(col_label)
            truth = to_complex_basis(bracket_coords(x, y))
            claimed = fixture[(row_label, col_label)]
            match = tuple(truth) == tuple(claimed)
            factor = None
            if not match:
                nz = [(t, c) for t, c in zip(truth, claimed) if t or c]
                if nz and all(t and c for t, c in nz):
                    f = nz[0][1] / nz[0][0]
                    if all(c == f * t for t, c in nz):
                        factor = f
            out.append(
                CellCheck(row_label, col_label, tuple(claimed), tuple(truth),
                          match, factor)
            )
    return out
