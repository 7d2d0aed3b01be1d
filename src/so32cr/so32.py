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
X_1 = X^(10) + X^(01) and X_2 = i(X^(10) - X^(01)).  The change between the
two coordinate systems acts pair by pair (``to_complex_basis``,
``from_complex_basis``).

An element of so(3,2), or of its complexification, is the tuple of its
coordinates over the real basis; the functions here that take or return
an element take or return that tuple.

All brackets are grounded in the 5x5 matrix commutator, through one sparse
table of structure constants built once from the sparse basis matrices; the
Killing form is read off it entry by entry, and ``verify jacobi`` reads the
Jacobi sums and the grading off the structure constants themselves.  No
matrix type is used here.  The shipped bracket-table fixture
(``table1.txt``) is a transcription that the crosscheck compares against the
commutator, flagging any cell-local scalar-factor deltas instead of trusting
them.

The ``run_*`` functions at the end fill the reports of ``so32cr verify
table1`` and ``so32cr verify jacobi``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .scalars import GQ, HALF, HALF_I, I, ZERO, combination_text, unit_vec, vec

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

# The graded layout, one entry per basis index (real and complexified bases
# share the order).  Every other index set of the package is derived from
# these tables.
GRADES = (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2)
# the m/h split: h = h^0 + h^1 + h^2 is the isotropy part
IN_H = (False, False, False, False, False, True, True, True, True, True)
# conjugation on the complexified basis: swap (10) <-> (01)
CONJ_PERM = (0, 2, 1, 4, 3, 6, 5, 8, 7, 9)

GRADE_INDICES = {
    g: tuple(i for i, gi in enumerate(GRADES) if gi == g)
    for g in range(min(GRADES), max(GRADES) + 1)
}
GRADE_DIMS = {g: len(idx) for g, idx in GRADE_INDICES.items()}
# m_- = m^-2 + m^-1, the argument algebra of the cochain complexes
M_MINUS = tuple(i for i, g in enumerate(GRADES) if g < 0)

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


def _coords_of(entries):
    """Coordinates of the 5x5 matrix with nonzero entries {(row, col): value};
    raises ValueError unless a^T I + I a = 0, i.e. a[r, c] = -a[4-c, 4-r],
    the equation of so(3,2) (or its complexification) the basis spans."""
    def a(i, j):
        return GQ.of(entries.get((i, j), 0))
    if any(a(N - 1 - c, N - 1 - r) != -v for (r, c), v in entries.items()):
        raise ValueError("matrix is not in so(3,2) (or its complexification)")
    return (
        a(3, 0),                      # e^-2
        a(2, 0),                      # e_1^-1
        a(2, 1),                      # e_2^-1
        (a(0, 0) - a(1, 1)) * HALF,   # e_1^0
        (a(0, 1) + a(1, 0)) * HALF,   # e_2^0
        (a(0, 0) + a(1, 1)) * HALF,   # E_1^0
        (a(0, 1) - a(1, 0)) * HALF,   # E_2^0
        a(0, 2),                      # E_1^1
        a(1, 2),                      # E_2^1
        a(0, 3),                      # E^2
    )


@lru_cache(maxsize=1)
def structure_constants():
    """The nonzero structure constants {(i, j): {k: C^k_ij}}, with
    [b_i, b_j] = sum_k C^k_ij b_k, from sparse commutators of the basis
    matrices.  Shared and cached: callers must not mutate it."""
    table = {}
    for i in range(DIM):
        for j in range(DIM):
            comm = {}
            for x, y, sign in ((i, j, 1), (j, i, -1)):
                for (r, m, v) in _BASIS_ENTRIES[x]:
                    for (m2, c, w) in _BASIS_ENTRIES[y]:
                        if m == m2:
                            comm[(r, c)] = comm.get((r, c), 0) + sign * v * w
            row = {k: t for k, t in enumerate(_coords_of(comm)) if t}
            if row:
                table[(i, j)] = row
    return table


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
            for k, t in table.get((i, j), {}).items():
                out[k] = out[k] + c * t
    return tuple(out)


def real_unit(label: str):
    """Coordinates of the real basis vector with the given label."""
    return unit_vec(DIM, REAL_LABELS.index(label))


# the conjugate pairs (X^(10), X^(01)) of CONJ_PERM, as index pairs p < q
_PAIRS = tuple((p, q) for p, q in enumerate(CONJ_PERM) if p < q)


def _pairwise(coords, rule):
    """coords with each CONJ_PERM pair's entries (a_p, a_q), p < q, replaced
    by rule(a_p, a_q); a fixed index keeps its entry.  coords may be a
    leading block of a vector that no pair straddles."""
    out = list(vec(coords))
    for p, q in _PAIRS:
        if q < len(out):
            out[p], out[q] = rule(out[p], out[q])
    return tuple(out)


def to_complex_basis(coords):
    """Complex coordinates of a vector given in real coordinates:
    c_p = x_p + i x_q and c_q = x_p - i x_q."""
    return _pairwise(coords, lambda x, y: (x + I * y, x - I * y))


def from_complex_basis(coords):
    """Real coordinates of a vector given in complex coordinates (the inverse
    of ``to_complex_basis``): x_p = (c_p + c_q)/2, x_q = i (c_q - c_p)/2."""
    return _pairwise(coords, lambda c, d: ((c + d) * HALF, (d - c) * HALF_I))


def complex_unit(i: int):
    """Real coordinates of the i-th complexified basis vector."""
    return from_complex_basis(unit_vec(DIM, i))


@lru_cache(maxsize=1)
def complex_structure_constants():
    """{(a, b): complex coordinates of [z_a, z_b]} over all pairs of
    complexified basis vectors: the real table in the complexified basis."""
    units = [complex_unit(a) for a in range(DIM)]
    return {(a, b): to_complex_basis(bracket_coords(units[a], units[b]))
            for a in range(DIM) for b in range(DIM)}


def bracket_complex(zi: int, zj: int):
    """[z_i, z_j] of complexified basis vectors, in complex coordinates."""
    return complex_structure_constants()[(zi, zj)]


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def killing(i: int, j: int) -> GQ:
    """kappa(b_i, b_j) = trace(ad b_i . ad b_j) = sum_{a,b} C^b_ia C^a_jb,
    one entry of the Killing form read off the structure constants."""
    table = structure_constants()
    return sum((t * table.get((j, b), {}).get(a, ZERO)
                for a in range(DIM) for b, t in table.get((i, a), {}).items()),
               ZERO)


# ---------------------------------------------------------------------------
# partial complex structure
# ---------------------------------------------------------------------------

# J on basis indices: i -> (image index, sign), X_1 -> X_2 -> -X_1 on each
# CONJ_PERM pair, so that X^(10) is its +i eigenvector
_J_IMAGE = {i: (p, 1 if i < p else -1)
            for i, p in enumerate(CONJ_PERM) if p != i}


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


def format_combination(coords) -> str:
    """Render complex coordinates as "(c1)*label1 + ..."."""
    return combination_text(
        (c, COMPLEX_LABELS[i]) for i, c in enumerate(coords) if c)


def table1_fixture():
    """The transcribed bracket table: dict (row_label, col_label) -> coords."""
    from importlib import resources  # only verify table1 reads a resource
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
    if label in COMPLEX_LABELS:
        return complex_unit(COMPLEX_LABELS.index(label))
    return real_unit(label)  # the grading element


class CellCheck(NamedTuple):
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


# ---------------------------------------------------------------------------
# the verify table1 and verify jacobi commands
# ---------------------------------------------------------------------------

def run_verify_table1(rep):
    cells = table1_crosscheck()
    rep.add("cell count", 110, len(cells), "fixture layout")
    for c in cells:
        name = f"table1[{c.row}, {c.col}]"
        if not c.match:
            name += (
                f" (transcription delta, scalar factor {c.scalar_factor.to_str()})"
                if c.scalar_factor is not None
                else " (unexplained delta)"
            )
        rep.add(
            name,
            format_combination(c.commutator_value),
            format_combination(c.table_value),
            "matrix commutator oracle",
            ok=None if c.match else c.explained,
        )


def _jacobi_sum(table, i, j, k) -> dict:
    """{m: sum_l (C^l_ij C^m_lk + C^l_jk C^m_li + C^l_ki C^m_lj)}: the
    coordinates of [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]."""
    out = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l, x in table.get((a, b), {}).items():
            for m, y in table.get((l, c), {}).items():
                out[m] = out.get(m, ZERO) + x * y
    return out


def run_verify_jacobi(rep):
    table = structure_constants()
    triples = list(combinations(range(DIM), 3))
    bad = sum(any(_jacobi_sum(table, *t).values()) for t in triples)
    rep.add("Jacobi triples checked", 120, len(triples), "commutator arithmetic")
    rep.add("Jacobi failures", 0, bad, "commutator arithmetic")
    # C^k_ij != 0 only where deg k = deg i + deg j; for a grade sum outside
    # -2..2 this asks for the zero bracket
    pairs = list(product(GRADE_INDICES, repeat=2))
    grading_ok = all(GRADES[k] == gi + gj for gi, gj in pairs
                     for i in GRADE_INDICES[gi] for j in GRADE_INDICES[gj]
                     for k in table.get((i, j), {}))
    rep.add("grade pairs checked", 25, len(pairs), "adjoint grading")
    rep.add("bracket respects grading", True, grading_ok, "adjoint grading")
    dims = tuple(GRADE_DIMS.values())
    rep.add("grading eigenspace dims", (1, 2, 4, 2, 1), dims, "grading element spectrum")
