"""Filtration-preserving endomorphism algebras on truncations of so(3,2).

A carrier is one of the four truncations m, m+h^0, m+h^0+h^1, m+h, the
carriers of the four prolongation steps, with the restricted grading and
the partial complex structure J.  The ``so32`` basis lists m first and then
h by grade, so a carrier is the first 5, 7, 9 or 10 basis vectors, and its
J, ad actions, endomorphisms and complex basis change are leading blocks of
the algebra's: no conjugate pair (X^(10), X^(01)) straddles a carrier's end.
Every filtration space is spanned by basis vectors, so the filtered and
graded conditions on an endomorphism are entry patterns, and a space of
them is the tuple of its basis endomorphisms: the n x n unit matrices E_rc
at the allowed entries (r, c), in row-major order.  J-compatibility is a
condition of the step-0 system (``prolong.prolong_step0``), not of a space
here.
"""

from __future__ import annotations

from .scalars import GQ, unit_vec, vec, zero_vec
from .linalg import Matrix
from . import so32
from .so32 import (_J_IMAGE, bracket_coords, from_complex_basis,
                   to_complex_basis)

# the step-k carrier is m plus the part of h up to grade k - 1
STEP_CARRIERS = {0: "m", 1: "m+h0", 2: "m+h0+h1", 3: "m+h"}
CARRIER_NAMES = tuple(STEP_CARRIERS.values())


class Carrier:
    """A truncation of so(3,2) with its grading and J: the first ``dim``
    basis vectors, m and the part of h of grade below the step."""

    def __init__(self, name: str):
        if name not in CARRIER_NAMES:
            raise ValueError(f"unknown carrier {name!r}")
        self.name = name
        top = CARRIER_NAMES.index(name) - 1  # the highest grade of h kept
        self.dim = sum(not h or g <= top
                       for g, h in zip(so32.GRADES, so32.IN_H))
        self.grades = so32.GRADES[:self.dim]

    def j_matrix(self) -> Matrix:
        """J on the carrier, extended by zero outside m^-1+m^0+h^0+h^1."""
        n = self.dim
        return Matrix.from_entries(n, n, (
            (j, i, s) for i, (j, s) in _J_IMAGE.items() if i < n and j < n))

    def apply_endo(self, b: Matrix, coords):
        """An endomorphism of the carrier acting on algebra coordinates:
        b on the first n of them, with zeros after the image."""
        return b.apply(vec(coords)[:self.dim]) + zero_vec(so32.DIM - self.dim)

    def ad_action(self, x) -> Matrix:
        """pi . ad(x) . incl : the quotient action of x on the carrier."""
        n = self.dim
        return Matrix.from_columns([
            bracket_coords(x, unit_vec(so32.DIM, i))[:n] for i in range(n)])

    def __repr__(self):
        return f"Carrier({self.name})"


# ---------------------------------------------------------------------------
# filtration endomorphism spaces, as tuples of basis endomorphisms
# ---------------------------------------------------------------------------

def _units(carrier: Carrier, allowed) -> tuple:
    """The unit endomorphisms E_rc at the entries (r, c) with
    ``allowed(r, c)``, in row-major order."""
    n = carrier.dim
    return tuple(Matrix.from_entries(n, n, ((r, c, 1),))
                 for r in range(n) for c in range(n) if allowed(r, c))


def gl_filtered(carrier: Carrier, k: int) -> tuple:
    """The basis of gl_k of a carrier: A(V_t) in V_{t+k} along the grading
    filtration, so a column may only reach rows k grades higher."""
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g = carrier.grades
    return _units(carrier, lambda r, c: g[r] >= g[c] + k)


def gl_graded(carrier: Carrier, k: int) -> tuple:
    """The basis of the graded degree-k endomorphisms B(W^g) in W^{g+k}:
    the honest graded representatives of the "mod higher degree" classes."""
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g = carrier.grades
    return _units(carrier, lambda r, c: g[r] == g[c] + k)


# ---------------------------------------------------------------------------
# building endomorphisms from complex-basis images
# ---------------------------------------------------------------------------

def endo_from_complex_images(carrier: Carrier, images: dict) -> Matrix:
    """Real endomorphism of a carrier from images of complexified vectors.

    ``images`` maps a complexified basis label to a list of (coef, label)
    terms.  Columns for conjugate labels are filled by the conjugation
    symmetry of a real map; omitted columns are zero.  The n x n complex
    matrix is conjugated by the basis change on the carrier's coordinates.
    Raises when a label or an image leaves the carrier, or when the result
    fails to be real.
    """
    n = carrier.dim
    zl, conj = so32.COMPLEX_LABELS.index, so32.CONJ_PERM
    entries = {}  # (row, column) -> value in the complexified basis
    for label, terms in images.items():
        for coef, target in terms:
            entries[zl(target), zl(label)] = GQ.of(coef)
    specified = {zl(label) for label in images}
    for (i, j), x in list(entries.items()):
        if conj[j] not in specified:
            entries[conj[i], conj[j]] = x.conj()
    if any(max(ij) >= n for ij in entries):
        raise ValueError("image leaves the carrier")
    mz = Matrix.from_entries(n, n, ((i, j, x) for (i, j), x in entries.items()))
    mreal = _conjugated(n, mz, from_complex_basis, to_complex_basis)
    if not all(x.is_real() for row in mreal.rows for _, x in row):
        raise ValueError("images do not define a real endomorphism")
    return mreal


def endo_complex_matrix(carrier: Carrier, m: Matrix) -> Matrix:
    """The endomorphism in complexified coordinates of the carrier."""
    return _conjugated(carrier.dim, m, to_complex_basis, from_complex_basis)


def _conjugated(n: int, m: Matrix, left, right) -> Matrix:
    """left . m . right on n coordinates, for ``so32``'s two mutually
    inverse basis changes, column by column."""
    return Matrix.from_columns([left(m.apply(right(unit_vec(n, j))))
                                for j in range(n)])
