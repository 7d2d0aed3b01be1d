"""Filtration-preserving endomorphism algebras on truncations of so(3,2).

A carrier is one of the four truncations m, m+h^0, m+h^0+h^1, m+h, the
carriers of the four prolongation steps, each a coordinate subspace in the
fixed basis order, equipped with the restricted grading and the partial
complex structure J.  Because every filtration space is spanned by basis
vectors, the filtered and graded conditions on an endomorphism are entry
patterns, and each space is a coordinate subspace.  J-compatibility is a
condition of the step-0 system (``prolong.prolong_step0``), not of a space
here.

Endomorphisms are n x n matrices over the carrier's slice of the basis,
vectorized row-major (``Matrix.flatten``) for subspace bookkeeping.
"""

from __future__ import annotations

from typing import NamedTuple

from .scalars import GQ
from .linalg import Matrix, Subspace, unit_vec, vec
from . import so32
from .so32 import (_J_IMAGE, bracket_coords, complex_basis_matrix,
                   complex_basis_matrix_inv)

# the step-k carrier is m plus the part of h up to grade k - 1
STEP_CARRIERS = {0: "m", 1: "m+h0", 2: "m+h0+h1", 3: "m+h"}
CARRIER_NAMES = tuple(STEP_CARRIERS.values())


class Carrier:
    """A truncation of so(3,2) with its grading and J."""

    def __init__(self, name: str):
        if name not in CARRIER_NAMES:
            raise ValueError(f"unknown carrier {name!r}")
        self.name = name
        top = CARRIER_NAMES.index(name) - 1  # the highest grade of h kept
        self.indices = tuple(
            i for i in range(so32.DIM)
            if not so32.IN_H[i] or so32.GRADES[i] <= top
        )
        self.dim = len(self.indices)
        self.grades = tuple(so32.GRADES[i] for i in self.indices)

    # -- J ----------------------------------------------------------------
    def j_matrix(self) -> Matrix:
        """J on the carrier, extended by zero outside m^-1+m^0+h^0+h^1."""
        entries = []
        for p, i in enumerate(self.indices):
            j, s = _J_IMAGE.get(i, (None, 0))
            if j in self.indices:
                entries.append((self.indices.index(j), p, s))
        return Matrix.from_entries(self.dim, self.dim, entries)

    # -- embedding in the full algebra ------------------------------------
    def project_coords(self, coords):
        coords = vec(coords)
        return tuple(coords[i] for i in self.indices)

    def embed_coords(self, local):
        local = vec(local)
        out = [GQ(0)] * so32.DIM
        for p, i in enumerate(self.indices):
            out[i] = local[p]
        return tuple(out)

    def embedding(self) -> Matrix:
        """The inclusion of the carrier's coordinates into the algebra's;
        its transpose is the projection."""
        return Matrix.from_entries(so32.DIM, self.dim, (
            (i, p, 1) for p, i in enumerate(self.indices)))

    def apply_endo(self, b: Matrix, coords):
        """An endomorphism of the carrier acting on algebra coordinates:
        embed(b . project(coords))."""
        return self.embed_coords(b.apply(self.project_coords(coords)))

    def ad_action(self, x) -> Matrix:
        """pi . ad(x) . incl : the quotient action of x on the carrier."""
        return Matrix.from_columns([
            self.project_coords(bracket_coords(x, unit_vec(so32.DIM, i)))
            for i in self.indices])

    def __repr__(self):
        return f"Carrier({self.name})"


# ---------------------------------------------------------------------------
# endomorphism subspaces
# ---------------------------------------------------------------------------

class EndoSubspace(NamedTuple):
    carrier: Carrier
    space: Subspace  # subspace of GQ^(n*n), row-major vectorization

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_endos(self):
        n = self.carrier.dim
        return [Matrix.unflatten(v, n) for v in self.space.basis_vectors()]


def _endo_space(carrier: Carrier, allowed) -> Subspace:
    """Endomorphisms supported on the entries (r, c) with ``allowed(r, c)``:
    a coordinate subspace."""
    n = carrier.dim
    return Subspace.coordinate(n * n, [r * n + c for r in range(n)
                                       for c in range(n) if allowed(r, c)])


def gl_filtered(carrier: Carrier, k: int) -> EndoSubspace:
    """gl_k of a carrier: A(V_t) in V_{t+k} along the grading filtration,
    so a column may only reach rows k grades higher."""
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g = carrier.grades
    return EndoSubspace(carrier, _endo_space(
        carrier, lambda r, c: g[r] >= g[c] + k))


def gl_graded(carrier: Carrier, k: int) -> EndoSubspace:
    """Graded degree-k endomorphisms B(W^g) in W^{g+k}: the honest graded
    representatives of the "mod higher degree" classes."""
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g = carrier.grades
    return EndoSubspace(carrier, _endo_space(
        carrier, lambda r, c: g[r] == g[c] + k))


# ---------------------------------------------------------------------------
# building endomorphisms from complex-basis images
# ---------------------------------------------------------------------------

def endo_from_complex_images(carrier: Carrier, images: dict) -> Matrix:
    """Real endomorphism of a carrier from images of complexified vectors.

    ``images`` maps a complexified basis label to a list of (coef, label)
    terms.  Columns for conjugate labels are filled by the conjugation
    symmetry of a real map; omitted columns are zero.  Raises when the
    result does not stay in the carrier or fails to be real.
    """
    zl, conj = so32.COMPLEX_LABELS.index, so32.CONJ_PERM
    entries = {}  # (row, column) -> value in the complexified basis
    for label, terms in images.items():
        for coef, target in terms:
            entries[zl(target), zl(label)] = GQ.of(coef)
    specified = {zl(label) for label in images}
    for (i, j), x in list(entries.items()):
        if conj[j] not in specified:
            entries[conj[i], conj[j]] = x.conj()
    mz = Matrix.from_entries(so32.DIM, so32.DIM,
                             ((i, j, x) for (i, j), x in entries.items()))
    mreal = complex_basis_matrix() @ mz @ complex_basis_matrix_inv()
    for r, row in enumerate(mreal.rows):
        for c, x in row:
            if not x.is_real():
                raise ValueError("images do not define a real endomorphism")
            if c in carrier.indices and r not in carrier.indices:
                raise ValueError("image leaves the carrier")
    e = carrier.embedding()
    return e.transpose() @ mreal @ e


def endo_complex_matrix(carrier: Carrier, m: Matrix) -> Matrix:
    """The endomorphism in complexified coordinates of the carrier."""
    e = carrier.embedding()
    zfull = (complex_basis_matrix_inv() @ (e @ m @ e.transpose())
             @ complex_basis_matrix())
    return e.transpose() @ zfull @ e
