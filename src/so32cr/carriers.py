"""Filtration-preserving endomorphism algebras on truncations of so(3,2).

A carrier is one of the four truncations m, m+h^0, m+h^0+h^1, m+h, each a
coordinate subspace in the fixed basis order, equipped with the restricted
plain filtration, the restricted semitone filtration (one extra step at the
h-part), and the partial complex structure J.  Because every filtration
space is spanned by basis vectors, the filtered/graded conditions on an
endomorphism are entry patterns plus small linear relations for the
J-condition; each space is a coordinate subspace cut down by an exact
kernel of the J rows alone.

Endomorphisms are n x n matrices over the carrier's slice of the basis,
vectorized row-major (``Matrix.flatten``) for subspace bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import GQ
from .linalg import Matrix, Subspace, kernel_basis, unit_vec, vec
from . import so32
from .so32 import (_J_IMAGE, bracket_coords, complex_basis_matrix,
                   complex_basis_matrix_inv)

# each carrier is m plus the part of h up to a grade
_H_TOP_GRADE = {"m": -1, "m+h0": 0, "m+h0+h1": 1, "m+h": 2}
CARRIER_NAMES = tuple(_H_TOP_GRADE)


class Carrier:
    """A truncation of so(3,2) with its filtrations and J."""

    def __init__(self, name: str):
        if name not in _H_TOP_GRADE:
            raise ValueError(f"unknown carrier {name!r}")
        self.name = name
        self.indices = tuple(
            i for i in range(so32.DIM)
            if not so32.IN_H[i] or so32.GRADES[i] <= _H_TOP_GRADE[name]
        )
        self.dim = len(self.indices)
        self.grades = tuple(so32.GRADES[i] for i in self.indices)
        self.levels = tuple(so32.LEVELS[i] for i in self.indices)

    # -- index sets ------------------------------------------------------
    def h_part(self):
        """Local slots of the h-part (the semitone space V_(0|0))."""
        return tuple(p for p, i in enumerate(self.indices) if so32.IN_H[i])

    def f_chain(self):
        """Plain filtration as local slot sets, levels V_-2 .. V_2, 0."""
        return so32.filtration_steps("F", self.indices)

    def fstar_ladder(self):
        """Semitone ladder V_-2, V_-1, V_(0|-1), V_(0|0), V_(0|1), V_(0|2), 0."""
        return so32.filtration_steps("F*", self.indices)

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

@dataclass(frozen=True)
class EndoSubspace:
    carrier: Carrier
    space: Subspace  # subspace of GQ^(n*n), row-major vectorization

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_endos(self):
        n = self.carrier.dim
        return [Matrix.unflatten(v, n) for v in self.space.basis_vectors()]

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())


def _j_constraint_matrix(carrier: Carrier, domain_slots, coords) -> Matrix:
    """Rows expressing (J A - A J)(v) = 0 mod h-part for v in domain slots,
    over the row-major entries ``coords`` of A (entries outside them are
    taken to be zero)."""
    n = carrier.dim
    jm = carrier.j_matrix()
    jt = jm.transpose()  # row c: the coordinates of J(v_c)
    hpart = set(carrier.h_part())
    column = {q: p for p, q in enumerate(coords)}
    targets = [(c, r) for c in domain_slots for r in range(n) if r not in hpart]
    entries = []
    for t, (c, r) in enumerate(targets):
        # (J A)(v_c)_r = sum_s J[r,s] A[s,c];  (A J)(v_c)_r = sum_s A[r,s] J[s,c]
        entries += [(t, s * n + c, x) for s, x in jm.rows[r]]
        entries += [(t, r * n + s, -x) for s, x in jt.rows[c]]
    return Matrix.from_entries(len(targets), len(coords), (
        (t, column[q], x) for t, q, x in entries if q in column))


def _endo_space(carrier: Carrier, allowed, j_domain) -> Subspace:
    """Endomorphisms supported on the entries (r, c) with ``allowed(r, c)``
    and J-compatible on the ``j_domain`` slots.  The entry pattern is a
    coordinate subspace; only the J rows, restricted to the allowed
    coordinates, need a kernel."""
    n = carrier.dim
    coords = [r * n + c for r in range(n) for c in range(n) if allowed(r, c)]
    if not j_domain:
        return Subspace.coordinate(n * n, coords)
    vectors = []
    for v in kernel_basis(_j_constraint_matrix(carrier, j_domain, coords)):
        w = [GQ(0)] * (n * n)
        for p, x in zip(coords, v):
            w[p] = x
        vectors.append(w)
    return Subspace(n * n, vectors)


def gl_filtered(carrier: Carrier, k: int, star: bool = False,
                j_compatible: bool = False) -> EndoSubspace:
    """gl_k / gl_k* of a carrier, optionally J-compatible.

    Plain: A(V_t) in V_{t+k} along the integer chain.  Star: the grade -2
    and -1 steps shift along the integer chain while the V_(0|j) steps shift
    along the semitone ladder.
    """
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g, lv = carrier.grades, carrier.levels

    def allowed(r, c):
        # A(V_t) in V_(t+k): a column may only reach rows k steps higher.
        # Star: columns in m^0 + h step along the semitone levels, the
        # grade -2 and -1 columns along the integer grades.
        if star and g[c] >= 0:
            return lv[r] >= lv[c] + k
        return g[r] >= g[c] + k

    j_domain = carrier.fstar_ladder()[1] if j_compatible else ()
    return EndoSubspace(carrier, _endo_space(carrier, allowed, j_domain))


def gl_graded(carrier: Carrier, k: int, j_compatible: bool = False) -> EndoSubspace:
    """Graded degree-k endomorphisms B(W^g) in W^{g+k}, optionally with J.

    These are the honest graded representatives of the "mod higher degree"
    classes.  For k >= 2 the J-condition is vacuous (values at grade >= 1
    land inside the h-part), and the two variants coincide.
    """
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g = carrier.grades
    # the J-condition is imposed on the slots of m where J is defined
    j_domain = tuple(
        p for p, i in enumerate(carrier.indices)
        if i in _J_IMAGE and not so32.IN_H[i]
    ) if j_compatible else ()
    return EndoSubspace(carrier, _endo_space(
        carrier, lambda r, c: g[r] == g[c] + k, j_domain))


def frame_freedom(carrier: Carrier) -> EndoSubspace:
    """The degree-1* algebra: first-order frame changes I + B fixing the
    graded part of an adapted frame."""
    return gl_filtered(carrier, 1, star=True, j_compatible=True)


def gl_star_equals_gl_on_m():
    """Witness that the semitone and plain degree-1 algebras agree on m."""
    m = Carrier("m")
    plain = gl_filtered(m, 1, star=False, j_compatible=True)
    starred = gl_filtered(m, 1, star=True, j_compatible=True)
    return {
        "equal": plain.space == starred.space,
        "dim": plain.dim,
        "dim_star": starred.dim,
    }


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
