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
from functools import lru_cache

from .scalars import GQ
from .linalg import Matrix, Subspace, kernel_basis, vec
from . import so32
from .so32 import GRADES, _J_IMAGE, Alg, complex_basis_matrix, complex_basis_matrix_inv

CARRIER_NAMES = ("m", "m+h0", "m+h0+h1", "m+h")

_CARRIER_INDICES = {
    "m": (0, 1, 2, 3, 4),
    "m+h0": (0, 1, 2, 3, 4, 5, 6),
    "m+h0+h1": (0, 1, 2, 3, 4, 5, 6, 7, 8),
    "m+h": (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
}


class Carrier:
    """A truncation of so(3,2) with its filtrations and J."""

    def __init__(self, name: str):
        if name not in _CARRIER_INDICES:
            raise ValueError(f"unknown carrier {name!r}")
        self.name = name
        self.indices = _CARRIER_INDICES[name]
        self.dim = len(self.indices)
        self.grades = tuple(GRADES[i] for i in self.indices)

    # -- index sets ------------------------------------------------------
    def h_part(self):
        """Local slots of the h-part (the semitone space V_(0|0))."""
        return tuple(
            p for p, i in enumerate(self.indices) if i >= 5
        )

    def f_chain(self):
        """Plain filtration as local slot sets, levels V_-2 .. V_2, 0."""
        return [
            tuple(p for p, g in enumerate(self.grades) if g >= k)
            for k in range(-2, 3)
        ] + [()]

    def fstar_ladder(self):
        """Semitone ladder V_-2, V_-1, V_(0|-1), V_(0|0), V_(0|1), V_(0|2), 0."""
        ge = lambda k: tuple(p for p, g in enumerate(self.grades) if g >= k)
        h = set(self.h_part())
        v00 = tuple(p for p in range(self.dim) if p in h)
        return [ge(-2), ge(-1), ge(0), v00, ge(1), ge(2), ()]

    def j_matrix(self) -> Matrix:
        """J on the carrier, extended by zero outside m^-1+m^0+h^0+h^1."""
        rows = [[GQ(0)] * self.dim for _ in range(self.dim)]
        for p, i in enumerate(self.indices):
            if i in _J_IMAGE:
                j, s = _J_IMAGE[i]
                if j in self.indices:
                    rows[self.indices.index(j)][p] = GQ(s)
        return Matrix(rows)

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

    def apply_endo(self, b: Matrix, coords):
        """An endomorphism of the carrier acting on algebra coordinates:
        embed(b . project(coords))."""
        return self.embed_coords(b.apply(self.project_coords(coords)))

    def ad_action(self, x: Alg) -> Matrix:
        """pi . ad(x) . incl : the quotient action of x on the carrier."""
        cols = []
        for i in self.indices:
            cols.append(self.project_coords(x.bracket(Alg.basis(i)).coords))
        return Matrix.from_columns(cols)

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


def _j_constraint_rows(carrier: Carrier, domain_slots):
    """Rows expressing (J A - A J)(v) = 0 mod h-part for v in domain slots."""
    n = carrier.dim
    jm = carrier.j_matrix()
    hpart = set(carrier.h_part())
    rows = []
    for c in domain_slots:
        jc = [jm[r, c] for r in range(n)]  # coordinates of J(v_c)
        for r in range(n):
            if r in hpart:
                continue
            # (J A)(v_c)_r = sum_s J[r,s] A[s,c];  (A J)(v_c)_r = sum_s A[r,s] J[s,c]
            row = [GQ(0)] * (n * n)
            for s in range(n):
                if jm[r, s]:
                    row[s * n + c] = row[s * n + c] + jm[r, s]
                if jc[s]:
                    row[r * n + s] = row[r * n + s] - jc[s]
            rows.append(row)
    return rows


def _endo_space(carrier: Carrier, allowed, j_domain) -> Subspace:
    """Endomorphisms supported on the ``allowed`` (row, col) entries and
    J-compatible on the ``j_domain`` slots.  The entry pattern is a
    coordinate subspace; only the J rows, restricted to the allowed
    coordinates, need a kernel."""
    n2 = carrier.dim * carrier.dim
    coords = sorted(r * carrier.dim + c for r, c in allowed)
    if not j_domain:
        return Subspace.coordinate(n2, coords)
    rows = [[row[p] for p in coords]
            for row in _j_constraint_rows(carrier, j_domain)]
    vectors = []
    for v in kernel_basis(Matrix(rows, ncols=len(coords))):
        w = [GQ(0)] * n2
        for p, x in zip(coords, v):
            w[p] = x
        vectors.append(w)
    return Subspace(n2, vectors)


def gl_filtered(carrier: Carrier, k: int, star: bool = False,
                j_compatible: bool = False) -> EndoSubspace:
    """gl_k / gl_k* of a carrier, optionally J-compatible.

    Plain: A(V_t) in V_{t+k} along the integer chain.  Star: the grade -2
    and -1 steps shift along the integer chain while the V_(0|j) steps shift
    along the semitone ladder.
    """
    return _gl_filtered(carrier.name, k, star, j_compatible)


@lru_cache(maxsize=None)
def _gl_filtered(name: str, k: int, star: bool, j_compatible: bool) -> EndoSubspace:
    carrier = Carrier(name)
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    n = carrier.dim
    allowed = set((r, c) for r in range(n) for c in range(n))

    def restrict(domain, target):
        tset = set(target)
        for c in domain:
            for r in range(n):
                if r not in tset and (r, c) in allowed:
                    allowed.discard((r, c))

    if not star:
        chain = carrier.f_chain()  # positions 0..5 = V_-2..V_2, 0
        for t in range(5):
            restrict(chain[t], chain[min(t + k, 5)])
    else:
        ladder = carrier.fstar_ladder()
        # integer level m -> ladder position
        pos = {-2: 0, -1: 1, 0: 2, 1: 4, 2: 5}
        def ladder_pos(m):
            return pos.get(m, 6 if m > 2 else 0)
        restrict(ladder[0], ladder[ladder_pos(-2 + k)])
        restrict(ladder[1], ladder[ladder_pos(-1 + k)])
        for t in range(4):  # V_(0|-1+t) -> V_(0|-1+t+k)
            restrict(ladder[2 + t], ladder[min(2 + t + k, 6)])

    j_domain = carrier.fstar_ladder()[1] if j_compatible else ()
    return EndoSubspace(carrier, _endo_space(carrier, allowed, j_domain))


def gl_graded(carrier: Carrier, k: int, j_compatible: bool = False) -> EndoSubspace:
    """Graded degree-k endomorphisms B(W^g) in W^{g+k}, optionally with J.

    These are the honest graded representatives of the "mod higher degree"
    classes.  For k >= 2 the J-condition is vacuous (values at grade >= 1
    land inside the h-part), and the two variants coincide.
    """
    return _gl_graded(carrier.name, k, j_compatible)


@lru_cache(maxsize=None)
def _gl_graded(name: str, k: int, j_compatible: bool) -> EndoSubspace:
    carrier = Carrier(name)
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    n = carrier.dim
    allowed = set()
    for c in range(n):
        for r in range(n):
            if carrier.grades[r] == carrier.grades[c] + k:
                allowed.add((r, c))
    j_domain = (
        [p for p, i in enumerate(carrier.indices) if i in (1, 2, 3, 4)]
        if j_compatible else ()
    )
    return EndoSubspace(carrier, _endo_space(carrier, allowed, j_domain))


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
    zcols = [[GQ(0)] * so32.DIM for _ in range(so32.DIM)]
    specified = set()
    for label, terms in images.items():
        j = so32.COMPLEX_LABELS.index(label)
        specified.add(j)
        for coef, target in terms:
            zcols[j][so32.COMPLEX_LABELS.index(target)] = GQ.of(coef)
    for j in range(so32.DIM):
        cj = so32.CONJ_PERM[j]
        if j in specified and cj not in specified:
            for i in range(so32.DIM):
                zcols[cj][so32.CONJ_PERM[i]] = zcols[j][i].conj()
    mz = Matrix.from_columns(zcols)
    mreal = complex_basis_matrix() @ mz @ complex_basis_matrix_inv()
    for r in range(so32.DIM):
        for c in range(so32.DIM):
            if not mreal[r, c].is_real():
                raise ValueError("images do not define a real endomorphism")
            if c in carrier.indices and r not in carrier.indices and mreal[r, c]:
                raise ValueError("image leaves the carrier")
    idx = carrier.indices
    return Matrix([[mreal[r, c] for c in idx] for r in idx])


def endo_complex_matrix(carrier: Carrier, m: Matrix) -> Matrix:
    """The endomorphism in complexified coordinates of the carrier."""
    full = [[GQ(0)] * so32.DIM for _ in range(so32.DIM)]
    for p, i in enumerate(carrier.indices):
        for q, j in enumerate(carrier.indices):
            full[i][j] = m[p, q]
    zfull = complex_basis_matrix_inv() @ Matrix(full) @ complex_basis_matrix()
    idx = carrier.indices
    return Matrix([[zfull[r, c] for c in idx] for r in idx])
