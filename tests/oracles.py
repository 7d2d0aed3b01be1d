"""Reference computations for the paper's finite claims.

No CLI command and no benchmark workload calls these, so they live with
the tests.  Each computes a fact the engine also reaches, by a route of its
own, or states a law that the engine's results must obey:

* ``basis_matrices``, ``to_matrix``, ``from_matrix``: the ten 5x5 basis
  matrices of so(3,2); their dense commutators check the sparse structure
  constants, and their traces the Killing form.  ``iform`` is the
  anti-diagonal form they preserve, and ``grades`` the support of an
  element's grade decomposition.
* ``symmetric_signature`` (with ``trace``): the Killing signature (6, 4),
  by Faddeev-LeVerrier and Descartes' rule of signs, with no elimination.
* ``complex_basis_matrix`` and ``complex_basis_matrix_inv``: the change
  to the complexified basis as a 10x10 matrix and its inverse by
  elimination, against which the engine's pair-by-pair rule is checked.
* ``LEVELS``, ``filtration_steps``, ``fstar_ladder`` and ``gl_semitone``:
  the semitone filtration (one extra step at the h-part) and gl_k / gl_k*
  of a carrier, optionally J-compatible, of which the engine computes only
  the plain gl_k; the degree-1* J-compatible space is the algebra of
  first-order frame changes.
* ``j_rows`` and ``j_endo_space``: the J-condition (J A - A J)(v) = 0
  modulo the h-part, for v in chosen slots, as linear rows on the entries
  of A, and the kernel of those rows over an entry pattern.  The engine
  has no J-compatible space: step 0 solves [J, B] = 0 in one system with
  dB = 0 and the cubic condition.
* ``gl_graded_j``: gl_k^gr of a carrier, J-compatible on m^-1 + m^0; at
  k = 0 on m it is the 5-dimensional gauge in which the Levi and the cubic
  strong-adaptation conditions alone give the step-0 space.
* ``levi_compatibility``: the paper's Levi strong-adaptation condition on a
  degree-0 endomorphism of m, written out with its (i/2); over
  gl_0^gr(m) it cuts out the same space as step 0's dB = 0.
* ``isotropy_algebra``: the stabilizer of a point of the quadric, in the
  anti-diagonal coordinates of the basis matrices; at the base point
  ``BASE_POINT`` it has dimension 5 = 2 + 2 + 1, the prolongation
  dimensions.  ``DIAG_TO_ANTIDIAG`` takes a diag-chart tuple of
  ``so32cr.tube`` to those coordinates.
* ``SAMPLE_POINTS``: rational points of the tube, at which the tests
  evaluate its Levi, cubic and Freeman data.
* ``model_levi_cubic``: the Levi and cubic values (-1/2, -i/2) of the model
  from pure bracket projections; ``apply_field`` lets a field act on a
  polynomial (the tangent fields annihilate rho).
* ``pivot_frame_pair``: the holomorphic frame at a cone point chosen by
  elimination, the first two pivot columns of (L12, L13, L23)(p), against
  which the sign test of ``tube._d10_frame_at`` is checked.
* ``j_image``, ``real_parts`` and ``dtheta``: the J image and the real parts
  of a field as whole polynomial fields, and d theta summed term by term in
  ``GQ`` arithmetic, against which the tube's values read off values and
  its integer d theta are checked.
* ``form_value``: the ``GQ`` vector of an integer form (d, re, im).
* ``covectors_at``: the rows d rho_p and theta_p at a cone point as a
  ``GQ`` matrix, from which the tests read theta_p on values of fields.
* ``act_on_cochain`` and ``rotation_action_matrix``: the adjoint action of
  grade >= 0 elements on cochains, which commutes with d and d*, keeps the
  normalization spaces, and leaves the cochain inner product invariant.
* ``evaluate_cochain``: a cochain on argument vectors (the coboundary's
  values, alternation).
* ``killing_gram``: the dense Gram of the Killing form, entry by entry
  from ``so32.killing``, of which the engine reads only the m_- x h_+
  block.
* ``ArgumentSide`` and ``argument_side``: a cochain complex built from
  argument vectors (the units of m_-, or the Killing duals of h_+ solved
  through the Gram), brackets re-expanded through a left inverse, ad as
  dense matrices; the reference coboundary evaluator reads its arguments.
* ``codifferential_by_pairing``: d* from the two Killing pairings, with the
  mirror complex on h_+ taking its values in the standard basis of g; the
  engine's d* = -(1/kappa) d_h^T on Killing-dual values must equal it
  exactly, sign included.
* ``restrict_ctorsion``, ``graded_component``, ``add_term``: the degree-k
  restriction of a full torsion ({value label: 2-form}, as
  ``coframe.flat_torsion`` builds it) to m_-, which checks the constraint
  catalog's symbol columns; ``add_term`` perturbs one torsion component.
* ``beta_gauge_response``: the response law of the beta component to a
  degree-1 frame change, which vanishes exactly on the l1 locus.
* ``endo_of_cochain`` and ``gl2_endo``: the inverse of
  ``prolong.cochain_of_endo``, and the degree-2 parameter family that the
  step-2 solution is read against.
* ``reference_apply``: a matrix times a vector, summed term by term in
  ``GQ`` arithmetic, apart from the integer form of ``Matrix.apply``.
* ``span_sum``: the sum of subspaces, spanned by their bases together;
  ``intersect``: their intersection, from the kernel of the stacked bases;
  ``coordinate_subspace``: the span of unit vectors, built in canonical
  form with no elimination.
* ``CARTAN`` and ``weight_multiplicity``: E^0(10) and E^0(01), whose ad
  actions are diagonal on the complexified basis, and the dimension of a
  joint eigenspace of linear maps inside a span, from which the tests
  read the weights of harmonic cochains and of the prolongation steps.
* ``unflatten``: the inverse of ``Matrix.flatten``, and ``EndoSubspace``: a
  space of endomorphisms of a carrier kept as a subspace of the flattened
  entries, the form of the oracle's spaces below.
* ``degree1_normalization_recipe``: the paper's degree-1 normalization
  space, the orthocomplement of the l1 gauge image inside the coboundary
  image (for the inner product of ``prolong.INNER_PRODUCT_NOTE``) plus
  ker d*, against which the engine's ker d* is checked.
* ``argparse_parse``: the command line read by ``argparse`` from
  ``cli.COMMANDS``, as the CLI read it before ``cli.parse``, against which
  the table-driven parser is fuzzed.
"""

import argparse
import contextlib
import io
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from typing import NamedTuple

from so32cr import cli, prolong, so32
from so32cr.carriers import Carrier, endo_from_complex_images
from so32cr.cochains import (Cochain, _coboundary_on, _Side, _side_m,
                             coboundary_matrix, cochain_dim, cochain_monomials,
                             codifferential_matrix)
from so32cr.forms import Form
from so32cr.linalg import (Matrix, Subspace, kernel, kernel_basis, rank,
                           real_rows, rref, solution_map)
from so32cr.scalars import (GQ, HALF, HALF_I, I, ONE, ZERO, _gq, unit_vec,
                            vec, zero_vec)
from so32cr.so32 import (_J_IMAGE, COMPLEX_LABELS, CONJ_PERM, DIM, GRADES,
                         IN_H, M_MINUS, N, bracket_complex, bracket_coords,
                         to_complex_basis)
from so32cr.tube import _EPS, ConePoint, Field, Poly, cone_fields

# ---------------------------------------------------------------------------
# vector sums and a matrix times a vector
# ---------------------------------------------------------------------------


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, v) -> tuple:
    c = GQ.of(c)
    return tuple(c * a for a in v)


def reference_apply(m: Matrix, v) -> tuple:
    """m v, each product and each partial sum a reduced GQ."""
    v = vec(v)
    if len(v) != m.ncols:
        raise ValueError("shape mismatch in apply")
    out = []
    for r in m.rows:
        total = ZERO
        for j, a in r:
            total = total + a * v[j]
        out.append(total)
    return tuple(out)


def column_blocks(m: Matrix) -> set:
    """The column sets of the connected components of the graph that joins
    each row of m to the columns of its nonzero entries, found by a search
    from each column (``Matrix.apply`` finds them in one pass instead)."""
    rows_of = {}  # column -> the rows with a nonzero entry in it
    for i, r in enumerate(m.rows):
        for j, _ in r:
            rows_of.setdefault(j, []).append(i)
    blocks = set()
    for start in rows_of:
        if any(start in b for b in blocks):
            continue
        block, todo = set(), [start]
        while todo:
            j = todo.pop()
            if j not in block:
                block.add(j)
                todo += [c for i in rows_of[j] for c, _ in m.rows[i]]
        blocks.add(frozenset(block))
    return blocks


def span_sum(*spaces) -> Subspace:
    """The sum of subspaces of one ambient space."""
    (n,) = {s.ambient_dim for s in spaces}
    return Subspace(n, [v for s in spaces for v in s.basis_vectors()])


# E^0(10) and E^0(01) in algebra coordinates: their ad actions are diagonal
# on the complexified basis, with integer eigenvalues (the weights)
CARTAN = tuple(so32.complex_unit(COMPLEX_LABELS.index(label))
               for label in ("E^0(10)", "E^0(01)"))


def weight_multiplicity(actions, basis, weight) -> int:
    """dim {v in span(basis) : a(v) = w v for each a, w in zip(actions,
    weight)}, for linear maps ``actions`` on vectors and independent
    ``basis`` vectors."""
    columns = [[x for act, w in zip(actions, weight)
                for x in vec_add(act(v), vec_scale(-w, v))] for v in basis]
    return len(basis) - rank(Matrix.from_columns(columns))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a meet b: the combinations of a's basis that the kernel of the
    stacked bases [A | B] pairs with one of b's."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient_dim)
    stacked = Matrix._of(a.rows + b.rows, a.ambient_dim)
    return Subspace(a.ambient_dim, [
        a.basis.apply(k[: a.dim]) for k in kernel_basis(stacked.transpose())])


def coordinate_subspace(n: int, positions) -> Subspace:
    """The span of the unit vectors at the given positions; sorted unit
    rows are already in canonical form, so no elimination runs."""
    positions = sorted(set(positions))
    if positions and not 0 <= positions[0] <= positions[-1] < n:
        raise ValueError("coordinate position outside the ambient space")
    s = Subspace(n)
    object.__setattr__(s, "rows", tuple(((p, ONE),) for p in positions))
    return s


# ---------------------------------------------------------------------------
# endomorphisms as flattened entries
# ---------------------------------------------------------------------------


def unflatten(v, n: int) -> Matrix:
    """The n x n matrix whose row-major entries are v (inverse of flatten)."""
    if len(v) != n * n:
        raise ValueError("vector length is not n*n")
    return Matrix([v[r * n: (r + 1) * n] for r in range(n)], ncols=n)


class EndoSubspace(NamedTuple):
    carrier: Carrier
    space: Subspace  # subspace of GQ^(n*n), row-major vectorization

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_endos(self):
        n = self.carrier.dim
        return [unflatten(v, n) for v in self.space.basis_vectors()]


# ---------------------------------------------------------------------------
# the algebra as 5x5 matrices
# ---------------------------------------------------------------------------


def grades(x):
    """The grades on which the coordinate vector x is nonzero."""
    return {GRADES[i] for i, c in enumerate(x) if c}


def to_matrix(coords) -> Matrix:
    return Matrix.from_entries(N, N, (
        (i, j, c * GQ(v))
        for c, entries in zip(vec(coords), so32._BASIS_ENTRIES)
        for (i, j, v) in entries))


@lru_cache(maxsize=1)
def basis_matrices():
    """The ten 5x5 basis matrices, in the fixed order of REAL_LABELS."""
    return tuple(to_matrix(unit_vec(DIM, k)) for k in range(DIM))


def iform() -> Matrix:
    """The ambient symmetric form: 1s on the anti-diagonal."""
    return Matrix(
        [[1 if i + j == N - 1 else 0 for j in range(N)] for i in range(N)]
    )


def from_matrix(a: Matrix):
    """Coordinates of a 5x5 matrix in the basis; raises if not in so(3,2)."""
    return so32._coords_of(
        {(i, j): x for i, row in enumerate(a.rows) for j, x in row}
    )


@lru_cache(maxsize=1)
def killing_gram():
    """The Gram table of the Killing form on the real basis: row i is the
    tuple of kappa(b_i, b_j) = ``so32.killing(i, j)`` over j."""
    return tuple(tuple(so32.killing(i, j) for j in range(DIM))
                 for i in range(DIM))


def trace(m: Matrix) -> GQ:
    return sum((m[i, i] for i in range(min(m.nrows, m.ncols))), ZERO)


def symmetric_signature(gram: Matrix):
    """(n_pos, n_neg, n_zero) of a rational symmetric matrix.

    The characteristic polynomial comes from Faddeev-LeVerrier.  A real
    symmetric matrix has only real eigenvalues, so Descartes' rule of signs
    counts the positive ones exactly, and zero's multiplicity is the number
    of vanishing low-order coefficients.
    """
    if any(not x.is_real() for r in gram.rows for _, x in r):
        raise ValueError("signature of a non-real matrix")
    if gram != gram.transpose():
        raise ValueError("signature of a non-symmetric matrix")
    n = gram.nrows
    # coeffs[k] multiplies lambda^(n-k) in det(lambda I - gram)
    coeffs = [GQ(1)]
    m = Matrix.from_entries(n, n, ())
    for k in range(1, n + 1):
        m = gram @ m + Matrix.identity(n).scale(coeffs[-1])
        coeffs.append(-trace(gram @ m) / GQ(k))
    zero = n - max(k for k, c in enumerate(coeffs) if c)
    signs = [c.re_sign() > 0 for c in coeffs if c]
    pos = sum(s != t for s, t in zip(signs, signs[1:]))
    return pos, n - zero - pos, zero


# ---------------------------------------------------------------------------
# the complexified basis change as a matrix
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def complex_basis_matrix() -> Matrix:
    """Columns = complexified basis vectors in real coordinates: on each
    CONJ_PERM pair (X_1, X_2), X^(10) = (X_1 - i X_2)/2 and X^(01) =
    (X_1 + i X_2)/2; a fixed index keeps its real vector."""
    entries = []
    for i, p in enumerate(CONJ_PERM):
        if p == i:
            entries.append((i, i, 1))
        else:
            entries += [(min(i, p), i, HALF),
                        (max(i, p), i, -HALF_I if i < p else HALF_I)]
    return Matrix.from_entries(DIM, DIM, entries)


@lru_cache(maxsize=1)
def complex_basis_matrix_inv() -> Matrix:
    """The inverse basis change, real to complex coordinates, by
    elimination."""
    return solution_map(complex_basis_matrix())


# ---------------------------------------------------------------------------
# the semitone filtration and gl_k*
# ---------------------------------------------------------------------------

# semitone level: m^-2, m^-1, m^0 -> 0, 1, 2 and h^0, h^1, h^2 -> 3, 4, 5;
# the extra step at h^0 is the semitone filtration's
LEVELS = tuple(g + 2 + h for g, h in zip(GRADES, IN_H))


def filtration_steps(kind: str, indices=tuple(range(DIM))):
    """The steps of a canonical filtration of m+h, restricted to a slice of
    the basis: each step is the tuple of positions p with indices[p] of
    weight >= t, for t rising through the weights, then the zero step.

    kind "F":  weight = grade:  m+h > m^-1+m^0+h > m^0+h > h^1+h^2 > h^2 > 0
    kind "F*": weight = semitone level: the same with the extra step
    h = h^0+h^1+h^2 between m^0+h and h^1+h^2.
    """
    if kind not in ("F", "F*"):
        raise ValueError("kind must be 'F' or 'F*'")
    weights = GRADES if kind == "F" else LEVELS
    return [
        tuple(p for p, i in enumerate(indices) if weights[i] >= t)
        for t in sorted(set(weights))
    ] + [()]


def fstar_ladder(carrier: Carrier):
    """Semitone ladder V_-2, V_-1, V_(0|-1), V_(0|0), V_(0|1), V_(0|2), 0."""
    return filtration_steps("F*", range(carrier.dim))


def gl_semitone(carrier: Carrier, k: int, star: bool = False,
                j_compatible: bool = False) -> EndoSubspace:
    """gl_k / gl_k* of a carrier, optionally J-compatible.

    Plain: A(V_t) in V_{t+k} along the integer chain.  Star: the grade -2
    and -1 steps shift along the integer chain while the V_(0|j) steps shift
    along the semitone ladder.
    """
    if k < 0:
        raise ValueError("only nonnegative degrees are defined here")
    g, lv = carrier.grades, LEVELS[:carrier.dim]

    def allowed(r, c):
        # A(V_t) in V_(t+k): a column may only reach rows k steps higher.
        # Star: columns in m^0 + h step along the semitone levels, the
        # grade -2 and -1 columns along the integer grades.
        if star and g[c] >= 0:
            return lv[r] >= lv[c] + k
        return g[r] >= g[c] + k

    j_domain = fstar_ladder(carrier)[1] if j_compatible else ()
    return EndoSubspace(carrier, j_endo_space(carrier, allowed, j_domain))


# ---------------------------------------------------------------------------
# J-compatibility as rows
# ---------------------------------------------------------------------------


def j_rows(carrier: Carrier, domain_slots, coords) -> Matrix:
    """Rows expressing (J A - A J)(v) = 0 modulo the h-part for v in the
    domain slots, over the row-major entries ``coords`` of A (entries
    outside them are taken to be zero)."""
    n = carrier.dim
    jm = carrier.j_matrix()
    jt = jm.transpose()  # row c: the coordinates of J(v_c)
    hpart = {p for p in range(n) if IN_H[p]}
    column = {q: p for p, q in enumerate(coords)}
    targets = [(c, r) for c in domain_slots for r in range(n) if r not in hpart]
    entries = []
    for t, (c, r) in enumerate(targets):
        # (J A)(v_c)_r = sum_s J[r,s] A[s,c];  (A J)(v_c)_r = sum_s A[r,s] J[s,c]
        entries += [(t, s * n + c, x) for s, x in jm.rows[r]]
        entries += [(t, r * n + s, -x) for s, x in jt.rows[c]]
    return Matrix.from_entries(len(targets), len(coords), (
        (t, column[q], x) for t, q, x in entries if q in column))


def j_endo_space(carrier: Carrier, allowed, j_domain) -> Subspace:
    """Endomorphisms supported on the entries (r, c) with ``allowed(r, c)``
    and J-compatible on the ``j_domain`` slots: the kernel of the J rows
    restricted to the allowed coordinates."""
    n = carrier.dim
    coords = [r * n + c for r in range(n) for c in range(n) if allowed(r, c)]
    if not j_domain:
        return coordinate_subspace(n * n, coords)
    vectors = []
    for v in kernel_basis(j_rows(carrier, j_domain, coords)):
        w = [ZERO] * (n * n)
        for p, x in zip(coords, v):
            w[p] = x
        vectors.append(w)
    return Subspace(n * n, vectors)


def gl_graded_j(carrier: Carrier, k: int) -> EndoSubspace:
    """Graded degree-k endomorphisms B(W^g) in W^{g+k}, J-compatible on the
    slots of m where J is defined (m^-1 + m^0).  For k >= 2 the condition
    is vacuous: values at grade >= 1 land inside the h-part."""
    g = carrier.grades
    j_domain = tuple(p for p in range(carrier.dim)
                     if p in _J_IMAGE and not IN_H[p])
    return EndoSubspace(carrier, j_endo_space(
        carrier, lambda r, c: g[r] == g[c] + k, j_domain))


def levi_compatibility(b: Matrix) -> list:
    """The Levi strong-adaptation condition on a degree-0 endomorphism b of
    m, as complex algebra coordinates: all vanish iff
    [B e^-1(10), e^-1(01)] + [e^-1(10), B e^-1(01)] = (i/2) B e^-2."""
    act = partial(Carrier("m").apply_endo, b)
    e10, e01 = (so32.complex_unit(COMPLEX_LABELS.index(label))
                for label in ("e^-1(10)", "e^-1(01)"))
    c = vec_add(bracket_coords(act(e10), e01), bracket_coords(e10, act(e01)))
    return list(vec_add(c, vec_scale(-HALF_I, act(so32.real_unit("e^-2")))))


# ---------------------------------------------------------------------------
# the flat model
# ---------------------------------------------------------------------------

# anti-diagonal coordinates t in terms of diag coordinates s (real matrix):
# t0 = s0+s4, t1 = s1+s3, t2 = s2, t3 = (s1-s3)/2, t4 = (s0-s4)/2
DIAG_TO_ANTIDIAG = Matrix.from_entries(5, 5, (
    (0, 0, 1), (0, 4, 1), (1, 1, 1), (1, 3, 1), (2, 2, 1),
    (3, 1, HALF), (3, 3, -HALF), (4, 0, HALF), (4, 4, -HALF)))

# [1 : i : 0 : 0 : 0] in anti-diagonal coordinates
BASE_POINT = (GQ(1), I, GQ(0), GQ(0), GQ(0))

SAMPLE_POINTS = (
    ConePoint((GQ(3, Fraction(1, 2)), GQ(4, -2), GQ(5, 1))),
    ConePoint((GQ(5), GQ(12, 1), GQ(13, Fraction(-1, 3)))),
    ConePoint((GQ(8, 2), GQ(15), GQ(17, 5))),
    ConePoint((GQ(1), GQ(0), GQ(1))),
    ConePoint((GQ(20, -1), GQ(21, Fraction(1, 7)), GQ(29))),
)


def isotropy_algebra(h):
    """{A in so(3,2) : A h in span h} for a nonzero h in anti-diagonal
    coordinates, as a subspace of the coordinate space.

    The line-stabilizer condition admits eigenvalue zero (the top-grade
    generator annihilates the base point)."""
    h = vec(h)
    pivot = next(i for i, c in enumerate(h) if c)
    images = [b.apply(h) for b in basis_matrices()]
    rows = [
        [w[j] * h[pivot] - w[pivot] * h[j] for w in images]
        for j in range(5) if j != pivot
    ]
    return kernel(real_rows(Matrix(rows, ncols=DIM)))


def model_levi_cubic(theta_scale=1):
    """Levi and cubic values of the model from pure bracket projections,
    with theta the covector dual to the grade -2 direction (scaled)."""
    s = GQ.of(theta_scale)
    zl = COMPLEX_LABELS.index

    def theta(zcoords) -> GQ:
        return s * zcoords[zl("e^-2")]

    e1_10 = zl("e^-1(10)")
    e1_01 = zl("e^-1(01)")
    e0_10 = zl("e^0(10)")
    # Levi: -theta([e^-1(10), J e^-1(01)]), J acting as -i on the (01) side
    levi = -theta(
        tuple(c * (-I) for c in bracket_complex(e1_10, e1_01))
    )
    # cubic: theta([[e^0(10), e^-1(01)], e^-1(01)])
    ad_e1_01 = Matrix.from_columns(
        [bracket_complex(idx, e1_01) for idx in range(DIM)])
    cubic = theta(ad_e1_01.apply(bracket_complex(e0_10, e1_01)))
    return levi, cubic


def apply_field(v, f):
    """The ``tube.Field`` v acting on the ``tube.Poly`` f: sum V^i d_i f."""
    out = Poly()
    for i, c in enumerate(v.comps):
        if not c.is_zero():
            out = out + c * f.diff(i)
    return out


def j_image(v: Field) -> Field:
    """The field JV: +i on the (1,0) part, -i on the (0,1) part."""
    return Field([c * I for c in v.comps[:3]]
                 + [c * -I for c in v.comps[3:]])


def real_parts(v: Field):
    """The real fields (V + conj V, i(V - conj V))."""
    return v + v.conj(), (v + v.conj().scale(-1)).scale(I)


def dtheta(u, v) -> GQ:
    """d theta(u, v) = (i/2) sum_j eps_j (u^jb v^j - u^j v^jb), eps =
    (1, 1, -1), on two GQ 6-vectors of the frame (d/dz, d/dzb)."""
    total = ZERO
    for j, eps in enumerate((1, 1, -1)):
        term = u[j + 3] * v[j] - u[j] * v[j + 3]
        total = total + term if eps > 0 else total - term
    return total * HALF_I


def form_value(form) -> tuple:
    """The GQ vector (re + im*i)/d of an integer form (d, re, im)."""
    d, re, im = form
    return tuple(GQ(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im))


def covectors_at(p: ConePoint) -> Matrix:
    """Rows d rho_p and theta_p = (i/2)(d'rho - d''rho)_p on the frame
    (d/dz, d/dzb): d rho/dz^j = d rho/dzb^j = eps_j x^j, x^j = Re z^j."""
    d = p.powers.scale[1]  # z^j = (a_j + b_j i)/d in the power table
    x = [eps * row[1][0] for row, eps in zip(p.powers.rows, _EPS)]
    return Matrix([[_gq(a, 0, d) for a in x] * 2,
                   [_gq(0, s * a, 2 * d) for s in (1, -1) for a in x]])


def pivot_frame_pair(p: ConePoint):
    """The two L-fields whose values are the first two pivot columns of
    (L12, L13, L23)(p)."""
    fields = cone_fields()[:3]
    pivots = rref(Matrix.from_columns([f.eval(p.powers) for f in fields]))[1]
    return tuple(fields[k] for k in pivots[:2])


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------


def act_on_cochain(x, c: Cochain) -> Cochain:
    """Natural action of a grade-homogeneous x (grade >= 0 part of g) on an
    m_- cochain: ad on values minus the induced action on arguments, the
    argument bracket taken modulo everything outside m_-.  Acting by grade
    j shifts the homogeneity degree from k to k + j."""
    xgrades = grades(x)
    if len(xgrades) > 1:
        raise ValueError("actor must be grade homogeneous")
    k_out = c.k + (xgrades.pop() if xgrades else 0)
    side = _side_m()
    cm = c.coeff_map()
    # argument action matrix: proj_{m_-} [x, n_a]
    arg_act = []
    for a in M_MINUS:
        w = bracket_coords(x, unit_vec(DIM, a))
        arg_act.append(tuple(w[i] for i in M_MINUS))
    out = {}
    for (wedge, beta), coef in cm.items():
        # value part [x, g_beta]
        valbr = bracket_coords(x, unit_vec(DIM, beta))
        for b2 in range(DIM):
            if valbr[b2]:
                key = (wedge, b2)
                out[key] = out.get(key, GQ(0)) + coef * valbr[b2]
        # minus argument substitutions (covector slots transform dually);
        # from_full_table sorts each new wedge with its sign
        for pos, a in enumerate(wedge):
            for a2 in range(side.n):
                f = arg_act[a2][a]
                if f:
                    key = (wedge[:pos] + (a2,) + wedge[pos + 1:], beta)
                    out[key] = out.get(key, GQ(0)) - coef * f
    if any(side.monomial_degree(m) != k_out for m, v in out.items() if v):
        raise ArithmeticError("action did not shift homogeneity uniformly")
    return Cochain.from_full_table(c.ell, k_out, out)


def rotation_action_matrix(ell: int, k: int, x) -> Matrix:
    """Matrix of the action of a grade-0 element on a cochain slice."""
    n = cochain_dim(ell, k)
    cols = []
    for p in range(n):
        c = Cochain(ell, k, [GQ(1 if q == p else 0) for q in range(n)])
        cols.append(act_on_cochain(x, c).coords)
    return Matrix.from_columns(cols, nrows=n)


def evaluate_cochain(c: Cochain, *arg_vectors):
    """Value on elements of m_- given as 3-vectors over (e^-2, e_1^-1, e_2^-1)."""
    if len(arg_vectors) != c.ell:
        raise ValueError("wrong number of arguments")
    args = [vec(a) for a in arg_vectors]
    values = {}
    for (w, beta), coef in c.coeff_map().items():
        values.setdefault(beta, {})[w] = coef
    out = [GQ(0)] * DIM
    for beta, coeffs in values.items():
        form = Form(coeffs)
        for idx_tuple in product(range(len(M_MINUS)), repeat=c.ell):
            f = GQ(1)
            for pos, i in enumerate(idx_tuple):
                f = f * args[pos][i]
            if f:
                out[beta] += f * form.at(idx_tuple)
    return tuple(out)


class ArgumentSide(_Side):
    """A cochain complex built from argument vectors the long way, as the
    engine's sides, read off the structure constants at basis indices, are
    not: each bracket of two arguments re-expanded over them through a left
    inverse, and ad as a dense matrix of ``bracket_coords``.  Values are in
    the standard basis of g (sign +1) or in its Killing-dual basis, where ad
    acts as minus its transpose (sign -1); monomials are the engine's."""

    def __init__(self, arg_vectors, sign):
        self.args = [vec(v) for v in arg_vectors]
        self.sign, self.n = sign, len(self.args)
        span = Matrix.from_columns(self.args)
        left = solution_map(span.transpose()).transpose()
        self.bracket_coeffs = {}
        for a, b in product(range(self.n), repeat=2):
            w = bracket_coords(self.args[a], self.args[b])
            self.bracket_coeffs[a, b] = x = left.apply(w)
            assert span.apply(x) == w, "arguments do not close under bracket"
        self.d_theta = tuple(
            Form({(a, b): -self.bracket_coeffs[a, b][c]
                  for a, b in combinations(range(self.n), 2)})
            for c in range(self.n))
        self.ad_values = []
        for v in self.args:
            ad = Matrix.from_columns([bracket_coords(v, unit_vec(DIM, b))
                                      for b in range(DIM)])
            if sign < 0:
                ad = ad.transpose().scale(-1)
            self.ad_values.append([{g: x for g, x in enumerate(col) if x}
                                   for col in ad.columns()])


@lru_cache(maxsize=None)
def argument_side(sign: int) -> ArgumentSide:
    """The m_- complex on the units of m_- (sign +1), or the h_+ complex on
    the Killing-dual basis eta of h_+, kappa(n_a, eta_b) = delta_ab, solved
    through the dense Gram (sign -1)."""
    if sign > 0:
        return ArgumentSide([unit_vec(DIM, i) for i in M_MINUS], 1)
    h_plus = [i for i, g in enumerate(GRADES) if g > 0]
    gram = Matrix([[killing_gram()[i][j] for j in h_plus] for i in M_MINUS])
    embed = Matrix.from_columns([unit_vec(DIM, i) for i in h_plus])
    return ArgumentSide((embed @ solution_map(gram)).columns(), -1)


class _StandardValueSide(ArgumentSide):
    """The mirror complex on h_+ with values in the standard basis of g: a
    monomial (w, beta) has degree grade(beta) + the m_- grades of w."""

    def monomial_degree(self, mono) -> int:
        w, beta = mono
        return GRADES[beta] + sum(GRADES[M_MINUS[a]] for a in w)


@lru_cache(maxsize=1)
def _h_side_standard_values() -> ArgumentSide:
    return _StandardValueSide(argument_side(-1).args, 1)


def codifferential_by_pairing(ell: int, k: int) -> Matrix:
    """d* : C^ell_k -> C^(ell-1)_k as -(P_(ell-1)^T)^-1 d_h^T P_ell^T, with
    d_h the coboundary of the mirror complex on h_+ with standard values and
    P_l the pairing of C^l_k(m_-) with C^l_-k(h_+): the identity on the
    Killing-dual arguments times the Killing Gram on values."""
    side = _h_side_standard_values()
    gram = killing_gram()

    def pairing(l):
        rows, cols = cochain_monomials(l, k), side.graded_monomials(l, -k)
        return Matrix.from_entries(len(rows), len(cols), (
            (r, c, gram[beta][gamma])
            for r, (wm, beta) in enumerate(rows)
            for c, (wh, gamma) in enumerate(cols) if wm == wh))

    p_src, p_dst = pairing(ell), pairing(ell - 1)
    if p_dst.nrows == 0:
        return Matrix.from_entries(0, cochain_dim(ell, k), ())
    # <d* c, e> = -<c, d_h e> for all e
    d_h = _coboundary_on(side, ell - 1, -k)
    return (solution_map(p_dst.transpose()).scale(-1) @ d_h.transpose()
            @ p_src.transpose())


def degree1_normalization_recipe() -> Subspace:
    """The paper's degree-1 normalization space: the orthocomplement of the
    l1 gauge image inside the image of d on C^1_1, for the inner product
    that makes the monomial cochain basis orthonormal (Gram = identity),
    plus ker d* on C^2_1."""
    n = cochain_dim(2, 1)
    image_all = Subspace(n, coboundary_matrix(1, 1).columns())
    ortho = kernel(Matrix(prolong.gauge_image(1).basis_vectors(), ncols=n))
    return span_sum(intersect(ortho, image_all),
                    kernel(codifferential_matrix(2, 1)))


# ---------------------------------------------------------------------------
# torsion and frame changes
# ---------------------------------------------------------------------------


def add_term(torsion: dict, arg1: str, arg2: str, value_label: str,
             coef) -> dict:
    """The torsion plus coef on one (argument pair, value) component."""
    i, j, beta = (COMPLEX_LABELS.index(x) for x in (arg1, arg2, value_label))
    forms = dict(torsion)
    forms[beta] = forms.get(beta, Form()) + Form({(i, j): coef})
    return forms


def graded_component(torsion: dict, i: int, j: int, k: int):
    """tau^k on the (i, j) complexified argument pair: the value
    components of grade g_i + g_j + k, as complex g-coordinates."""
    target = GRADES[i] + GRADES[j] + k
    zero = Form()
    return tuple(
        torsion.get(beta, zero).at((i, j)) if GRADES[beta] == target
        else GQ(0)
        for beta in range(DIM)
    )


def restrict_ctorsion(torsion: dict, k: int) -> Cochain:
    """The degree-k part of the restriction to wedge pairs inside m_-,
    as a 2-cochain over the real monomial basis."""
    zc = [to_complex_basis(unit_vec(DIM, i)) for i in M_MINUS]
    table = {}
    for a, b in combinations(range(len(M_MINUS)), 2):
        val = zero_vec(DIM)
        for i, j in product(M_MINUS, repeat=2):
            f = zc[a][i] * zc[b][j]
            if f:
                val = vec_add(val, vec_scale(f, graded_component(torsion, i, j, k)))
        for beta, c in enumerate(complex_basis_matrix().apply(val)):
            table[((a, b), beta)] = c
    return Cochain.from_full_table(2, k, table)


def beta_gauge_response(mu, nu, nuprime) -> GQ:
    """Linear response of the beta component to a degree-1 frame change
    with parameters (mu, nu, nu'): -conj(mu) + nu - nu'.

    This is a frame-jet statement about the bundle construction, recorded
    here as the stated response law; it vanishes exactly on the l1 locus
    nu' = nu - conj(mu), which is why l1 is the residual gauge group once
    the beta component is normalized to zero."""
    mu, nu, nuprime = GQ.of(mu), GQ.of(nu), GQ.of(nuprime)
    return -mu.conj() + nu - nuprime


# ---------------------------------------------------------------------------
# gauge endomorphisms
# ---------------------------------------------------------------------------


def endo_of_cochain(carrier: Carrier, c: Cochain) -> Matrix:
    """The graded endomorphism acting as the 1-cochain on m_- and by zero
    on the rest of the carrier."""
    entries = []
    for ((a,), beta), coef in c.coeff_map().items():
        if beta >= carrier.dim:
            raise ValueError("cochain value leaves the carrier")
        entries.append((beta, a, coef))
    return Matrix.from_entries(carrier.dim, carrier.dim, entries)


def gl2_endo(lam, mu, nu, nup) -> Matrix:
    """Degree-2 graded endomorphism of m+h0+h1 with complex parameters:
    e^-2 -> lam e^0(10) + mu E^0(10) + conjugates,
    e^-1(10) -> nu E^1(10) + nup E^1(01)."""
    lam, mu, nu, nup = (GQ.of(x) for x in (lam, mu, nu, nup))
    return endo_from_complex_images(
        Carrier("m+h0+h1"),
        {
            "e^-2": [
                (lam, "e^0(10)"), (lam.conj(), "e^0(01)"),
                (mu, "E^0(10)"), (mu.conj(), "E^0(01)"),
            ],
            "e^-1(10)": [(nu, "E^1(10)"), (nup, "E^1(01)")],
        },
    )


# ---------------------------------------------------------------------------
# the command line by argparse
# ---------------------------------------------------------------------------

def _bare_or(kind, word):
    return word if word == "--" else kind(word)


def argparse_parse(argv):
    """``cli.parse`` by argparse: (Command, values, --json path), or
    SystemExit(0) for -h and SystemExit(2) for a usage error, with
    argparse's output swallowed.

    Two workarounds come with it.  A word after ``--z`` or ``--point`` is
    glued on as ``--z=WORD``, because argparse reads a signed list such as
    -3,4,5,0,0,0 as a flag.  A bare ``--``, as a word or as the last value
    of a flag, is a usage error: argparse drops it from ``--z=--`` (leaving
    an empty list) or keeps it, depending on its version."""
    ap = argparse.ArgumentParser(prog="so32cr", description=cli._DESCRIPTION)
    ap.add_argument("--json", metavar="PATH", help="write the report as JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)
    groups = {}
    for cmd in cli.COMMANDS:  # each leaf parser's "command" is its row
        parent = sub
        if len(cmd.words) == 2:
            group = cmd.words[0]
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=cli._GROUP_HELP[group]
                ).add_subparsers(dest="subcmd", required=True)
            parent = groups[group]
        p = parent.add_parser(cmd.words[-1], help=cmd.help)
        for flag, kind, choices, default in cmd.args:
            # a bare "--" passes type and choices, so that every version
            # keeps it for the check below
            p.add_argument(flag, type=partial(_bare_or, kind),
                           choices=choices and (*choices, "--"),
                           default=default, required=default is None)
        p.set_defaults(command=cmd)
    words = []
    for a in argv:
        if words and words[-1] in ("--z", "--point"):
            words[-1] += "=" + a
        else:
            words.append(a)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        args = ap.parse_args(words)
        cmd = args.command
        values = [getattr(args, flag[2:]) for flag, *_ in cmd.args]
        if "--" in words or any(isinstance(v, list) or v == "--"
                                for v in values + [args.json]):
            ap.error("a bare -- is not a value")
    return cmd, values, args.json
