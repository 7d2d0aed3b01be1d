"""Exact geometry of the flat model.

Two sides of the same object:

* the projective quadric in CP^4 cut out by the vanishing of a symmetric
  and a Hermitian form, the embedding of the tube into it, and the orbit
  value that picks out the model.  There is one chart: a point is its
  5-tuple in the diag(+,+,+,-,-) chart, and a point given in the
  anti-diagonal chart of the algebra coordinates is converted once, on
  input;

* the tube over the future light cone in C^3: tangent vector fields with
  polynomial coefficients in (z, conj z), and at rational cone points the
  form theta = (i/2)(d'rho - d''rho), the Levi and cubic forms and the
  Freeman ranks, read there from values of the fields.

Only the point changes from one pointwise evaluation to the next, so what
does not depend on it is built once: each field's table of nonzero first
partials, its conjugate and J image, its brackets with other fields, the
real parts of the cone fields and the gradient of rho, on first use; each
polynomial's terms are compiled once into coefficients and (variable,
exponent) factors.  At a point, one power table holds the powers of each
coordinate, and every evaluation reads it.  rho is a quadratic in x = Re z,
so d theta = (i/2) sum_j eps_j dzb_j ^ dz_j, eps = (1, 1, -1), is constant:
on sections of the contact distribution the Levi entry -theta_p([V, JW]) is
d theta_p(V(p), JW(p)) and the cubic theta_p([[E, H], H']) is
-d theta_p([E, H](p), H'(p)), read from values with no jet; [E, H](p) is
the kept bracket field, evaluated.  Whether x^1 = 0 picks the frames.

Everything stays inside Q[i]; sample points come from Pythagorean triples
so that all evaluations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .scalars import GQ, HALF, HALF_I, I, ZERO
from .linalg import Matrix, Subspace, kernel_basis, rank, vec

# ---------------------------------------------------------------------------
# polynomials in z^1..z^3, conj z^1..conj z^3
# ---------------------------------------------------------------------------

NVARS = 6  # z1 z2 z3 zb1 zb2 zb3


class Powers:
    """The powers of z^1..z^3, conj z^1..conj z^3 at one point: row v holds
    1, x_v, x_v^2, ..., each computed once.  The rows grow to the highest
    exponent an evaluation asks for."""

    __slots__ = ("rows",)

    def __init__(self, z):
        z = [GQ.of(v) for v in z]
        self.rows = [[GQ(1), v] for v in z + [v.conj() for v in z]]

    def upto(self, degree: int):
        """Extend every row to the power x_v^degree."""
        while len(self.rows[0]) <= degree:
            for row in self.rows:
                row.append(row[-1] * row[1])


class Poly:
    """Multivariate polynomial over Q[i]; terms keyed by exponent tuples.

    The terms are compiled once, on first evaluation, into (coefficient,
    nonzero (variable, exponent) factors) and the highest exponent."""

    __slots__ = ("terms", "_compiled")

    def __init__(self, terms=None):
        self.terms = {}
        self._compiled = None
        for mono, c in (terms or {}).items():
            c = GQ.of(c)
            if c:
                self.terms[tuple(mono)] = c

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0,) * NVARS: GQ.of(c)})

    @staticmethod
    def var(i: int) -> "Poly":
        mono = [0] * NVARS
        mono[i] = 1
        return Poly({tuple(mono): GQ(1)})

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, GQ(0)) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, GQ(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = list(m)
                m2[i] -= 1
                out[tuple(m2)] = c * GQ(m[i])
        return Poly(out)

    def conj(self) -> "Poly":
        """Formal conjugate: swap z and conj z, conjugate coefficients."""
        out = {}
        for m, c in self.terms.items():
            out[m[3:] + m[:3]] = c.conj()
        return Poly(out)

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, powers: Powers) -> GQ:
        """Value at the point of the power table (the conjugate variables
        get conj z)."""
        if not self.terms:
            return ZERO
        if self._compiled is None:
            self._compiled = (
                tuple((c, tuple((v, e) for v, e in enumerate(m) if e))
                      for m, c in self.terms.items()),
                max(max(m) for m in self.terms))
        terms, degree = self._compiled
        rows = powers.rows
        if len(rows[0]) <= degree:
            powers.upto(degree)
        total = ZERO
        for c, factors in terms:
            for v, e in factors:
                c = c * rows[v][e]
            total = total + c
        return total

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        names = ["z1", "z2", "z3", "zb1", "zb2", "zb3"]
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e
            )
            parts.append(f"({c.to_str()})" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"


class Field:
    """Vector field with polynomial coefficients over the frame
    (d/dz1, d/dz2, d/dz3, d/dzb1, d/dzb2, d/dzb3).

    Fields are immutable, so the table of first partials, the conjugate and
    the J image are each built once, on first use, and kept; so is each
    bracket [V, W], on W and keyed by V."""

    __slots__ = ("comps", "_partials", "_conj", "_J", "_brackets")

    def __init__(self, comps):
        comps = tuple(
            c if isinstance(c, Poly) else Poly.const(c) for c in comps
        )
        if len(comps) != NVARS:
            raise ValueError("need 6 components")
        self.comps = comps
        self._partials = self._conj = self._J = None
        self._brackets = {}

    def __add__(self, other):
        return Field([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return Field([a - b for a, b in zip(self.comps, other.comps)])

    def scale(self, c) -> "Field":
        return Field([a * c for a in self.comps])

    def partials(self):
        """The first partials d_j V^i that are not identically zero, as
        (i, j, d_j V^i)."""
        if self._partials is None:
            self._partials = tuple(
                (i, j, d) for i, c in enumerate(self.comps) if not c.is_zero()
                for j in range(NVARS) if not (d := c.diff(j)).is_zero())
        return self._partials

    def conj(self) -> "Field":
        if self._conj is None:
            comps = [c.conj() for c in self.comps]
            self._conj = Field(comps[3:] + comps[:3])
            self._conj._conj = self
        return self._conj

    def is_type10(self) -> bool:
        return all(c.is_zero() for c in self.comps[3:])

    def bracket(self, other: "Field") -> "Field":
        """[V, W]^k = V(W^k) - W(V^k), from the two tables of partials.

        The result is kept on W, so a fresh W (a perturbed field) is never
        held by a kept V."""
        kept = other._brackets.get(self)
        if kept is None:
            comps = [Poly()] * NVARS
            for k, i, d in other.partials():
                if not self.comps[i].is_zero():
                    comps[k] = comps[k] + self.comps[i] * d
            for k, i, d in self.partials():
                if not other.comps[i].is_zero():
                    comps[k] = comps[k] - other.comps[i] * d
            kept = other._brackets[self] = Field(comps)
        return kept

    def eval(self, powers: Powers):
        """Values at the point of the power table."""
        return tuple(c.eval(powers) for c in self.comps)

    def apply_J(self) -> "Field":
        """Pointwise complex structure: +i on the (1,0) part, -i on (0,1)."""
        if self._J is None:
            self._J = Field([c * I for c in self.comps[:3]]
                            + [c * -I for c in self.comps[3:]])
        return self._J

    def __repr__(self):
        return f"Field({self.comps!r})"


# ---------------------------------------------------------------------------
# the tube: defining function, defining form, tangent frames
# ---------------------------------------------------------------------------

def cone_quadratic(v):
    """v1^2 + v2^2 - v3^2, for scalars and polynomials alike."""
    return v[0] * v[0] + v[1] * v[1] - v[2] * v[2]


def x_coord(j: int) -> Poly:
    return (Poly.var(j) + Poly.var(j + 3)) * HALF


@lru_cache(maxsize=1)
def rho() -> Poly:
    """The cone quadratic of x^j = (z^j + conj z^j)/2."""
    return cone_quadratic([x_coord(j) for j in range(3)])


@lru_cache(maxsize=1)
def cone_fields():
    """(L12, L13, L23, R): three tangent (1,0) fields and the ruling field.

    L_jk = rho_{z^k} d/dz^j - rho_{z^j} d/dz^k annihilates rho identically;
    R = sum x^j d/dz^j satisfies R(rho) = rho (Euler), so it is tangent
    along the cone and spans the holomorphic rib direction."""
    r = rho()

    def L(j, k):
        comps = [Poly()] * NVARS
        comps[j] = r.diff(k)
        comps[k] = -r.diff(j)
        return Field(comps)

    R = Field([x_coord(0), x_coord(1), x_coord(2), Poly(), Poly(), Poly()])
    return L(0, 1), L(0, 2), L(1, 2), R


@lru_cache(maxsize=1)
def cone_real_parts():
    """The real fields (f + conj f, i(f - conj f)) of each cone field, in
    the order of ``cone_fields()``."""
    return tuple((f + f.conj(), (f - f.conj()).scale(I))
                 for f in cone_fields())


@lru_cache(maxsize=1)
def _rho_gradient():
    return tuple(rho().diff(i) for i in range(NVARS))


@dataclass(frozen=True)
class ConePoint:
    """A point z = x + iy with x on the future light cone, all rational."""

    z: tuple

    def __post_init__(self):
        z = vec(self.z)
        if len(z) != 3:
            raise ValueError("need 3 complex coordinates")
        object.__setattr__(self, "z", z)
        if cone_quadratic([GQ(c.re) for c in z]):
            raise ValueError("real part is not on the cone")
        if z[2].re <= 0:
            raise ValueError("not on the future half (x^3 must be positive)")

    @cached_property
    def powers(self) -> Powers:
        """The point's one power table, read by every evaluation at it."""
        return Powers(self.z)


def covectors_at(p: ConePoint) -> Matrix:
    """Rows d rho_p and theta_p = (i/2)(d'rho - d''rho)_p on the frame
    (d/dz, d/dzb), read off the gradient of rho at p."""
    grad = [g.eval(p.powers) for g in _rho_gradient()]
    theta = [g * HALF_I for g in grad[:3]] + [g * -HALF_I for g in grad[3:]]
    return Matrix([grad, theta])


_EPS = (1, 1, -1)  # the signs of rho, and of d theta


def _dtheta(u, v) -> GQ:
    """d theta_p(u, v) = (i/2) sum_j eps_j (u^jb v^j - u^j v^jb) on two
    vectors of the frame (d/dz, d/dzb): d theta is constant, so it needs no
    point."""
    total = ZERO
    for j, eps in enumerate(_EPS):
        term = u[j + 3] * v[j] - u[j] * v[j + 3]
        total = total + term if eps > 0 else total - term
    return total * HALF_I


def _section_value(cov: Matrix, field: Field, p: ConePoint):
    """V(p) for a field that must lie in the contact distribution at p."""
    value = field.eval(p.powers)
    if any(cov.apply(value)):
        raise ValueError("field is not a section of the contact distribution"
                         " at the point")
    return value


def levi_form_at(p: ConePoint, vf: Field, wf: Field) -> GQ:
    """-theta_p([V, JW]) = d theta_p(V(p), JW(p)).  The identity needs V and
    JW to be sections of the contact distribution near p (theta(V) = 0 mod
    rho, and so for JW); only their values at p are checked."""
    return _levi_gram(p, [vf], [wf])[0, 0]


def cubic_form_at(p: ConePoint, e: Field, h: Field, hp: Field) -> GQ:
    """theta_p([[E, H], H']) = -d theta_p([E, H](p), H'(p)) for E a
    holomorphic rib field and H, H' antiholomorphic sections of the contact
    distribution; [E, H](p) is the value of the kept bracket field.  The
    identity needs H, H' to be sections near p and E to stay in the Levi
    kernel along the tube (d theta(E, H) = 0 mod rho), so that [E, H] is a
    section too; only the values at p are checked."""
    if not e.is_type10():
        raise ValueError("first argument must be of type (1,0)")
    _, _, _, R = cone_fields()
    if not Subspace(6, [R.eval(p.powers)]).contains(e.eval(p.powers)):
        raise ValueError("first argument must point along the rib")
    cov = covectors_at(p)
    values = [_section_value(cov, f, p) for f in (h, hp)]
    if any(any(value[:3]) for value in values):
        raise ValueError("argument is not antiholomorphic at the point")
    return -_dtheta(e.bracket(h).eval(p.powers), values[1])


def _d10_frame_at(p: ConePoint):
    """Two L-fields independent at p, and their values there: L12 and L13,
    or L12 and L23 where x^1 = 0.  L12 = (x^2, -x^1, 0) is nonzero on the
    cone, L13 = (-x^3, 0, -x^1) leaves its line iff x^1 != 0, and L23 =
    (0, -x^3, -x^2) always does; these are the first two pivot columns of
    (L12, L13, L23)(p)."""
    l12, l13, l23, _ = cone_fields()
    fields = (l12, l13) if p.z[0].re else (l12, l23)
    return fields, tuple(f.eval(p.powers) for f in fields)


def levi_hermitian_rank(p: ConePoint) -> int:
    """Rank of the Hermitian Levi matrix on a holomorphic frame."""
    (f1, f2), _ = _d10_frame_at(p)
    return rank(_levi_gram(p, (f1, f2), (f1.conj(), f2.conj())))


def _real_frame_at(p: ConePoint):
    """Four real fields framing the distribution at p, and their values at
    p: the real parts of R and of L12.  R(p) has third entry x^3 > 0 and
    L12(p) is nonzero with third entry 0, so the two are complex-independent
    at every cone point."""
    reals = cone_real_parts()
    fields = reals[3] + reals[0]
    return fields, [f.eval(p.powers) for f in fields]


def _levi_gram(p: ConePoint, rows, cols) -> Matrix:
    """d theta_p(V(p), JW(p)) = -theta_p([V, JW]) for V in rows, W in cols,
    under ``levi_form_at``'s contract; each value is checked against the
    covectors at p, W as JW, since the contact distribution is J-invariant."""
    cov = covectors_at(p)
    row_values = [_section_value(cov, v, p) for v in rows]
    col_values = [_section_value(cov, w.apply_J(), p) for w in cols]
    return Matrix([[_dtheta(v, w) for w in col_values] for v in row_values])


def levi_real_gram(p: ConePoint) -> Matrix:
    """The 4x4 Gram of the Levi form on a real frame of the distribution."""
    reals = _real_frame_at(p)[0]
    return _levi_gram(p, reals, reals)


def rib_span_at(p: ConePoint) -> Subspace:
    return Subspace(6, [u.eval(p.powers) for u in cone_real_parts()[3]])


def levi_kernel_at(p: ConePoint) -> Subspace:
    """Kernel of the Levi form inside the distribution at p, as vectors."""
    reals, values = _real_frame_at(p)
    frame = Matrix.from_columns(values)
    gram = _levi_gram(p, reals, reals)
    return Subspace(6, [frame.apply(coef) for coef in kernel_basis(gram)])


def freeman_ranks_at(p: ConePoint):
    """(dim F^10_-1, dim F^10_0, dim F^10_1) by exact pointwise solves."""
    (f1, f2), values = _d10_frame_at(p)
    _, _, _, R = cone_fields()
    conj_frame = [f1.conj(), f2.conj()]
    r_value = R.eval(p.powers)
    # step 0 (Levi kernel): rows theta([f, conj f']) = -i (Hermitian Gram)^T
    sol = kernel_basis(_levi_gram(p, (f1, f2), conj_frame).transpose())
    frame = Matrix.from_columns(values)
    f0 = Subspace(6, [frame.apply(coef) for coef in sol])
    # the solver must recover the ruling direction; otherwise the ambient
    # frame fields would be unusable for the next step
    if f0 != Subspace(6, [r_value]):
        raise ArithmeticError("rib direction mismatch at the sample point")
    # step 1: c R with [cR, conj frame] in span{R} + D^01 at p
    span = Subspace(6, [r_value] + [cb.eval(p.powers) for cb in conj_frame])
    dim_f1 = int(all(span.contains(R.bracket(cb).eval(p.powers))
                     for cb in conj_frame))
    return (2, f0.dim, dim_f1)


# ---------------------------------------------------------------------------
# projective quadric model
# ---------------------------------------------------------------------------

_DIAG_SIGNS = (1, 1, 1, -1, -1)

# diag coordinates s in terms of anti-diagonal coordinates t (real matrix):
# s0 = t0/2 + t4, s1 = t1/2 + t3, s2 = t2, s3 = t1/2 - t3, s4 = t0/2 - t4;
# it carries diag(+,+,+,-,-) to the anti-diagonal form of the algebra
_ANTIDIAG_TO_DIAG = Matrix.from_entries(5, 5, (
    (0, 0, HALF), (0, 4, 1), (1, 1, HALF), (1, 3, 1), (2, 2, 1),
    (3, 1, HALF), (3, 3, -1), (4, 0, HALF), (4, 4, -1)))


def projective_point(coords, chart: str) -> tuple:
    """The diag-chart tuple of a point given by coordinates in ``chart``."""
    h = vec(coords)
    if len(h) != 5 or all(not c for c in h):
        raise ValueError("need a nonzero 5-vector")
    if chart not in ("diag", "antidiag"):
        raise ValueError("chart must be 'diag' or 'antidiag'")
    return _ANTIDIAG_TO_DIAG.apply(h) if chart == "antidiag" else h


def ambient_forms(s):
    """((s, s), <s, s>) over diag(+,+,+,-,-) at a diag-chart tuple s, for
    scalars and polynomials alike."""
    bil = herm = 0
    for c, sign in zip(s, _DIAG_SIGNS):
        bil = bil + c * c * sign
        herm = herm + c.conj() * c * sign
    return bil, herm


def quadric_eval(s):
    """The two forms at a diag-chart tuple s, and the orbit value
    Im(s^3 conj s^4); its sign does not depend on the representative."""
    bil, herm = ambient_forms(s)
    return bil, herm, GQ((s[3] * s[4].conj()).im)


def embedding_coords(z):
    """[-i/2 - (i/2)q : z1 : z2 : z3 : -i/2 + (i/2)q] with q the cone
    quadratic of z, for scalars and polynomials alike."""
    q = cone_quadratic(z)
    return (q * -HALF_I - HALF_I, z[0], z[1], z[2], q * HALF_I - HALF_I)


def embed_f(z) -> tuple:
    """The diag-chart tuple of the image of z under the embedding."""
    return embedding_coords([GQ.of(c) for c in z])


def embedding_identity_check():
    """The two polynomial identities of the embedding, as exact booleans:
    the diag-chart forms of ``embedding_coords`` expanded symbolically."""
    bil, herm = ambient_forms(embedding_coords([Poly.var(j) for j in range(3)]))
    return {
        "symmetric_form_vanishes": bil.is_zero(),
        "hermitian_form_is_twice_rho": (herm - rho() * GQ(2)).is_zero(),
    }
