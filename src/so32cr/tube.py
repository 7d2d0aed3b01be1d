"""Exact geometry of the flat model.

Two sides of the same object:

* the projective quadric in CP^4 cut out by the vanishing of a symmetric
  and a Hermitian form (in either the diag(+,+,+,-,-) chart or the
  anti-diagonal chart of the algebra coordinates), with the isotropy
  algebra of the base point and the bracket-level Levi/cubic values;

* the tube over the future light cone in C^3, handled by exact polynomial
  calculus in (z, conj z): tangent vector fields with polynomial
  coefficients, the defining 1-form theta = (i/2)(d'rho - d''rho), Levi and
  cubic forms, and the Freeman rank sequence at rational cone points.

Everything stays inside Q[i]; sample points come from Pythagorean triples
so that all evaluations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalars import GQ, HALF, HALF_I, I
from .linalg import (Matrix, Subspace, kernel, kernel_basis, rank, real_rows,
                     rref, vec)
from . import so32
from .so32 import bracket_complex, COMPLEX_LABELS

# ---------------------------------------------------------------------------
# polynomials in z^1..z^3, conj z^1..conj z^3
# ---------------------------------------------------------------------------

NVARS = 6  # z1 z2 z3 zb1 zb2 zb3


class Poly:
    """Multivariate polynomial over Q[i]; terms keyed by exponent tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            c = GQ.of(c)
            if c:
                clean[tuple(mono)] = clean.get(tuple(mono), GQ(0)) + c
        self.terms = {m: c for m, c in clean.items() if c}

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
        other = other if isinstance(other, Poly) else Poly.const(other)
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

    def is_real(self) -> bool:
        return self.conj() == self

    def eval(self, z) -> GQ:
        """Value at z in Q[i]^3 (the conjugate variables get conj z)."""
        z = [GQ.of(v) for v in z]
        vals = z + [v.conj() for v in z]
        total = GQ(0)
        for m, c in self.terms.items():
            t = c
            for e, v in zip(m, vals):
                for _ in range(e):
                    t = t * v
            total = total + t
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
    (d/dz1, d/dz2, d/dz3, d/dzb1, d/dzb2, d/dzb3)."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(
            c if isinstance(c, Poly) else Poly.const(c) for c in comps
        )
        if len(comps) != NVARS:
            raise ValueError("need 6 components")
        self.comps = comps

    @staticmethod
    def zero() -> "Field":
        return Field([Poly()] * NVARS)

    def __add__(self, other):
        return Field([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return Field([a - b for a, b in zip(self.comps, other.comps)])

    def scale(self, c) -> "Field":
        c = c if isinstance(c, Poly) else Poly.const(c)
        return Field([c * a for a in self.comps])

    def conj(self) -> "Field":
        comps = [c.conj() for c in self.comps]
        return Field(comps[3:] + comps[:3])

    def holomorphic_part(self) -> "Field":
        return Field(list(self.comps[:3]) + [Poly()] * 3)

    def antiholomorphic_part(self) -> "Field":
        return Field([Poly()] * 3 + list(self.comps[3:]))

    def is_type10(self) -> bool:
        return all(c.is_zero() for c in self.comps[3:])

    def apply(self, f: Poly) -> Poly:
        out = Poly()
        for i, c in enumerate(self.comps):
            if not c.is_zero():
                out = out + c * f.diff(i)
        return out

    def bracket(self, other: "Field") -> "Field":
        return Field(
            [
                self.apply(oc) - other.apply(sc)
                for sc, oc in zip(self.comps, other.comps)
            ]
        )

    def eval(self, z):
        return tuple(c.eval(z) for c in self.comps)

    def apply_J(self) -> "Field":
        """Pointwise complex structure: +i on the (1,0) part, -i on (0,1)."""
        return self.holomorphic_part().scale(I) + self.antiholomorphic_part().scale(-I)

    def __repr__(self):
        return f"Field({self.comps!r})"


# ---------------------------------------------------------------------------
# the tube: defining function, defining form, tangent frames
# ---------------------------------------------------------------------------

SIGNS = (1, 1, -1)


@lru_cache(maxsize=1)
def rho() -> Poly:
    """(x^1)^2 + (x^2)^2 - (x^3)^2 with x^j = (z^j + conj z^j)/2."""
    out = Poly()
    for j in range(3):
        x = (Poly.var(j) + Poly.var(j + 3)) * HALF
        out = out + (x * x) * GQ(SIGNS[j])
    return out


def x_coord(j: int) -> Poly:
    return (Poly.var(j) + Poly.var(j + 3)) * HALF


def theta_of(field: Field) -> Poly:
    """theta(X) for theta = (i/2)(d'rho - d''rho), as an exact polynomial."""
    r = rho()
    out = Poly()
    for j in range(3):
        out = out + r.diff(j) * field.comps[j]
        out = out - r.diff(j + 3) * field.comps[j + 3]
    return out * HALF_I


def drho_of(field: Field) -> Poly:
    r = rho()
    out = Poly()
    for i in range(NVARS):
        out = out + r.diff(i) * field.comps[i]
    return out


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


@dataclass(frozen=True)
class ConePoint:
    """A point z = x + iy with x on the future light cone, all rational."""

    z: tuple

    def __post_init__(self):
        z = vec(self.z)
        if len(z) != 3:
            raise ValueError("need 3 complex coordinates")
        object.__setattr__(self, "z", z)
        x = [c.re for c in z]
        if x[0] * x[0] + x[1] * x[1] - x[2] * x[2] != 0:
            raise ValueError("real part is not on the cone")
        if x[2] <= 0:
            raise ValueError("not on the future half (x^3 must be positive)")


SAMPLE_POINTS = (
    ConePoint((GQ(3, Fraction(1, 2)), GQ(4, -2), GQ(5, 1))),
    ConePoint((GQ(5), GQ(12, 1), GQ(13, Fraction(-1, 3)))),
    ConePoint((GQ(8, 2), GQ(15), GQ(17, 5))),
    ConePoint((GQ(1), GQ(0), GQ(1))),
    ConePoint((GQ(20, -1), GQ(21, Fraction(1, 7)), GQ(29))),
)


def _check_d_section(field: Field, p: ConePoint):
    if drho_of(field).eval(p.z) != GQ(0):
        raise ValueError("field is not tangent to the tube at the point")
    if theta_of(field).eval(p.z) != GQ(0):
        raise ValueError("field is not a section of the contact distribution")


def levi_form_at(p: ConePoint, vf: Field, wf: Field) -> GQ:
    """-theta_p([V, JW]) for sections of the contact distribution."""
    _check_d_section(vf, p)
    _check_d_section(wf, p)
    return -theta_of(vf.bracket(wf.apply_J())).eval(p.z)


def cubic_form_at(p: ConePoint, e: Field, h: Field, hp: Field) -> GQ:
    """theta_p([[E, H], H']) for E a holomorphic rib field and H, H'
    antiholomorphic sections of the contact distribution."""
    if not e.is_type10():
        raise ValueError("first argument must be of type (1,0)")
    _, _, _, R = cone_fields()
    if not Subspace(6, [R.eval(p.z)]).contains(e.eval(p.z)):
        raise ValueError("first argument must point along the rib")
    for f in (h, hp):
        # the value matters pointwise: (0,1) and tangent at p
        if any(c for c in f.eval(p.z)[:3]):
            raise ValueError("argument is not antiholomorphic at the point")
        if drho_of(f).eval(p.z) != GQ(0):
            raise ValueError("argument not tangent at the point")
    return theta_of(e.bracket(h).bracket(hp)).eval(p.z)


def _d10_frame_at(p: ConePoint):
    """Two of the three L-fields that are independent at p (the first two
    pivot columns of their values), and their values at p."""
    fields = cone_fields()[:3]
    values = [f.eval(p.z) for f in fields]
    pivots = rref(Matrix.from_columns(values))[1]
    if len(pivots) < 2:
        raise ArithmeticError("contact frame degenerates at the point")
    a, b = pivots[:2]
    return (fields[a], fields[b]), (values[a], values[b])


def levi_hermitian_rank(p: ConePoint) -> int:
    """Rank of the Hermitian Levi matrix on a holomorphic frame."""
    (f1, f2), _ = _d10_frame_at(p)
    gram = Matrix(
        [
            [levi_form_at(p, a, b.conj()) for b in (f1, f2)]
            for a in (f1, f2)
        ]
    )
    return rank(gram)


def _real_parts(f: Field):
    """The real fields f + conj f and i(f - conj f)."""
    return [f + f.conj(), (f - f.conj()).scale(I)]


def _real_frame_at(p: ConePoint):
    """Four real fields framing the distribution at p, and their values at
    p: the real parts of R and of the first frame field, or of the second
    when those four are dependent at p."""
    (f1, f2), _ = _d10_frame_at(p)
    _, _, _, R = cone_fields()
    rib = _real_parts(R)
    rib_values = [f.eval(p.z) for f in rib]
    for f in (f1, f2):
        extra = _real_parts(f)
        values = rib_values + [g.eval(p.z) for g in extra]
        if rank(Matrix(values)) == 4:
            break
    return rib + extra, values


def _levi_gram(p: ConePoint, reals) -> Matrix:
    return Matrix([[levi_form_at(p, a, b) for b in reals] for a in reals])


def levi_real_gram(p: ConePoint) -> Matrix:
    """The 4x4 Gram of the Levi form on a real frame of the distribution."""
    return _levi_gram(p, _real_frame_at(p)[0])


def rib_span_at(p: ConePoint) -> Subspace:
    _, _, _, R = cone_fields()
    return Subspace(6, [u.eval(p.z) for u in _real_parts(R)])


def levi_kernel_at(p: ConePoint) -> Subspace:
    """Kernel of the Levi form inside the distribution at p, as vectors."""
    reals, values = _real_frame_at(p)
    frame = Matrix.from_columns(values)
    return Subspace(6, [
        frame.apply(coef) for coef in kernel_basis(_levi_gram(p, reals))
    ])


def freeman_ranks_at(p: ConePoint):
    """(dim F^10_-1, dim F^10_0, dim F^10_1) by exact pointwise solves."""
    (f1, f2), values = _d10_frame_at(p)
    _, _, _, R = cone_fields()
    r_at = R.eval(p.z)
    conj_frame = [f1.conj(), f2.conj()]
    # step 0: X with theta([X, conj frame]) = 0 at p  (the Levi kernel)
    rows = [
        [theta_of(f.bracket(cb)).eval(p.z) for f in (f1, f2)]
        for cb in conj_frame
    ]
    sol = kernel_basis(Matrix(rows, ncols=2))
    frame = Matrix.from_columns(values)
    f0 = Subspace(6, [frame.apply(coef) for coef in sol])
    dim_f0 = f0.dim
    # the solver must recover the ruling direction; otherwise the ambient
    # frame fields would be unusable for the next step
    if f0 != Subspace(6, [r_at]):
        raise ArithmeticError("rib direction mismatch at the sample point")
    # step 1: c R with [cR, conj frame] in span{R} + D^01 at p
    span = Subspace(6, [r_at] + [cb.eval(p.z) for cb in conj_frame])
    dim_f1 = 1
    for cb in conj_frame:
        if not span.contains(R.bracket(cb).eval(p.z)):
            dim_f1 = 0
            break
    return (2, dim_f0, dim_f1)


# ---------------------------------------------------------------------------
# projective quadric model
# ---------------------------------------------------------------------------

CHARTS = ("diag", "antidiag")

_DIAG_SIGNS = (1, 1, 1, -1, -1)

# antidiag coordinates t in terms of diag coordinates s (real matrix):
# t0 = s0+s4, t1 = s1+s3, t2 = s2, t3 = (s1-s3)/2, t4 = (s0-s4)/2
_DIAG_TO_ANTIDIAG = Matrix(
    [
        [1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, HALF, 0, -HALF, 0],
        [HALF, 0, 0, 0, -HALF],
    ]
)


@dataclass(frozen=True)
class ProjectivePoint:
    homogeneous: tuple
    chart: str = "diag"

    def __post_init__(self):
        h = vec(self.homogeneous)
        if len(h) != 5 or all(not c for c in h):
            raise ValueError("need a nonzero 5-vector")
        if self.chart not in CHARTS:
            raise ValueError("chart must be 'diag' or 'antidiag'")
        object.__setattr__(self, "homogeneous", h)

    def to_chart(self, chart: str) -> "ProjectivePoint":
        if chart == self.chart:
            return self
        if chart == "antidiag":
            return ProjectivePoint(
                _DIAG_TO_ANTIDIAG.apply(self.homogeneous), "antidiag"
            )
        from .linalg import inverse

        return ProjectivePoint(
            inverse(_DIAG_TO_ANTIDIAG).apply(self.homogeneous), "diag"
        )

    def same_point(self, other: "ProjectivePoint") -> bool:
        o = other.to_chart(self.chart)
        m = Matrix([list(self.homogeneous), list(o.homogeneous)], ncols=5)
        return rank(m) == 1


def quadric_eval(t: ProjectivePoint):
    """((t,t), <t,t>, Im(t^3 conj t^4)); the third slot is chart-bound and
    None in the anti-diagonal chart, where the orbit inequality is not
    evaluated."""
    h = t.homogeneous
    if t.chart == "diag":
        bil = sum((GQ(s) * c * c for s, c in zip(_DIAG_SIGNS, h)), GQ(0))
        herm = sum(
            (GQ(s) * c.conj() * c for s, c in zip(_DIAG_SIGNS, h)), GQ(0)
        )
        third = (h[3] * h[4].conj()).im
        return bil, herm, GQ(third)
    form = so32.iform()
    bil = sum(
        (form[i, j] * h[i] * h[j]
         for i in range(5) for j in range(5) if form[i, j]),
        GQ(0),
    )
    herm = sum(
        (form[i, j] * h[i].conj() * h[j]
         for i in range(5) for j in range(5) if form[i, j]),
        GQ(0),
    )
    return bil, herm, None


def in_model(t: ProjectivePoint) -> bool:
    bil, herm, third = quadric_eval(t.to_chart("diag"))
    return bil.is_zero() and herm.is_zero() and third.im == 0 and third.re > 0


BASE_POINT = ProjectivePoint((GQ(1), I, GQ(0), GQ(0), GQ(0)), "antidiag")


def embed_f(z) -> ProjectivePoint:
    """[-i/2 - (i/2)q : z1 : z2 : z3 : -i/2 + (i/2)q], q = z1^2+z2^2-z3^2."""
    z = [GQ.of(c) for c in z]
    q = z[0] * z[0] + z[1] * z[1] - z[2] * z[2]
    return ProjectivePoint(
        (-HALF_I - HALF_I * q, z[0], z[1], z[2], -HALF_I + HALF_I * q), "diag"
    )


def isotropy_algebra(v: ProjectivePoint) -> Subspace:
    """{A in so(3,2) : A v in span v} as a subspace of the coordinate space.

    The line-stabilizer condition admits eigenvalue zero (the top-grade
    generator annihilates the base point)."""
    h = v.to_chart("antidiag").homogeneous
    pivot = next(i for i, c in enumerate(h) if c)
    images = [b.apply(h) for b in so32.basis_matrices()]
    rows = [
        [w[j] * h[pivot] - w[pivot] * h[j] for w in images]
        for j in range(5) if j != pivot
    ]
    return kernel(real_rows(Matrix(rows, ncols=so32.DIM)))


def model_levi_cubic(theta_scale=1):
    """Levi and cubic values of the model from pure bracket projections,
    with theta the covector dual to the grade -2 direction (scaled)."""
    s = GQ.of(theta_scale)
    zl = COMPLEX_LABELS.index

    def theta(zcoords) -> GQ:
        return s * zcoords[0]

    e1_10 = zl("e^-1(10)")
    e1_01 = zl("e^-1(01)")
    e0_10 = zl("e^0(10)")
    # Levi: -theta([e^-1(10), J e^-1(01)]), J acting as -i on the (01) side
    levi = -theta(
        tuple(c * (-I) for c in bracket_complex(e1_10, e1_01))
    )
    # cubic: theta([[e^0(10), e^-1(01)], e^-1(01)])
    ad_e1_01 = Matrix.from_columns(
        [bracket_complex(idx, e1_01) for idx in range(so32.DIM)])
    cubic = theta(ad_e1_01.apply(bracket_complex(e0_10, e1_01)))
    return levi, cubic


def embedding_identity_check():
    """The two polynomial identities of the embedding, as exact booleans."""
    q = Poly()
    for j, s in enumerate(SIGNS):
        q = q + (Poly.var(j) * Poly.var(j)) * GQ(s)
    comps = [
        Poly.const(-HALF_I) + q * (-HALF_I),
        Poly.var(0),
        Poly.var(1),
        Poly.var(2),
        Poly.const(-HALF_I) + q * HALF_I,
    ]
    bil = Poly()
    herm = Poly()
    for s, c in zip(_DIAG_SIGNS, comps):
        bil = bil + (c * c) * GQ(s)
        herm = herm + (c.conj() * c) * GQ(s)
    return {
        "symmetric_form_vanishes": bil.is_zero(),
        "hermitian_form_is_twice_rho": (herm - rho() * GQ(2)).is_zero(),
    }
