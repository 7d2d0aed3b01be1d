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
does not depend on it is built once: each field's partials, conjugate and
brackets, and each polynomial's terms, as Gaussian-integer numerators over
one denominator.  A point's one power table holds its coordinates' powers
the same way, so an evaluation sums integer monomials and reduces once.
rho is a quadratic in x = Re z, so d theta = (i/2) sum_j eps_j dzb_j ^ dz_j,
eps = (1, 1, -1), is constant: on sections of the contact distribution the
Levi entry -theta_p([V, JW]) is d theta_p(V(p), JW(p)) and the cubic
theta_p([[E, H], H']) is -d theta_p([E, H](p), H'(p)), [E, H] the kept
bracket field; both are read off values over a common denominator.  Each
field is evaluated once per call: conjugates, J images and real parts are
read off values, and whether x^1 = 0 picks the frame.

Everything stays inside Q[i]; sample points come from Pythagorean triples
so that all evaluations are exact.

The ``run_*`` functions at the end fill the reports of the ``so32cr model``
commands.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import (GQ, HALF, HALF_I, I, ZERO, _gq,
                      over_common_denominator, rat_from_str)
from .linalg import Matrix, Subspace, kernel_basis, rank, vec

# ---------------------------------------------------------------------------
# polynomials in z^1..z^3, conj z^1..conj z^3
# ---------------------------------------------------------------------------

NVARS = 6  # z1 z2 z3 zb1 zb2 zb3
_EPS = (1, 1, -1)  # the signs of rho, and of d theta


class Powers:
    """The powers of z^1..z^3, conj z^1..conj z^3 at one point over D, the
    lcm of the coordinates' denominators: row v holds the Gaussian-integer
    numerators (re, im) of x_v^e over D^e, and ``scale`` holds D^e, for
    e = 0, 1, ... up to the highest degree an evaluation asks for."""

    __slots__ = ("rows", "scale")

    def __init__(self, z):
        d, re, im = over_common_denominator([GQ.of(v) for v in z])
        self.scale = [1, d]
        self.rows = [[(1, 0), (a, sign * b)] for sign in (1, -1)
                     for a, b in zip(re, im)]

    def upto(self, degree: int):
        """Extend the scale and every row to the power degree."""
        while len(self.scale) <= degree:
            self.scale.append(self.scale[-1] * self.scale[1])
            for row in self.rows:
                (a, b), (c, e) = row[-1], row[1]
                row.append((a * c - b * e, a * e + b * c))


class Poly:
    """Multivariate polynomial over Q[i]; terms keyed by exponent tuples.

    On first evaluation the terms are compiled into Gaussian-integer
    numerators (re, im) over one denominator C, each with its nonzero
    (variable, exponent) factors and its gap to the top total degree."""

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
        return Poly({tuple(int(j == i) for j in range(NVARS)): GQ(1)})

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
        other = other if isinstance(other, Poly) else Poly.const(other)
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
                out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * GQ(m[i])
        return Poly(out)

    def conj(self) -> "Poly":
        """Formal conjugate: swap z and conj z, conjugate coefficients."""
        return Poly({m[3:] + m[:3]: c.conj() for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, powers: Powers) -> GQ:
        """Value at the point of the power table (the conjugate variables
        get conj z): each term, scaled by D^gap, lies over C D^deg, so the
        sum is two ints, reduced once."""
        if not self.terms:
            return ZERO
        if self._compiled is None:
            den, re, im = over_common_denominator(list(self.terms.values()))
            deg = max(map(sum, self.terms))
            self._compiled = deg, den, tuple(
                (a, b, tuple((v, e) for v, e in enumerate(m) if e),
                 deg - sum(m)) for m, a, b in zip(self.terms, re, im))
        deg, den, terms = self._compiled
        if len(powers.scale) <= deg:
            powers.upto(deg)
        rows, scale = powers.rows, powers.scale
        s = t = 0
        for a, b, factors, gap in terms:
            for v, e in factors:
                c, d = rows[v][e]
                a, b = a * c - b * d, a * d + b * c
            s += a * scale[gap]
            t += b * scale[gap]
        return _gq(s, t, den * scale[deg])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({ {m: c.to_str() for m, c in self.terms.items()} })"


class Field:
    """Vector field with polynomial coefficients over the frame
    (d/dz1, d/dz2, d/dz3, d/dzb1, d/dzb2, d/dzb3).

    Fields are immutable, so the table of first partials and the conjugate
    are each built once, on first use, and kept; so is each bracket [V, W],
    on W and keyed by V."""

    __slots__ = ("comps", "_partials", "_conj", "_brackets")

    def __init__(self, comps):
        comps = tuple(c if isinstance(c, Poly) else Poly.const(c)
                      for c in comps)
        if len(comps) != NVARS:
            raise ValueError("need 6 components")
        self.comps = comps
        self._partials = self._conj = None
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

    def __repr__(self):
        return f"Field({self.comps!r})"


# ---------------------------------------------------------------------------
# the tube: defining function, defining form, tangent frames
# ---------------------------------------------------------------------------

def cone_quadratic(v):
    """v1^2 + v2^2 - v3^2, for scalars and polynomials alike."""
    return v[0] * v[0] + v[1] * v[1] - v[2] * v[2]


@lru_cache(maxsize=1)
def rho() -> Poly:
    """The cone quadratic of x^j = (z^j + conj z^j)/2."""
    return cone_quadratic([(Poly.var(j) + Poly.var(j + 3)) * HALF
                           for j in range(3)])


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

    # x^j = eps_j rho_{z^j}
    R = Field([r.diff(j) * eps for j, eps in enumerate(_EPS)] + [Poly()] * 3)
    return L(0, 1), L(0, 2), L(1, 2), R


class ConePoint:
    """An immutable point z = x + iy with x on the future light cone, all
    rational."""

    __slots__ = ("z", "_powers")

    def __init__(self, z):
        z = vec(z)
        if len(z) != 3:
            raise ValueError("need 3 complex coordinates")
        if cone_quadratic([c.re for c in z]):
            raise ValueError("real part is not on the cone")
        if z[2].re_sign() <= 0:
            raise ValueError("not on the future half (x^3 must be positive)")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_powers", None)

    def __setattr__(self, *a):
        raise AttributeError("ConePoint is immutable")

    @property
    def powers(self) -> Powers:
        """The point's one power table, read by every evaluation at it and
        built by the first."""
        if self._powers is None:
            object.__setattr__(self, "_powers", Powers(self.z))
        return self._powers


def covectors_at(p: ConePoint) -> Matrix:
    """Rows d rho_p and theta_p = (i/2)(d'rho - d''rho)_p on the frame
    (d/dz, d/dzb): d rho/dz^j = d rho/dzb^j = eps_j x^j, x^j = Re z^j."""
    d = p.powers.scale[1]  # z^j = (a_j + b_j i)/d in the power table
    x = [eps * row[1][0] for row, eps in zip(p.powers.rows, _EPS)]
    return Matrix([[_gq(a, 0, d) for a in x] * 2,
                   [_gq(0, s * a, 2 * d) for s in (1, -1) for a in x]])


def _dtheta(u, v) -> GQ:
    """d theta(u, v) = (i/2) sum_j eps_j (u^jb v^j - u^j v^jb) on vectors of
    the frame (d/dz, d/dzb) in integer form (d, re, im), reduced once as
    i S / (2 d_u d_v), S the Gaussian-integer sum; it needs no point."""
    (du, ua, ub), (dv, va, vb) = u, v
    s = t = 0
    for j, eps in enumerate(_EPS):
        for a, b, sign in ((j + 3, j, eps), (j, j + 3, -eps)):
            s += sign * (ua[a] * va[b] - ub[a] * vb[b])
            t += sign * (ua[a] * vb[b] + ub[a] * va[b])
    return _gq(-t, s, 2 * du * dv)


def _section_forms(cov: Matrix, values):
    """Values V(p) of sections of the contact distribution in integer form
    (d, re, im) over one d, each checked against the covectors in it."""
    d, re, im = over_common_denominator([x for v in values for x in v])
    forms = [(d, re[k:k + 6], im[k:k + 6]) for k in range(0, len(re), 6)]
    if any(any(cov.apply(v, form)) for v, form in zip(values, forms)):
        raise ValueError("field is not a section of the contact distribution"
                         " at the point")
    return forms


def _conj(form):
    """The integer form of (conj V)(p), read off that of V(p)."""
    d, re, im = form
    return d, re[3:] + re[:3], [-b for b in im[3:] + im[:3]]


def _J(form):
    """The integer form of (JV)(p): i on the (1,0) part, -i on (0,1)."""
    d, re, im = form
    return d, [-b for b in im[:3]] + im[3:], re[:3] + [-a for a in re[3:]]


def _combine(coef, forms):
    """sum_k coef_k V_k(p) for integer forms over one denominator."""
    c, ca, cb = over_common_denominator(coef)
    terms = list(zip(ca, cb, forms))
    return tuple(_gq(sum(a * f[1][i] - b * f[2][i] for a, b, f in terms),
                     sum(a * f[2][i] + b * f[1][i] for a, b, f in terms),
                     c * forms[0][0]) for i in range(NVARS))


def levi_form_at(p: ConePoint, vf: Field, wf: Field) -> GQ:
    """-theta_p([V, JW]) = d theta_p(V(p), JW(p)).  The identity needs V and
    JW to be sections of the contact distribution near p (theta(V) = 0 mod
    rho, and so for JW); only V(p) and W(p) are checked, JW(p) = J W(p)."""
    v, w = _section_forms(covectors_at(p),
                          [vf.eval(p.powers), wf.eval(p.powers)])
    return _dtheta(v, _J(w))


def cubic_form_at(p: ConePoint, e: Field, h: Field, hp: Field) -> GQ:
    """theta_p([[E, H], H']) = -d theta_p([E, H](p), H'(p)) for E a
    holomorphic rib field and H, H' antiholomorphic sections of the contact
    distribution; [E, H](p) is the value of the kept bracket field.  The
    identity needs H, H' to be sections near p and E to stay in the Levi
    kernel along the tube (d theta(E, H) = 0 mod rho), so that [E, H] is a
    section too; only values at p are checked."""
    if not e.is_type10():
        raise ValueError("first argument must be of type (1,0)")
    _, _, _, R = cone_fields()
    # R is on the rib; any other E is tested against R(p)
    if e is not R and not Subspace(6, [R.eval(p.powers)]).contains(
            e.eval(p.powers)):
        raise ValueError("first argument must point along the rib")
    values = [h.eval(p.powers)] + ([] if hp is h else [hp.eval(p.powers)])
    forms = _section_forms(covectors_at(p), values)
    if any(any(value[:3]) for value in values):
        raise ValueError("argument is not antiholomorphic at the point")
    bracket = over_common_denominator(e.bracket(h).eval(p.powers))
    return _dtheta(forms[-1], bracket)  # -d theta(u, v) = d theta(v, u)


def _d10_frame_at(p: ConePoint):
    """Two L-fields independent at p, their values there and the checked
    integer forms of those: L12 and L13, or L12 and L23 where x^1 = 0.
    L12 = (x^2, -x^1, 0) is nonzero on the cone, L13 = (-x^3, 0, -x^1)
    leaves its line iff x^1 != 0, and L23 = (0, -x^3, -x^2) always does;
    these are the first two pivot columns of (L12, L13, L23)(p)."""
    l12, l13, l23, _ = cone_fields()
    fields = (l12, l13) if p.z[0].re_sign() else (l12, l23)
    values = [f.eval(p.powers) for f in fields]
    return fields, values, _section_forms(covectors_at(p), values)


def _levi_gram(rows, cols) -> Matrix:
    """d theta_p(V(p), JW(p)) = -theta_p([V, JW]) for the integer forms of
    V(p) in rows and W(p) in cols, under ``levi_form_at``'s contract."""
    jcols = [_J(w) for w in cols]
    return Matrix([[_dtheta(v, w) for w in jcols] for v in rows])


def levi_hermitian_rank(p: ConePoint) -> int:
    """Rank of the Hermitian Levi matrix on a holomorphic frame."""
    forms = _d10_frame_at(p)[2]
    return rank(_levi_gram(forms, [_conj(f) for f in forms]))


def _real_frame_at(p: ConePoint):
    """Integer forms of four real vectors framing the distribution at p: the
    real parts f + conj f = (f, conj f) and i(f - conj f) = J(f + conj f)
    of the holomorphic frame's values, of type (1,0) and independent."""
    frame = []
    for d, re, im in _d10_frame_at(p)[2]:
        real = (d, re[:3] + re[:3], im[:3] + [-b for b in im[:3]])
        frame += [real, _J(real)]
    return frame


def levi_real_gram(p: ConePoint) -> Matrix:
    """The 4x4 Gram of the Levi form on a real frame of the distribution."""
    reals = _real_frame_at(p)
    return _levi_gram(reals, reals)


def rib_span_at(p: ConePoint) -> Subspace:
    """The span of R(p) and (conj R)(p), as of the real parts of R."""
    r = cone_fields()[3].eval(p.powers)
    return Subspace(6, [r, tuple(x.conj() for x in r[3:] + r[:3])])


def levi_kernel_at(p: ConePoint) -> Subspace:
    """Kernel of the Levi form inside the distribution at p, as vectors."""
    reals = _real_frame_at(p)
    return Subspace(6, [_combine(coef, reals)
                        for coef in kernel_basis(_levi_gram(reals, reals))])


def freeman_ranks_at(p: ConePoint):
    """(dim F^10_-1, dim F^10_0, dim F^10_1) by exact pointwise solves."""
    (f1, f2), values, forms = _d10_frame_at(p)
    _, _, _, R = cone_fields()
    r_value = R.eval(p.powers)
    # step 0 (Levi kernel): rows theta([f, conj f']) = -i (Hermitian Gram)^T
    herm = _levi_gram(forms, [_conj(f) for f in forms])
    f0 = Subspace(6, [_combine(coef, forms)
                      for coef in kernel_basis(herm.transpose())])
    # the solver must recover the ruling direction; otherwise the ambient
    # frame fields would be unusable for the next step
    if not (f0.dim == 1 and f0.contains(r_value)):
        raise ArithmeticError("rib direction mismatch at the sample point")
    # step 1: c R with [cR, conj frame] in span{R} + D^01 at p
    span = Subspace(6, [r_value] + [tuple(x.conj() for x in v[3:] + v[:3])
                                    for v in values])
    dim_f1 = int(all(span.contains(R.bracket(cb).eval(p.powers))
                     for cb in (f1.conj(), f2.conj())))
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
    return bil, herm, (s[3] * s[4].conj()).im


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


# ---------------------------------------------------------------------------
# the model commands
# ---------------------------------------------------------------------------

def _rationals(csv: str, flag: str, n: int, layout: str) -> list:
    """The n comma-separated rationals of an option value, in ``layout``."""
    parts = [rat_from_str(p) for p in csv.split(",")]
    if len(parts) != n:
        raise ValueError(f"{flag} needs {n} rationals {layout}")
    return parts


def _cone_z(csv: str) -> list:
    x = _rationals(csv, "--z", 6, "x1,x2,x3,y1,y2,y3")
    return [re + im * I for re, im in zip(x[:3], x[3:])]


def run_model_quadric(rep, csv: str, chart: str):
    x = _rationals(csv, "--point", 10, "re0,im0,...,re4,im4")
    t = projective_point([a + b * I for a, b in zip(x[::2], x[1::2])], chart)
    bil, herm, third = quadric_eval(t)
    rep.add("symmetric form", "0/1", bil.to_str(), "exact substitution")
    rep.add("hermitian form", "0/1", herm.to_str(), "exact substitution")
    rep.add(
        "orbit inequality value positive",
        True,
        third.re_sign() > 0,
        "exact substitution (diag chart only)",
    )
    rep.add("orbit value", third.to_str(), third.to_str(), "exact substitution")


def run_model_embed(rep, csv: str):
    z = _cone_z(csv)
    f = embed_f(z)
    bil, herm, third = quadric_eval(f)
    rep.add(
        "image point",
        "(reported)",
        "[" + " : ".join(c.to_str() for c in f) + "]",
        "embedding formula",
        ok=True,
    )
    rep.add("symmetric form on image", "0/1", bil.to_str(), "polynomial identity")
    rep.add(
        "hermitian form equals twice the defining function",
        (GQ(2) * rho().eval(Powers(z))).to_str(),
        herm.to_str(),
        "polynomial identity",
    )
    rep.add("orbit value", third.to_str(), third.to_str(), "exact substitution")


def run_model_levi(rep, csv: str):
    p = ConePoint(_cone_z(csv))
    rep.add("hermitian Levi rank", 1, levi_hermitian_rank(p),
            "exact rank of the holomorphic-frame Gram")
    rep.add("real Levi rank", 2, rank(levi_real_gram(p)),
            "exact rank of the real-frame Gram (twice the hermitian rank)")
    rep.add(
        "rib equals the Levi kernel",
        True,
        rib_span_at(p) == levi_kernel_at(p),
        "canonical subspace comparison",
    )


def run_model_cubic(rep, csv: str):
    p = ConePoint(_cone_z(csv))
    l12, l13, l23, r = cone_fields()
    value = None
    for L in (l12, l13, l23):
        v = cubic_form_at(p, r, L.conj(), L.conj())
        if v:
            value = v
            base = L
            break
    rep.add("cubic form nonzero on some frame pair", True, value is not None,
            "exact nested-bracket evaluation")
    if value is not None:
        rep.add("cubic value (defining form fixed by the engine)",
                value.to_str(), value.to_str(), "exact nested-bracket evaluation")
        rep.add(
            "linear in the last argument",
            True,
            cubic_form_at(p, r, base.conj(), base.conj().scale(2))
            == value * GQ(2),
            "bilinearity of brackets",
        )
        pert = base.conj() + Field(
            [Poly.var(3), Poly(), Poly(), Poly.var(0), Poly(), Poly.const(1)]
        ).scale(rho())
        rep.add(
            "independent of the chosen extension",
            True,
            cubic_form_at(p, r, pert, base.conj()) == value,
            "perturbation by a multiple of the defining function",
        )


def run_model_freeman(rep, csv: str):
    p = ConePoint(_cone_z(csv))
    rep.add("holomorphic rank sequence", (2, 1, 0), freeman_ranks_at(p),
            "exact pointwise linear solves")


def run_model_identities(rep):
    res = embedding_identity_check()
    rep.add("symmetric form of the embedding vanishes identically",
            True, res["symmetric_form_vanishes"], "symbolic expansion")
    rep.add("hermitian form of the embedding is twice the defining function",
            True, res["hermitian_form_is_twice_rho"], "symbolic expansion")
    f = embed_f([3, 4, 5])
    bil, herm, third = quadric_eval(f)
    rep.add("sample point lands on the quadric", "0/1 0/1",
            f"{bil.to_str()} {herm.to_str()}", "substitution at a cone point")
    rep.add("sample point orbit value", "5/2", third.to_str(),
            "substitution at a cone point")
