"""The tube over the future light cone in C^3, pointwise.

The flat model's other side (``so32cr.quadric`` holds the projective
quadric, the embedding and the polynomials): tangent vector fields with
polynomial coefficients in (z, conj z), and at rational cone points the
form theta = (i/2)(d'rho - d''rho), the Levi and cubic forms and the
Freeman ranks, read there from values of the fields.

Only the point changes from one pointwise evaluation to the next, so what
does not depend on it is built once: each field's partials, conjugate and
brackets, and each polynomial's compiled terms.  What depends on the point
alone is kept on the point, built by the first evaluation that reads it:
its power table, and the checked holomorphic frame (the fields, their
values and the values' integer forms) with the value R(p) of the ruling
field.  Form values are not kept: each Gram, rank, kernel, bracket value
and cubic value, and each section check of a caller's fields, is computed
on every call.  The contact distribution at p is the common kernel of
d rho_p and theta_p, both eps_j x^j on each half of the frame (d/dz,
d/dzb), so V(p) lies in it iff sum_j eps_j x^j V^j = 0 and sum_j eps_j x^j
V^jb = 0: integer sums on the x numerators of the power table.
rho is a quadratic in x = Re z, so d theta = (i/2) sum_j eps_j dzb_j ^ dz_j,
eps = (1, 1, -1), is constant: on sections of the contact distribution the
Levi entry -theta_p([V, JW]) is d theta_p(V(p), JW(p)) and the cubic
theta_p([[E, H], H']) is -d theta_p([E, H](p), H'(p)), [E, H] the kept
bracket field; both are read off values over a common denominator, and
a Gram is built as sparse rows straight from its d theta values, so no
zero entry is stored.  Each field is evaluated once per call: conjugates,
J images and real parts are read off values, and whether x^1 = 0 picks
the frame.

Everything stays inside Q[i]; sample points come from Pythagorean triples
so that all evaluations are exact.

The ``run_*`` functions at the end fill the reports of ``so32cr model
levi``, ``model cubic`` and ``model freeman``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .scalars import GQ, _gq, over_common_denominator, vec
from .linalg import Matrix, Subspace, kernel_basis, rank
from .quadric import NVARS, Poly, Powers, _cone_z, cone_quadratic, rho

_EPS = (1, 1, -1)  # the signs of rho, and of d theta


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
# the tube: defining form, tangent frames
# ---------------------------------------------------------------------------

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
    rational.

    What depends on the point alone is built by the first evaluation that
    reads it and kept: the power table and the checked holomorphic frame
    with R(p)."""

    def __init__(self, z):
        z = vec(z)
        if len(z) != 3:
            raise ValueError("need 3 complex coordinates")
        if cone_quadratic([c.re for c in z]):
            raise ValueError("real part is not on the cone")
        if z[2].re_sign() <= 0:
            raise ValueError("not on the future half (x^3 must be positive)")
        object.__setattr__(self, "z", z)

    # cached_property writes to the instance dict, not through __setattr__
    def __setattr__(self, *a):
        raise AttributeError("ConePoint is immutable")

    @cached_property
    def powers(self) -> Powers:
        """The point's one power table."""
        return Powers(self.z)

    @cached_property
    def frame(self):
        """The holomorphic frame of ``_d10_frame_at``: fields, values,
        checked integer forms and R(p)."""
        return _d10_frame_at(self)


def _dtheta(u, v) -> GQ:
    """d theta(u, v) = (i/2) sum_j eps_j (u^jb v^j - u^j v^jb) on vectors of
    the frame (d/dz, d/dzb) in integer form (d, re, im), reduced once as
    i S / (2 d_u d_v), S = s + i t the Gaussian-integer sum; it needs no
    point."""
    (du, (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5)), \
        (dv, (c0, c1, c2, c3, c4, c5), (e0, e1, e2, e3, e4, e5)) = u, v
    s = (a3 * c0 - b3 * e0 - a0 * c3 + b0 * e3 + a4 * c1 - b4 * e1
         - a1 * c4 + b1 * e4 - a5 * c2 + b5 * e2 + a2 * c5 - b2 * e5)
    t = (a3 * e0 + b3 * c0 - a0 * e3 - b0 * c3 + a4 * e1 + b4 * c1
         - a1 * e4 - b1 * c4 - a5 * e2 - b5 * c2 + a2 * e5 + b2 * c5)
    return _gq(-t, s, 2 * du * dv)


def _section_forms(p: ConePoint, values):
    """Values V(p) of sections of the contact distribution in integer form
    (d, re, im) over one d, each checked to lie in it: sum_j eps_j a_j V^j
    and sum_j eps_j a_j V^jb vanish, a_j the numerator of x^j = Re z^j in
    the power table, in real and imaginary part."""
    d, re, im = over_common_denominator([x for v in values for x in v])
    forms = [(d, re[k:k + 6], im[k:k + 6]) for k in range(0, len(re), 6)]
    x = [eps * row[1][0] for row, eps in zip(p.powers.rows, _EPS)]
    if any(sum(a * u[h + j] for j, a in enumerate(x))
           for _, ua, ub in forms for u in (ua, ub) for h in (0, 3)):
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
    re, im = [0] * NVARS, [0] * NVARS
    for a, b, (_, fa, fb) in zip(ca, cb, forms):
        if a or b:
            for i in range(NVARS):
                re[i] += a * fa[i] - b * fb[i]
                im[i] += a * fb[i] + b * fa[i]
    d = c * forms[0][0]
    return tuple(_gq(x, y, d) for x, y in zip(re, im))


def levi_form_at(p: ConePoint, vf: Field, wf: Field) -> GQ:
    """-theta_p([V, JW]) = d theta_p(V(p), JW(p)).  The identity needs V and
    JW to be sections of the contact distribution near p (theta(V) = 0 mod
    rho, and so for JW); only V(p) and W(p) are checked, JW(p) = J W(p)."""
    v, w = _section_forms(p, [vf.eval(p.powers), wf.eval(p.powers)])
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
    # R is on the rib; any other E is tested against R(p)
    if e is not cone_fields()[3] and not Subspace(6, [p.frame[3]]).contains(
            e.eval(p.powers)):
        raise ValueError("first argument must point along the rib")
    values = [h.eval(p.powers)] + ([] if hp is h else [hp.eval(p.powers)])
    forms = _section_forms(p, values)
    if any(any(value[:3]) for value in values):
        raise ValueError("argument is not antiholomorphic at the point")
    bracket = over_common_denominator(e.bracket(h).eval(p.powers))
    return _dtheta(forms[-1], bracket)  # -d theta(u, v) = d theta(v, u)


def _d10_frame_at(p: ConePoint):
    """Two L-fields independent at p, their values there, the checked
    integer forms of those and the value R(p) of the ruling field: L12 and
    L13, or L12 and L23 where x^1 = 0.
    L12 = (x^2, -x^1, 0) is nonzero on the cone, L13 = (-x^3, 0, -x^1)
    leaves its line iff x^1 != 0, and L23 = (0, -x^3, -x^2) always does;
    these are the first two pivot columns of (L12, L13, L23)(p)."""
    l12, l13, l23, r = cone_fields()
    fields = (l12, l13) if p.z[0].re_sign() else (l12, l23)
    values = [f.eval(p.powers) for f in fields]
    return (fields, values, _section_forms(p, values),
            r.eval(p.powers))


def _levi_gram(rows, cols) -> Matrix:
    """d theta_p(V(p), JW(p)) = -theta_p([V, JW]) for the integer forms of
    V(p) in rows and W(p) in cols, under ``levi_form_at``'s contract, as
    sparse rows: a zero value is not stored."""
    jcols = [_J(w) for w in cols]
    return Matrix._of(tuple(
        tuple((j, x) for j, w in enumerate(jcols) if (x := _dtheta(v, w)))
        for v in rows), len(cols))


def levi_hermitian_rank(p: ConePoint) -> int:
    """Rank of the Hermitian Levi matrix on a holomorphic frame."""
    forms = p.frame[2]
    return rank(_levi_gram(forms, [_conj(f) for f in forms]))


def _real_frame_at(p: ConePoint):
    """Integer forms of four real vectors framing the distribution at p: the
    real parts f + conj f = (f, conj f) and i(f - conj f) = J(f + conj f)
    of the holomorphic frame's values, of type (1,0) and independent."""
    reals = [(d, re[:3] + re[:3], im[:3] + [-b for b in im[:3]])
             for d, re, im in p.frame[2]]
    return [u for real in reals for u in (real, _J(real))]


def levi_real_gram(p: ConePoint) -> Matrix:
    """The 4x4 Gram of the Levi form on a real frame of the distribution."""
    reals = _real_frame_at(p)
    return _levi_gram(reals, reals)


def rib_span_at(p: ConePoint) -> Subspace:
    """The span of R(p) and (conj R)(p), as of the real parts of R."""
    r = p.frame[3]
    return Subspace(6, [r, tuple(x.conj() for x in r[3:] + r[:3])])


def levi_kernel_at(p: ConePoint) -> Subspace:
    """Kernel of the Levi form inside the distribution at p, as vectors."""
    reals = _real_frame_at(p)
    return Subspace(6, [_combine(coef, reals)
                        for coef in kernel_basis(_levi_gram(reals, reals))])


def freeman_ranks_at(p: ConePoint):
    """(dim F^10_-1, dim F^10_0, dim F^10_1) by exact pointwise solves."""
    (f1, f2), values, forms, r_value = p.frame
    R = cone_fields()[3]
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
# the tube-side model commands
# ---------------------------------------------------------------------------

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


