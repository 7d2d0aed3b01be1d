"""The four prolongation steps and torsion normalization.

Step k solves dB = 0 inside a gauge space of graded degree-k
endomorphisms of the step carrier, with extra rows at degree 0 only:

    step 0   gl_0^gr(m)              dB = 0, the cubic condition and
                                     [J, B] = 0
    step 1   l1 in gl_1^gr(m+h0, J)  dB = 0
    step 2   gl_2^gr(m+h0+h1)        dB = 0
    step 3   gl_3^gr(m+h)            dB = 0

At degree 0, dB = 0 is the Levi compatibility of B; the cubic and J rows
are the two conditions that 2-nondegeneracy adds.

The solution dimensions come out (2, 2, 1, 0) and each solution space is
spanned by the projected adjoint action of explicit witnesses in h^k.

Degree-k c-torsions (2-cochains on m_-) are normalized against the step-k
gauge image: the normalization space is ker d* on C^2_k at every degree,
the coclosedness condition of parabolic geometry.  At degree 1 the gauge
image is all of C^2_1, so the space is 0; the paper's recipe there (the
orthocomplement of the l1-image inside the coboundary image, plus ker d*)
gives the same 0 for the inner product that makes the monomial basis
orthonormal.  ``INNER_PRODUCT_NOTE`` is the text the reports record for
that choice, and ``L1_NOTE`` the text they record on the degree-1 gauge
space.  Each space is complementary to the gauge image, so the split c =
dB + residual always exists and is linear in c: one elimination per degree
fixes one stacked map c -> (B, residual); A r = 0 checks each residual r,
for A the reduced nonzero rows of d*.

The ``run_*`` functions at the end fill the reports of ``so32cr prolong``
and ``so32cr normalize``.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial
from typing import NamedTuple

from .scalars import GQ, HALF_I, I
from .linalg import (
    Matrix,
    Subspace,
    kernel,
    kernel_basis,
    rank,
    real_rows,
    rref,
    solution_map,
    vec_add,
    vec_scale,
)
from . import so32
from .so32 import M_MINUS, real_unit
from .carriers import (STEP_CARRIERS, Carrier, endo_complex_matrix,
                       endo_from_complex_images, gl_filtered, gl_graded)
from .cochains import (
    Cochain,
    coboundary,
    coboundary_matrix,
    cochain_dim,
    codifferential_matrix,
    ctorsion_from_json,
    ctorsion_to_json,
)


# ---------------------------------------------------------------------------
# gauge endomorphisms as degree-k 1-cochains
# ---------------------------------------------------------------------------

def cochain_of_endo(carrier: Carrier, b: Matrix, k: int) -> Cochain:
    """The 1-cochain of degree k given by the action of b on m_-.

    For k >= 1, graded degree-k endomorphisms of a step carrier vanish on
    grades >= 0 and are determined by this restriction.  At k = 0 the
    restriction drops b's action on m^0, so dB = 0 does not see it; only
    the cubic and J rows of step 0 do.  The carrier is a leading block of
    the basis, so b's rows and columns are basis indices."""
    table = {}
    columns = b.transpose().rows
    for a, i in enumerate(M_MINUS):
        for r, c in columns[i]:
            table[((a,), r)] = c
    return Cochain.from_full_table(1, k, table)


# ---------------------------------------------------------------------------
# step 0
# ---------------------------------------------------------------------------

class ProlongationStep(NamedTuple):
    step: int
    carrier: Carrier
    space: Subspace          # endomorphisms of the carrier, vectorized
    generators: tuple        # explicit endomorphisms spanning the space
    witnesses: tuple         # elements of h^k realizing the generators
    notes: tuple

    @property
    def dim(self) -> int:
        return self.space.dim


def cubic_conditions(b: Matrix) -> list:
    """The cubic strong-adaptation condition on a degree-0 endomorphism b
    of m, as complex algebra coordinates: b acts as a derivation on
    [[e^0(10), e^-1(01)], e^-1(01)] = -(i/2) e^-2."""
    act = partial(Carrier("m").apply_endo, b)
    br = so32.bracket_coords
    zl = so32.COMPLEX_LABELS.index
    e10_01, e0_10 = (so32.complex_unit(zl(label))
                     for label in ("e^-1(01)", "e^0(10)"))
    c = vec_add(
        br(br(act(e0_10), e10_01), e10_01),
        vec_add(
            br(br(e0_10, act(e10_01)), e10_01),
            br(br(e0_10, e10_01), act(e10_01)),
        ),
    )
    return list(vec_add(c, vec_scale(HALF_I, act(real_unit("e^-2")))))


def prolong_step0() -> ProlongationStep:
    """Degree-0 step: dB = 0 over gl_0^gr(m), with the cubic condition and
    [J, B] = 0 as extra rows; the result is ad(h^0) restricted to m.  J is
    zero on e^-2 and B keeps e^-2 in m^-2, so the full commutator is the
    J-condition on m^-1 + m^0."""
    carrier, basis, _, _ = _gauge(0)
    j = carrier.j_matrix()
    extra = Matrix.from_columns([cubic_conditions(b)
                                 + list((j @ b - b @ j).flatten())
                                 for b in basis])
    witnesses = (real_unit("E_1^0"), real_unit("E_2^0"))
    notes = (
        "solved relations: tau = 2 Re(lambda), mu = 2i Im(lambda)",
        "solution space = ad(h^0) restricted to m",
    )
    return _kernel_step(0, witnesses, notes, extra.rows)


# ---------------------------------------------------------------------------
# l1 and step 1
# ---------------------------------------------------------------------------

def l1_endo(lam: GQ, mu: GQ, nu: GQ) -> Matrix:
    """The degree-1 gauge endomorphism of m+h0 with parameters (lambda, mu, nu):
    e^-2 goes to lam e^-1(10) + conj, e^-1(10) to mu e^0(10) + nu E^0(10)
    + (nu - conj mu) E^0(01), zero on m^0 and h^0."""
    lam, mu, nu = GQ.of(lam), GQ.of(mu), GQ.of(nu)
    return endo_from_complex_images(
        Carrier("m+h0"),
        {
            "e^-2": [(lam, "e^-1(10)"), (lam.conj(), "e^-1(01)")],
            "e^-1(10)": [
                (mu, "e^0(10)"),
                (nu, "E^0(10)"),
                (nu - mu.conj(), "E^0(01)"),
            ],
            "e^0(10)": [],
        },
    )


L1_NOTE = (
    "the grade -2 action carries a free complex parameter lambda; "
    "only mu, nu (and the tied antiholomorphic coefficient nu - conj mu) "
    "enter the defining condition"
)


def l1_generators() -> tuple:
    """The six endomorphisms l1_endo at the real and imaginary units of
    lambda, mu and nu in turn."""
    return (
        l1_endo(1, 0, 0), l1_endo(I, 0, 0),
        l1_endo(0, 1, 0), l1_endo(0, I, 0),
        l1_endo(0, 0, 1), l1_endo(0, 0, I),
    )


@lru_cache(maxsize=None)
def _gauge(k: int):
    """(step carrier, basis, G, D): the gauge basis endomorphisms, l1's
    generators at degree 1 and gl_k^gr of the step carrier at degrees 0, 2
    and 3; the columns of G are their flattened entries and those of D
    their coboundaries in C^2_k."""
    carrier = Carrier(STEP_CARRIERS[k])
    basis = l1_generators() if k == 1 else gl_graded(carrier, k)
    dmat = coboundary_matrix(1, k)
    d = [dmat.apply(cochain_of_endo(carrier, b, k).coords) for b in basis]
    return (carrier, basis, Matrix.from_columns([b.flatten() for b in basis]),
            Matrix.from_columns(d))


def _kernel_step(k, witnesses, notes, extra=()) -> ProlongationStep:
    """dB = 0 over the step-k gauge space, together with the ``extra``
    sparse rows (one column per gauge column): the span of the real
    combinations G t with D t = 0 and every extra row zero at t."""
    carrier, _, gauge, d = _gauge(k)
    solutions = kernel_basis(real_rows(Matrix._of(d.rows + extra, d.ncols)))
    space = Subspace(gauge.nrows, [gauge.apply(t) for t in solutions])
    generators = tuple(carrier.ad_action(w) for w in witnesses)
    return ProlongationStep(k, carrier, space, generators, witnesses, notes)


def prolong_step1() -> ProlongationStep:
    """{B in l1 : dB = 0}; spanned by the projected ad of -E_2^1 and E_1^1."""
    witnesses = (vec_scale(-1, real_unit("E_2^1")), real_unit("E_1^1"))
    notes = (
        "solved relations: nu = (i/2) conj(lambda), mu = -(i/2) lambda, "
        "antiholomorphic h^0 coefficient 0",
    )
    return _kernel_step(1, witnesses, notes)


# ---------------------------------------------------------------------------
# steps 2 and 3
# ---------------------------------------------------------------------------

def gl3_endo(lam, mu) -> Matrix:
    """Degree-3 graded endomorphism of m+h:
    e^-2 -> lam E^1(10) + conj, e^-1(10) -> mu E^2."""
    lam, mu = GQ.of(lam), GQ.of(mu)
    return endo_from_complex_images(
        Carrier("m+h"),
        {
            "e^-2": [(lam, "E^1(10)"), (lam.conj(), "E^1(01)")],
            "e^-1(10)": [(mu, "E^2")],
        },
    )


def prolong_step2() -> ProlongationStep:
    """{B in gl_2^gr(m+h0+h1) : dB = 0}; one generator, the projected ad(E^2)."""
    witnesses = (real_unit("E^2"),)
    notes = ("solved parameter family (lambda, mu, nu, nu') = (0, t, it, 0), t real",)
    return _kernel_step(2, witnesses, notes)


def prolong_step3() -> ProlongationStep:
    """{B in gl_3^gr(m+h) : dB = 0} is trivial; the solver forces both
    complex parameters to vanish."""
    return _kernel_step(3, (), ("forced vanishing: lambda = 0 = mu",))


def step3_component_equations() -> Subspace:
    """The solutions of the two displayed component equations of the
    degree-3 closedness condition, over the real parameters of (lambda, mu).

    Projection of B([e^-2, e^-1(10)]) - [B e^-2, e^-1(10)] - [e^-2, B e^-1(10)]
    onto the grade-0 part, as a function of (Re lam, Im lam, Re mu, Im mu)."""
    carrier = Carrier("m+h")
    params = ((1, 0), (I, 0), (0, 1), (0, I))
    zl = so32.COMPLEX_LABELS.index
    em2 = so32.complex_unit(zl("e^-2"))
    e1 = so32.complex_unit(zl("e^-1(10)"))
    br = so32.bracket_coords
    cols = []
    for lam, mu in params:
        act = partial(carrier.apply_endo, gl3_endo(lam, mu))
        lhs = act(br(em2, e1))
        rhs = vec_add(br(act(em2), e1), br(em2, act(e1)))
        diff = vec_add(lhs, vec_scale(-1, rhs))
        cols.append([diff[i] for i in so32.GRADE_INDICES[0]])
    return kernel(real_rows(Matrix.from_columns(cols)))


# ---------------------------------------------------------------------------
# normalization spaces
# ---------------------------------------------------------------------------

# the inner product for which the paper's degree-1 recipe takes the
# orthocomplement of the l1-image; the recipe's space is then ker d* = 0
INNER_PRODUCT_NOTE = (
    "monomial cochain basis over the real algebra basis declared "
    "orthonormal; any rotation-invariant choice gives the same "
    "normalization dimensions"
)


def gauge_image(k: int) -> Subspace:
    """The coboundary image of the step-k gauge space inside C^2_k."""
    return Subspace(cochain_dim(2, k), _gauge(k)[3].columns())


@lru_cache(maxsize=None)
def normalization_space(k: int) -> Subspace:
    """The residual space for degree-k c-torsion, ker d* on C^2_k,
    complementary to the step-k gauge image."""
    if k not in (1, 2, 3):
        raise ValueError("normalization degree must be 1, 2 or 3")
    return kernel(codifferential_matrix(2, k))


@lru_cache(maxsize=None)
def _normalize_maps(k: int):
    """(layout, split map, A) at degree k.  With X the gauge rows of the
    solution map of [D | basis of ker d*], the split map stacks the nonzero
    rows of G X (c -> flat B) over I - D X (c -> residual); layout[r] lists
    (split map row, j) for the entries (r, j) of B, read off the row-major
    order of ``Matrix.flatten``; A is the nonzero rows of rref(d*), the
    canonical basis of d*'s row space, so ker A = normalization_space(k)
    (A = I when d* is injective, k = 1)."""
    carrier, _, gauge, d = _gauge(k)
    span = Matrix.from_columns(
        d.columns() + normalization_space(k).basis_vectors())
    x = Matrix._of(solution_map(span).rows[:gauge.ncols], d.nrows)
    kept = [(p, r) for p, r in enumerate((gauge @ x).rows) if r]
    n = carrier.dim
    layout = tuple(tuple((t, p % n) for t, (p, _) in enumerate(kept)
                         if p // n == r) for r in range(n))
    a, pivots = rref(codifferential_matrix(2, k))
    return (layout,
            Matrix._of(tuple(r for _, r in kept)
                       + (Matrix.identity(d.nrows) - d @ x).rows, d.nrows),
            Matrix._of(a.rows[:len(pivots)], a.ncols))


def normalize_ctorsion(c: Cochain):
    """Split c = dB + residual with the residual in the normalization space.

    Returns (B, residual) where B is an endomorphism of the step carrier,
    unique modulo the step's prolongation algebra (the closed gauge
    directions), and residual is exact: c - dB."""
    k = c.k
    if c.ell != 2 or k not in (1, 2, 3):
        raise ValueError("expected a 2-cochain of degree 1, 2 or 3")
    layout, split, annihilator = _normalize_maps(k)
    entries = split.apply(c.coords)
    b = Matrix._of(tuple(tuple((j, entries[t]) for t, j in row if entries[t])
                         for row in layout), len(layout))
    residual = entries[len(entries) - len(c.coords):]
    if any(annihilator.apply(residual)):
        raise ArithmeticError("residual escaped the normalization space")
    return b, Cochain(2, k, residual)


# ---------------------------------------------------------------------------
# the prolong and normalize commands
# ---------------------------------------------------------------------------

_EXPECTED_DIMS = (2, 2, 1, 0)

# (step, row name, generator, column, expected): a generator's image of one
# carrier basis vector, in complexified coordinates
_GENERATOR_IMAGES = (
    (1, "first generator on grade -2", 0, 0,
     "(1/1)*e^-1(10) + (1/1)*e^-1(01)"),
    (1, "second generator on grade -2", 1, 0,
     "(0/1+1/1*i)*e^-1(10) + (0/1-1/1*i)*e^-1(01)"),
    (2, "generator on grade -2", 0, 0, "(1/1)*E^0(10) + (1/1)*E^0(01)"),
    (2, "generator on e^-1(10)", 0, 1, "(0/1+1/1*i)*E^1(10)"),
)


def run_prolong(rep, which: str):
    steps = (prolong_step0, prolong_step1, prolong_step2, prolong_step3)
    for step in range(4) if which == "all" else (int(which),):
        s = steps[step]()
        rep.add(
            f"step {step} dimension",
            _EXPECTED_DIMS[step],
            s.dim,
            "linear solver on the graded gauge space",
        )
        # the generators are projected adjoint actions by construction; the
        # check is that the solver's space is exactly their span
        span = Subspace(s.space.ambient_dim, [g.flatten() for g in s.generators])
        for g in s.generators:
            ok = s.space.contains(g.flatten()) and span == s.space
            rep.add(
                f"step {step} generator equals projected ad of witness",
                True,
                ok,
                "projected adjoint action, exact matrix equality",
            )
        if step == 1:
            rep.add("degree-1 gauge space dimension", 6,
                    rank(_gauge(1)[2]),
                    "parameter count of the gauge algebra")
            rep.add("degree-1 gauge space note", L1_NOTE, L1_NOTE,
                    "solver summary")
            rep.add("inner product choice", INNER_PRODUCT_NOTE,
                    INNER_PRODUCT_NOTE, "recorded normalization data")
        for row_step, name, g, col, expected in _GENERATOR_IMAGES:
            if row_step == step:
                z = endo_complex_matrix(s.carrier, s.generators[g])
                rep.add(
                    f"step {step} {name}",
                    expected,
                    so32.format_combination(z.col(col)),
                    f"closed gauge directions at degree {step}",
                )
        if step == 3:
            rep.add(
                "displayed component equations admit only zero",
                0,
                step3_component_equations().dim,
                "componentwise linear solve",
            )
            rep.add(
                "degree-5 filtered endomorphisms vanish",
                0,
                len(gl_filtered(Carrier("m+h"), 5)),
                "filtration entry patterns",
            )
        for note in s.notes:
            rep.add(f"step {step} note", note, note, "solver summary")


def run_normalize(rep, k: int, path: str):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("input JSON is nested too deeply") from None
    c = ctorsion_from_json(data)
    if c.k != k:
        raise ValueError(f"input degree {c.k} does not match --k {k}")
    b, residual = normalize_ctorsion(c)
    carrier = Carrier(STEP_CARRIERS[k])
    back = coboundary(cochain_of_endo(carrier, b, k)) + residual
    rep.add(
        "gauge + residual reproduces the input",
        True,
        back.coords == c.coords,
        "exact round trip",
    )
    rep.add(
        "residual lies in the normalization space",
        True,
        normalization_space(k).contains(residual.coords),
        "membership in the Killing-codifferential kernel complement",
    )
    rep.add(
        "residual coefficients",
        "(reported)",
        json.dumps(ctorsion_to_json(residual), sort_keys=True),
        "normalization output",
        ok=True,
    )
    if k == 1:
        rep.add("inner product choice", INNER_PRODUCT_NOTE, INNER_PRODUCT_NOTE,
                "recorded normalization data")
