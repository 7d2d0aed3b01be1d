"""The four prolongation steps and torsion normalization.

Step k solves a linear system inside a gauge space of graded degree-k
endomorphisms of the step carrier:

    step 0   gl_0^gr(m, J)           two cubic/Levi compatibility conditions
    step 1   l1 in gl_1^gr(m+h0, J)  dB = 0
    step 2   gl_2^gr(m+h0+h1)        dB = 0
    step 3   gl_3^gr(m+h)            dB = 0

The solution dimensions come out (2, 2, 1, 0) and each solution space is
spanned by the projected adjoint action of explicit witnesses in h^k.

Degree-k c-torsions (2-cochains on m_-) are normalized against the step-k
gauge image: the normalization space is, at degree 1, the orthocomplement
of the l1-image inside the coboundary image (for the rotation-invariant
inner product that makes the monomial basis orthonormal) plus ker d*, and
at degrees 2 and 3 simply ker d*.  Each is complementary to the gauge
image, so normalize() always succeeds and the gauge part is unique modulo
the step's prolongation algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product

from .scalars import GQ, HALF_I, I
from .linalg import (
    Matrix,
    Subspace,
    kernel,
    kernel_basis,
    real_rows,
    solve,
    vec_add,
    vec_scale,
    zero_vec,
)
from . import so32
from .so32 import Alg, GRADES, bracket_complex, to_complex_basis, from_complex_basis
from .forms import Form
from .carriers import Carrier, endo_from_complex_images, gl_graded
from .cochains import (
    Cochain,
    act_on_cochain,
    coboundary,
    coboundary_matrix,
    cochain_dim,
    codifferential_matrix,
)

STEP_CARRIERS = {0: "m", 1: "m+h0", 2: "m+h0+h1", 3: "m+h"}


# ---------------------------------------------------------------------------
# endomorphisms <-> degree-k 1-cochains
# ---------------------------------------------------------------------------

def cochain_of_endo(carrier: Carrier, b: Matrix, k: int) -> Cochain:
    """The 1-cochain of degree k given by the action of b on m_-.

    Graded degree-k endomorphisms of a step carrier vanish on grades >= 0
    and are determined by this restriction."""
    table = {}
    for a in range(3):  # m_- slots are the first three carrier slots
        col = carrier.embed_coords(b.col(a))
        for beta, c in enumerate(col):
            if c:
                table[((a,), beta)] = c
    return Cochain.from_full_table(1, k, table)


def endo_of_cochain(carrier: Carrier, c: Cochain) -> Matrix:
    """The graded endomorphism acting as the 1-cochain on m_- and by zero
    on the rest of the carrier."""
    n = carrier.dim
    cols = [list(zero_vec(n)) for _ in range(n)]
    for (wedge, beta), coef in c.coeff_map().items():
        (a,) = wedge
        if beta not in carrier.indices:
            raise ValueError("cochain value leaves the carrier")
        cols[a][carrier.indices.index(beta)] = coef
    return Matrix.from_columns(cols)


def _solve_in_gauge(carrier, basis, cols) -> Subspace:
    """Span of the real combinations sum_i t_i basis[i] whose conditions
    vanish, sum_i t_i cols[i] = 0 (cols[i]: the condition column of basis[i])."""
    gauge = Matrix.from_columns([b.flatten() for b in basis])
    solutions = kernel_basis(real_rows(Matrix.from_columns(cols)))
    return Subspace(carrier.dim ** 2, [gauge.apply(t) for t in solutions])


# ---------------------------------------------------------------------------
# step 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProlongationStep:
    step: int
    carrier: Carrier
    space: Subspace          # endomorphisms of the carrier, vectorized
    generators: tuple        # explicit endomorphisms spanning the space
    witnesses: tuple         # elements of h^k realizing the generators
    notes: tuple

    @property
    def dim(self) -> int:
        return self.space.dim


def prolong_step0() -> ProlongationStep:
    """Degree-0 step: solve the two strong-adaptation conditions inside
    gl_0^gr(m, J); the result is ad(h^0) restricted to m."""
    carrier = Carrier("m")
    basis = gl_graded(carrier, 0, j_compatible=True).basis_endos()

    zl = so32.COMPLEX_LABELS.index
    e10_10 = so32.complex_unit(zl("e^-1(10)"))
    e10_01 = so32.complex_unit(zl("e^-1(01)"))
    e0_10 = so32.complex_unit(zl("e^0(10)"))
    e0_01 = so32.complex_unit(zl("e^0(01)"))
    em2 = Alg.basis(0).coords

    def conditions(b: Matrix):
        act = partial(carrier.apply_endo, b)
        br = so32.bracket_coords
        # Levi compatibility: [B e^-1(10), e^-1(01)] + [e^-1(10), B e^-1(01)]
        #                     = (i/2) B e^-2
        c1 = vec_add(br(act(e10_10), e10_01), br(e10_10, act(e10_01)))
        c1 = vec_add(c1, vec_scale(-HALF_I, act(em2)))
        # cubic compatibility, derivation of [[e^0(10), e^-1(01)], e^-1(01)]
        c2 = vec_add(
            br(br(act(e0_10), e10_01), e10_01),
            vec_add(
                br(br(e0_10, act(e10_01)), e10_01),
                br(br(e0_10, e10_01), act(e10_01)),
            ),
        )
        c2 = vec_add(c2, vec_scale(HALF_I, act(em2)))
        return list(c1) + list(c2)

    space = _solve_in_gauge(carrier, basis, [conditions(b) for b in basis])
    witnesses = (Alg.from_label("E_1^0"), Alg.from_label("E_2^0"))
    generators = tuple(carrier.ad_action(w) for w in witnesses)
    notes = (
        "solved relations: tau = 2 Re(lambda), mu = 2i Im(lambda)",
        "solution space = ad(h^0) restricted to m",
    )
    return ProlongationStep(0, carrier, space, generators, witnesses, notes)


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


@dataclass(frozen=True)
class L1Space:
    carrier: Carrier
    space: Subspace   # endomorphism coordinates
    generators: tuple
    note: str

    @property
    def dim(self):
        return self.space.dim

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())


@lru_cache(maxsize=1)
def l1_subspace() -> L1Space:
    """The degree-1 gauge algebra: 6-dimensional, parameters (lambda, mu, nu)."""
    gens = (
        l1_endo(1, 0, 0), l1_endo(I, 0, 0),
        l1_endo(0, 1, 0), l1_endo(0, I, 0),
        l1_endo(0, 0, 1), l1_endo(0, 0, I),
    )
    carrier = Carrier("m+h0")
    space = Subspace(carrier.dim ** 2, [g.flatten() for g in gens])
    note = (
        "the grade -2 action carries a free complex parameter lambda; "
        "only mu, nu (and the tied antiholomorphic coefficient nu - conj mu) "
        "enter the defining condition"
    )
    return L1Space(carrier, space, gens, note)


@lru_cache(maxsize=None)
def _gauge(k: int):
    """(step carrier, gauge basis endomorphisms, their coboundaries in C^2_k):
    the gauge space is l1 at degree 1 and gl_k^gr of the step carrier at
    degrees 2 and 3."""
    carrier = Carrier(STEP_CARRIERS[k])
    if k == 1:
        gauge = list(l1_subspace().generators)
    else:
        gauge = gl_graded(carrier, k).basis_endos()
    dmat = coboundary_matrix(1, k)
    return carrier, tuple(gauge), tuple(
        dmat.apply(cochain_of_endo(carrier, b, k).coords) for b in gauge
    )


def _kernel_step(k, witnesses, notes) -> ProlongationStep:
    """dB = 0 over the step-k gauge space."""
    carrier, gauge, cols = _gauge(k)
    space = _solve_in_gauge(carrier, gauge, cols)
    generators = tuple(carrier.ad_action(w) for w in witnesses)
    return ProlongationStep(k, carrier, space, generators, witnesses, notes)


def prolong_step1() -> ProlongationStep:
    """{B in l1 : dB = 0}; spanned by the projected ad of -E_2^1 and E_1^1."""
    witnesses = (-Alg.from_label("E_2^1"), Alg.from_label("E_1^1"))
    notes = (
        "solved relations: nu = (i/2) conj(lambda), mu = -(i/2) lambda, "
        "antiholomorphic h^0 coefficient 0",
    )
    return _kernel_step(1, witnesses, notes)


# ---------------------------------------------------------------------------
# steps 2 and 3
# ---------------------------------------------------------------------------

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
    witnesses = (Alg.from_label("E^2"),)
    notes = ("solved parameter family (lambda, mu, nu, nu') = (0, t, it, 0), t real",)
    return _kernel_step(2, witnesses, notes)


def prolong_step3() -> ProlongationStep:
    """{B in gl_3^gr(m+h) : dB = 0} is trivial; the solver forces both
    complex parameters to vanish."""
    return _kernel_step(3, (), ("forced vanishing: lambda = 0 = mu",))


def prolong_all():
    return (prolong_step0(), prolong_step1(), prolong_step2(), prolong_step3())


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
        cols.append([diff[i] for i in (3, 4, 5, 6)])  # grade-0 components
    return kernel(real_rows(Matrix.from_columns(cols)))


# ---------------------------------------------------------------------------
# invariant inner product and normalization spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerProduct:
    """Symmetric bilinear form on a cochain slice, with the monomial basis
    orthonormal; restricted below to the image of the degree-1 coboundary."""

    ell: int
    k: int
    note: str = (
        "monomial cochain basis over the real algebra basis declared "
        "orthonormal; any rotation-invariant choice gives the same "
        "normalization dimensions"
    )

    def pair(self, c1: Cochain, c2: Cochain) -> GQ:
        if (c1.ell, c1.k) != (self.ell, self.k) or (c2.ell, c2.k) != (self.ell, self.k):
            raise ValueError("cochain bidegree mismatch")
        return sum((a * b for a, b in zip(c1.coords, c2.coords)), GQ(0))

    def gram(self) -> Matrix:
        return Matrix.identity(cochain_dim(self.ell, self.k))


def invariant_inner_product() -> InnerProduct:
    """The rotation-invariant product used to split the degree-1 gauge image."""
    return InnerProduct(2, 1)


def rotation_action_matrix(ell: int, k: int, x: Alg) -> Matrix:
    """Matrix of the action of a grade-0 element on a cochain slice."""
    n = cochain_dim(ell, k)
    cols = []
    for p in range(n):
        c = Cochain(ell, k, [GQ(1 if q == p else 0) for q in range(n)])
        cols.append(act_on_cochain(x, c).coords)
    return Matrix.from_columns(cols, nrows=n)


@lru_cache(maxsize=None)
def gauge_image(k: int) -> Subspace:
    """The coboundary image of the step-k gauge space inside C^2_k."""
    return Subspace(cochain_dim(2, k), _gauge(k)[2])


@lru_cache(maxsize=None)
def normalization_space(k: int) -> Subspace:
    """The residual space for degree-k c-torsion, complementary to the
    step-k gauge image in C^2_k."""
    if k not in (1, 2, 3):
        raise ValueError("normalization degree must be 1, 2 or 3")
    n = cochain_dim(2, k)
    ker_dstar = kernel(codifferential_matrix(2, k))
    if k >= 2:
        return ker_dstar
    # degree 1: orthocomplement of the l1-image inside the full coboundary
    # image (identity Gram), plus ker d*
    image_all = Subspace(n, coboundary_matrix(1, k).columns())
    l1_img = gauge_image(1)
    if l1_img.dim == 0:
        ortho = image_all
    else:
        rows = [list(v) for v in l1_img.basis_vectors()]
        ortho = kernel(Matrix(rows, ncols=n)).intersect(image_all)
    return ortho.sum(ker_dstar)


@lru_cache(maxsize=None)
def _normalize_solver(k: int):
    """Precomputed column span [d(gauge basis) | normalization basis], and
    the gauge basis flattened into the columns of one matrix."""
    carrier, gauge, gauge_cols = _gauge(k)
    norm_basis = normalization_space(k).basis_vectors()
    span = Matrix.from_columns(list(gauge_cols) + norm_basis,
                               nrows=cochain_dim(2, k))
    return carrier, Matrix.from_columns([b.flatten() for b in gauge]), span


def normalize_ctorsion(c: Cochain, k: int | None = None):
    """Split c = dB + residual with the residual in the normalization space.

    Returns (B, residual) where B is an endomorphism of the step carrier,
    unique modulo the step's prolongation algebra (the closed gauge
    directions), and residual is exact: c - dB."""
    if k is None:
        k = c.k
    if (c.ell, c.k) != (2, k):
        raise ValueError("expected a degree-k 2-cochain")
    carrier, gauge, span = _normalize_solver(k)
    x, _ = solve(span, c.coords)
    b = Matrix.unflatten(gauge.apply(x[: gauge.ncols]), carrier.dim)
    residual = c - coboundary(cochain_of_endo(carrier, b, k))
    if not normalization_space(k).contains(residual.coords):
        raise ArithmeticError("residual escaped the normalization space")
    return b, residual


# ---------------------------------------------------------------------------
# full torsion and pointwise frame conditions
# ---------------------------------------------------------------------------

# grades of the complexified basis of m (first five complexified labels)
M_COMPLEX_GRADES = (-2, -1, -1, 0, 0)


class FullTorsion:
    """Alternating bilinear map on m with values in g, over the complexified
    bases: forms[beta] is the 2-form on the five complexified m-labels giving
    the value component along the complexified g-label beta."""

    def __init__(self, forms=None):
        self.forms = {b: f for b, f in (forms or {}).items() if not f.is_zero()}

    @staticmethod
    def flat() -> "FullTorsion":
        """The torsion of the model: every value is the Lie bracket."""
        values = {(i, j): bracket_complex(i, j) for i, j in combinations(range(5), 2)}
        return FullTorsion({
            beta: Form({pair: v[beta] for pair, v in values.items()})
            for beta in range(so32.DIM)
        })

    def add_term(self, arg1: str, arg2: str, value_label: str, coef) -> "FullTorsion":
        i, j, beta = (so32.COMPLEX_LABELS.index(x) for x in (arg1, arg2, value_label))
        forms = dict(self.forms)
        forms[beta] = forms.get(beta, Form()) + Form({(i, j): coef})
        return FullTorsion(forms)

    def value(self, i: int, j: int):
        """tau(e_i, e_j) for complexified m-labels, as complex g-coordinates."""
        zero = Form()
        return tuple(self.forms.get(b, zero).at((i, j)) for b in range(so32.DIM))

    def graded_component(self, i: int, j: int, k: int):
        """tau^k on the (i, j) complexified argument pair: the value
        components of grade g_i + g_j + k, as complex g-coordinates."""
        target = M_COMPLEX_GRADES[i] + M_COMPLEX_GRADES[j] + k
        return tuple(
            c if GRADES[beta] == target else GQ(0)
            for beta, c in enumerate(self.value(i, j))
        )

    def restrict_ctorsion(self, k: int) -> Cochain:
        """The degree-k part of the restriction to wedge pairs inside m_-,
        as a 2-cochain over the real monomial basis."""
        zc = [to_complex_basis(Alg.basis(a).coords) for a in range(3)]
        table = {}
        for a, b in combinations(range(3), 2):
            val = zero_vec(so32.DIM)
            for i, j in product(range(3), repeat=2):
                f = zc[a][i] * zc[b][j]
                if f:
                    val = vec_add(val, vec_scale(f, self.graded_component(i, j, k)))
            for beta, c in enumerate(from_complex_basis(val)):
                table[((a, b), beta)] = c
        return Cochain.from_full_table(2, k, table)


@dataclass(frozen=True)
class TorsionFunctional:
    """A linear functional extracting one component of a graded torsion part."""

    name: str
    source: str
    arg1: int     # complexified m-label indices
    arg2: int
    degree: int
    component: int  # complexified g-label index

    def apply(self, torsion: FullTorsion) -> GQ:
        return self.graded_value(torsion)[self.component]

    def graded_value(self, torsion: FullTorsion):
        return torsion.graded_component(self.arg1, self.arg2, self.degree)


def _zl(label):
    return so32.COMPLEX_LABELS.index(label)


def frame_conditions(step: int):
    """The pointwise linear frame-normalization functionals per step."""
    if step == 1:
        return [
            TorsionFunctional(
                "alpha(e^-1(10), e^0(10)) | e^-1(10)",
                "degree-0 torsion component on the contact-level pair",
                _zl("e^-1(10)"), _zl("e^0(10)"), 0, _zl("e^-1(10)"),
            ),
            TorsionFunctional(
                "alpha(e^-1(01), e^0(01)) | e^-1(01)",
                "conjugate degree-0 torsion component",
                _zl("e^-1(01)"), _zl("e^0(01)"), 0, _zl("e^-1(01)"),
            ),
            TorsionFunctional(
                "beta(e^-1(10), e^0(10)) | e^0(01)",
                "antiholomorphic m^0 component of the degree-1 torsion",
                _zl("e^-1(10)"), _zl("e^0(10)"), 1, _zl("e^0(01)"),
            ),
        ]
    if step == 2:
        return [
            TorsionFunctional(
                "gamma(e^-1(10), e^0(10)) | e^0(10)",
                "holomorphic m^0 component of the degree-1 torsion",
                _zl("e^-1(10)"), _zl("e^0(10)"), 1, _zl("e^0(10)"),
            ),
            TorsionFunctional(
                "gamma(e^-1(01), e^0(10)) | e^0(01)",
                "antiholomorphic m^0 component on the mixed pair",
                _zl("e^-1(01)"), _zl("e^0(10)"), 1, _zl("e^0(01)"),
            ),
        ]
    if step == 3:
        return [
            TorsionFunctional(
                "epsilon(e^-2, e^0(10)) | E^0(10)",
                "h^0 component of the degree-2 torsion, holomorphic part",
                _zl("e^-2"), _zl("e^0(10)"), 2, _zl("E^0(10)"),
            ),
            TorsionFunctional(
                "epsilon(e^-2, e^0(10)) | E^0(01)",
                "h^0 component of the degree-2 torsion, antiholomorphic part",
                _zl("e^-2"), _zl("e^0(10)"), 2, _zl("E^0(01)"),
            ),
        ]
    raise ValueError("step must be 1, 2 or 3")


def beta_gauge_response(mu, nu, nuprime) -> GQ:
    """Linear response of the beta component to a degree-1 frame change
    with parameters (mu, nu, nu'): -conj(mu) + nu - nu'.

    This is a frame-jet statement about the bundle construction, recorded
    here as the stated response law; it vanishes exactly on the l1 locus
    nu' = nu - conj(mu), which is why l1 is the residual gauge group once
    the beta component is normalized to zero."""
    mu, nu, nuprime = GQ.of(mu), GQ.of(nu), GQ.of(nuprime)
    return -mu.conj() + nu - nuprime


def beta_gauge_variation(base: FullTorsion, mu, nu, nuprime) -> FullTorsion:
    """The torsion after a degree-1 frame change, at the beta component."""
    return base.add_term(
        "e^-1(10)", "e^0(10)", "e^0(01)", beta_gauge_response(mu, nu, nuprime)
    )
