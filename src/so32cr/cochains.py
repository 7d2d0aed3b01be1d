"""Homogeneous cochain complexes on the negative part of so(3,2).

C^l_k carries alternating l-linear maps from m_- = m^-2 + m^-1 (basis
e^-2, e_1^-1, e_2^-1) into g = so(3,2), homogeneous of degree k: the value
on a wedge of total grade s lies in g^(s+k).  The coboundary is the
Chevalley-Eilenberg differential for the m_--module g (full adjoint
action, no truncation of values).

The codifferential is minus the transpose of the coboundary of the mirror
complex on h_+ = h^1 + h^2, whose arguments are the Killing-dual basis of
h_+ (kappa(n_a, eta_b) = delta_ab) and whose values are written in the
Killing-dual basis b^beta of g, where ad(eta) acts as -ad(eta)^T and every
grade is flipped.  Monomial (w, beta) of C^l_{-k}(h_+) is then the Killing
dual of monomial (w, beta) of C^l_k(m_-), listed in the same order, so
<d* c, e> = -<c, d_h e> needs no Gram matrix.  Flipping the sign of d*
moves no kernel or image, so two independent tests pin it: the
Killing-pairing formula pins the sign, and Kostant's Laplacian
d* d + d d* = (1 - C_g0)/2 + k/6 on C^l_k, C_g0 the Casimir of g^0, pins
both the sign and the scale.

Every monomial (wedge of basis covectors times a value basis vector) is
homogeneous, so each graded slice is spanned by a sub-list of monomials and
homogeneity is structural: a Cochain is a coordinate vector over the slice.

The ``run_*`` functions at the end fill the reports of ``so32cr
cohomology`` and ``so32cr hodge``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .scalars import GQ, unit_vec, vec, zero_vec
from .linalg import Matrix, Subspace, kernel, rank, solution_map
from . import so32
from .forms import Form, canonical, exterior_derivative
from .so32 import GRADES, M_MINUS, bracket_coords, killing_gram

MAX_ELL = 3  # top wedge degree of a 3-dimensional argument algebra


def _arg_vectors_m():
    return [unit_vec(so32.DIM, i) for i in M_MINUS]


def _arg_vectors_h():
    """Killing-dual basis of h_+ = the positive grades: kappa(n_a, eta_b) =
    delta_ab, so eta_b has the grade opposite to n_b."""
    h_plus = [i for i, g in enumerate(GRADES) if g > 0]
    g = killing_gram()
    gram = Matrix([[g[i][j] for j in h_plus] for i in M_MINUS])
    embed = Matrix.from_columns([unit_vec(so32.DIM, i) for i in h_plus])
    return (embed @ solution_map(gram)).columns()


class _Side:
    """One argument algebra acting on g by ad: m_- with values in the
    standard basis of g (sign +1), or h_+ with values in its Killing-dual
    basis (sign -1), where every grade is flipped."""

    def __init__(self, arg_vectors, sign):
        self.args = [vec(v) for v in arg_vectors]
        self.sign = sign
        self.n = len(self.args)
        # brackets of argument basis vectors, re-expanded in that basis
        span = Matrix.from_columns(self.args)
        left = solution_map(span.transpose()).transpose()
        self.bracket_coeffs = {}
        for a in range(self.n):
            for b in range(self.n):
                w = bracket_coords(self.args[a], self.args[b])
                self.bracket_coeffs[(a, b)] = x = left.apply(w)
                if span.apply(x) != w:
                    raise ValueError("argument basis does not close under bracket")
        # d theta^c = -sum_{a<b} C^c_ab theta^a ^ theta^b on the dual coframe
        self.d_theta = tuple(
            Form({(a, b): -self.bracket_coeffs[(a, b)][c]
                  for a, b in combinations(range(self.n), 2)})
            for c in range(self.n)
        )
        # ad_values[a][beta]: coordinates of [n_a, b_beta], or of
        # [n_a, b^beta] = -sum_gamma [n_a, b_gamma]_beta b^gamma when sign < 0
        self.ad_values = []
        for v in self.args:
            ad = Matrix.from_columns([bracket_coords(v, unit_vec(so32.DIM, b))
                                      for b in range(so32.DIM)])
            self.ad_values.append(
                (ad if sign > 0 else ad.transpose().scale(-1)).columns())

    def monomials(self, ell: int):
        """All (sorted wedge tuple, value index) monomials of C^ell."""
        return [
            (w, beta)
            for w in combinations(range(self.n), ell)
            for beta in range(so32.DIM)
        ]

    def monomial_degree(self, mono) -> int:
        w, beta = mono
        return self.sign * (GRADES[beta] - sum(GRADES[M_MINUS[a]] for a in w))

    def graded_monomials(self, ell: int, k: int):
        return [m for m in self.monomials(ell) if self.monomial_degree(m) == k]


@lru_cache(maxsize=1)
def _side_m() -> _Side:
    return _Side(_arg_vectors_m(), 1)


@lru_cache(maxsize=1)
def _side_h() -> _Side:
    return _Side(_arg_vectors_h(), -1)


# ---------------------------------------------------------------------------
# graded slices and matrices on the m_- side
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cochain_monomials(ell: int, k: int):
    """Canonical ordered monomial basis of C^ell_k(m_-, g)."""
    if not 0 <= ell <= MAX_ELL:
        raise ValueError("cochain degree ell must be between 0 and 3")
    return tuple(_side_m().graded_monomials(ell, k))


def cochain_dim(ell: int, k: int) -> int:
    return len(cochain_monomials(ell, k))


class Cochain:
    """Element of C^ell_k(m_-, g): coordinates over the monomial basis;
    immutable, equal when ell, k and the coordinates are."""

    __slots__ = ("ell", "k", "coords")

    def __init__(self, ell: int, k: int, coords):
        if len(coords) != cochain_dim(ell, k):
            raise ValueError("coordinate count does not match the slice basis")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coords", vec(coords))

    def __setattr__(self, *a):
        raise AttributeError("Cochain is immutable")

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.ell, self.k, self.coords) == (other.ell, other.k,
                                                   other.coords)

    def __hash__(self):
        return hash((self.ell, self.k, self.coords))

    @staticmethod
    def zero(ell: int, k: int) -> "Cochain":
        return Cochain(ell, k, zero_vec(cochain_dim(ell, k)))

    @staticmethod
    def from_full_table(ell: int, k: int, table: dict) -> "Cochain":
        """Build from {(wedge tuple, value index): GQ}.  A wedge in any order
        counts with the sign of its sort and a wedge with a repeated index
        as zero (the alternating-key rule of ``forms``); any nonzero
        coefficient violating homogeneity of degree k is rejected."""
        monos = cochain_monomials(ell, k)
        index = {m: p for p, m in enumerate(monos)}
        coords = [GQ(0)] * len(monos)
        for (wedge, beta), c in table.items():
            c = GQ.of(c)
            order, sign = canonical(wedge)
            if not c or not sign:
                continue
            key = (order, beta)
            if key not in index:
                raise ValueError(f"coefficient at {key} violates homogeneity")
            coords[index[key]] += c if sign > 0 else -c
        return Cochain(ell, k, coords)

    def coeff_map(self) -> dict:
        monos = cochain_monomials(self.ell, self.k)
        return {m: c for m, c in zip(monos, self.coords) if c}

    def __add__(self, other):
        self._compat(other)
        return Cochain(self.ell, self.k,
                       [a + b for a, b in zip(self.coords, other.coords)])

    def _compat(self, other):
        if (self.ell, self.k) != (other.ell, other.k):
            raise ValueError("cochain bidegree mismatch")


# -- c-torsion JSON round trip -----------------------------------------------

_ARG_LABELS = tuple(so32.REAL_LABELS[i] for i in M_MINUS)


def ctorsion_to_json(c: Cochain) -> dict:
    terms = []
    for (wedge, beta), coef in sorted(c.coeff_map().items()):
        terms.append(
            {
                "args": [_ARG_LABELS[a] for a in wedge],
                "value": so32.REAL_LABELS[beta],
                "coef": coef.to_str(),
            }
        )
    return {"k": c.k, "terms": terms}


def ctorsion_from_json(data) -> Cochain:
    """Inverse of ctorsion_to_json; input of any other shape raises
    ValueError.  An argument pair may come in either order: a reversed
    pair counts with the opposite sign."""
    if not (
        isinstance(data, dict)
        and type(data.get("k")) is int
        and isinstance(data.get("terms"), list)
        and all(
            isinstance(t, dict)
            and isinstance(t.get("args"), list)
            and isinstance(t.get("value"), str)
            and isinstance(t.get("coef"), str)
            for t in data["terms"]
        )
    ):
        raise ValueError(
            'c-torsion input must be {"k": int, "terms": [{"args": [...], '
            '"value": str, "coef": str}, ...]}'
        )
    k = data["k"]
    table = {}
    for t in data["terms"]:
        args = t["args"]
        if len(args) != 2 or not all(a in _ARG_LABELS for a in args):
            raise ValueError(f"term args {args!r} must be two of {_ARG_LABELS}")
        if args[0] == args[1]:
            raise ValueError(f"term args repeat the argument {args[0]!r}")
        if t["value"] not in so32.REAL_LABELS:
            raise ValueError(
                f"term value {t['value']!r} must be one of {so32.REAL_LABELS}")
        wedge = tuple(_ARG_LABELS.index(a) for a in args)
        beta = so32.REAL_LABELS.index(t["value"])
        key = (wedge, beta)
        table[key] = table.get(key, GQ(0)) + GQ.from_str(t["coef"])
    return Cochain.from_full_table(2, k, table)


# -- coboundary -------------------------------------------------------------

@lru_cache(maxsize=None)
def _coboundary_on(side: _Side, ell: int, k: int) -> Matrix:
    """Matrix of d : C^ell_k -> C^(ell+1)_k of one side's complex over its
    graded monomial bases, column by column from the exterior derivative

        d(theta^w (x) v) = sum_a theta^a ^ theta^w (x) [n_a, v] + d theta^w (x) v.
    """
    dst_index = {
        m: p for p, m in enumerate(side.graded_monomials(ell + 1, k))
    }
    src = side.graded_monomials(ell, k)
    entries = []
    for p, (w, beta) in enumerate(src):
        d_w = exterior_derivative(Form({w: 1}), side.d_theta.__getitem__)
        for key, c in d_w.coeffs.items():
            entries.append((dst_index[key, beta], p, c))
        for a in range(side.n):
            for key, c in Form({(a,) + w: 1}).coeffs.items():
                for gamma, v in enumerate(side.ad_values[a][beta]):
                    if v:
                        entries.append((dst_index[key, gamma], p, c * v))
    return Matrix.from_entries(len(dst_index), len(src), entries)


def coboundary_matrix(ell: int, k: int) -> Matrix:
    """Matrix of d : C^ell_k -> C^(ell+1)_k over the monomial bases."""
    if not 0 <= ell < MAX_ELL:
        raise ValueError("coboundary needs a cochain degree ell in 0..2")
    return _coboundary_on(_side_m(), ell, k)


def coboundary(c: Cochain) -> Cochain:
    if c.ell >= MAX_ELL:
        raise ValueError("coboundary undefined for 3-cochains")
    return Cochain(c.ell + 1, c.k, coboundary_matrix(c.ell, c.k).apply(c.coords))


# -- codifferential ----------------------------------------------------------

def codifferential_matrix(ell: int, k: int) -> Matrix:
    """Matrix of d* : C^ell_k -> C^(ell-1)_k, minus the transpose of the
    mirror coboundary C^(ell-1)_-k(h_+) -> C^ell_-k(h_+)."""
    if ell <= 0:
        raise ValueError("codifferential undefined for 0-cochains")
    return _coboundary_on(_side_h(), ell - 1, -k).transpose().scale(-1)


# -- Kostant decomposition ----------------------------------------------------

def _image_subspace(m: Matrix) -> Subspace:
    return Subspace(m.nrows, m.columns())


@lru_cache(maxsize=None)
def kostant_pieces(ell: int, k: int):
    """(exact, harmonic, coexact) subspaces of C^ell_k; their direct sum is
    the whole slice (checked by the callers' tests, used blindly here)."""
    n = cochain_dim(ell, k)
    exact = (
        _image_subspace(coboundary_matrix(ell - 1, k))
        if ell > 0
        else Subspace(n)
    )
    coexact = (
        _image_subspace(codifferential_matrix(ell + 1, k))
        if ell < MAX_ELL
        else Subspace(n)
    )
    # ker d and ker d* at once; at ell = 0 and ell = 3 only one of them exists
    rows = ((coboundary_matrix(ell, k).rows if ell < MAX_ELL else ())
            + (codifferential_matrix(ell, k).rows if ell > 0 else ()))
    harmonic = kernel(Matrix._of(rows, n))
    return exact, harmonic, coexact


class HodgeTriple(NamedTuple):
    exact: Cochain
    harmonic: Cochain
    coexact: Cochain

    def resum(self) -> Cochain:
        return self.exact + self.harmonic + self.coexact


@lru_cache(maxsize=None)
def _hodge_map(pieces) -> Matrix:
    """The fixed map from a cochain to its coordinates along the pieces."""
    basis = [v for piece in pieces for v in piece.basis_vectors()]
    if len(basis) != pieces[0].ambient_dim:
        raise ArithmeticError("Kostant pieces do not decompose the slice")
    return solution_map(Matrix.from_columns(basis), "Kostant pieces overlap")


def hodge_decompose(c: Cochain) -> HodgeTriple:
    """Split c along im d + harmonic + im d*; exact and unique."""
    pieces = kostant_pieces(c.ell, c.k)
    x, parts = _hodge_map(pieces).apply(c.coords), []
    for piece in pieces:
        parts.append(Cochain(c.ell, c.k, piece.basis.apply(x[:piece.dim])))
        x = x[piece.dim:]
    return HodgeTriple(*parts)


def cohomology_dim(ell: int, k: int) -> int:
    """dim ker d - dim im d = dim C^ell_k - rank d_ell - rank d_(ell-1)."""
    n = cochain_dim(ell, k)  # rejects a degree outside 0..3 first
    rank_d = rank(coboundary_matrix(ell, k)) if ell < MAX_ELL else 0
    rank_prev = rank(coboundary_matrix(ell - 1, k)) if ell > 0 else 0
    return n - rank_d - rank_prev


# ---------------------------------------------------------------------------
# the cohomology and hodge commands
# ---------------------------------------------------------------------------

def run_cohomology(rep, ell: int, k: int):
    dim = cohomology_dim(ell, k)
    harm = kostant_pieces(ell, k)[1].dim
    rep.add(f"dim H^{ell}_{k}", dim, dim, "kernel/image rank arithmetic")
    rep.add(
        "agrees with harmonic dimension",
        dim,
        harm,
        "two independent computations (quotient vs harmonic subspace)",
    )


def run_hodge(rep, ell: int, k: int):
    n = cochain_dim(ell, k)
    exact, harm, coex = kostant_pieces(ell, k)
    rep.add("dim slice", n, n, "monomial enumeration")
    rep.add(
        "dims (exact, harmonic, coexact)",
        f"sum {n}",
        f"({exact.dim}, {harm.dim}, {coex.dim}) sum {exact.dim + harm.dim + coex.dim}",
        "Kostant direct-sum decomposition",
        ok=exact.dim + harm.dim + coex.dim == n,
    )
    # A and B meet in 0 iff their stacked canonical rows have full rank
    rep.add(
        "pairwise intersections trivial",
        True,
        all(rank(Matrix._of(a.rows + b.rows, n)) == a.dim + b.dim
            for a, b in ((exact, harm), (exact, coex), (harm, coex))),
        "Kostant direct-sum decomposition",
    )
    units = [Cochain(ell, k, unit_vec(n, p)) for p in range(n)]
    try:
        resum_ok = all(hodge_decompose(c).resum().coords == c.coords
                       for c in units)
    except ArithmeticError:  # the pieces overlap or do not span the slice
        resum_ok = False
    rep.add("decompose/resum is the identity", True, resum_ok, "partition of identity")
