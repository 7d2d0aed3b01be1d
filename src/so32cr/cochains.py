"""Homogeneous cochain complexes on the negative part of so(3,2).

C^l_k carries alternating l-linear maps from m_- = m^-2 + m^-1 (basis
e^-2, e_1^-1, e_2^-1) into g = so(3,2), homogeneous of degree k: the value
on a wedge of total grade s lies in g^(s+k).  The coboundary is the
Chevalley-Eilenberg differential for the m_--module g (full adjoint
action, no truncation of values).

The codifferential is the Killing-form adjoint of the coboundary.  Both
argument algebras are read off the structure constants at basis indices:
m_- is (e^-2, e_1^-1, e_2^-1) and h_+ = h^2 + h^1 is (E^2, E_1^1, E_2^1),
the order in which kappa(n_a, h_b) = kappa delta_ab with kappa = 6
(checked once), so the Killing duals of m_- are h_+ / kappa.  The mirror
complex on h_+ writes its values in the Killing-dual basis b^beta of g,
where ad(h) acts as -ad(h)^T and every grade is flipped.  Monomial
(w, beta) of C^l_{-k}(h_+) over the arguments h_+ / kappa is then the
Killing dual of monomial (w, beta) of C^l_k(m_-), listed in the same
order.  Each coboundary entry is linear in the structure constants of the
arguments, so the coboundary d_h over h_+ is kappa times the one over
h_+ / kappa, and <d* c, e> = -<c, d_h e> / kappa gives d* =
-(1/kappa) d_h^T with no Gram matrix.  Flipping the sign of d* moves no
kernel or image, so two independent tests pin it: the Killing-pairing
formula pins the sign, and Kostant's Laplacian d* d + d d* =
(1 - C_g0)/2 + k/6 on C^l_k, C_g0 the Casimir of g^0, pins both the sign
and the scale.

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

from .scalars import GQ, ZERO, unit_vec, vec, zero_vec
from .linalg import Matrix, Subspace, kernel, rank, solution_map
from . import so32
from .forms import Form, canonical, exterior_derivative
from .so32 import GRADES, M_MINUS

MAX_ELL = 3  # top wedge degree of a 3-dimensional argument algebra
# h_+ in the order of its Killing pairing with M_MINUS: E^2, E_1^1, E_2^1
H_PLUS = (9, 7, 8)


class _Side:
    """One argument algebra acting on g by ad, read off the structure
    constants at the basis indices of its arguments: m_- with values in the
    standard basis of g (sign +1), or h_+ with values in the Killing-dual
    basis of g (sign -1), where ad acts as minus its transpose and every
    grade is flipped."""

    def __init__(self, indices, sign):
        table = so32.structure_constants()
        self.sign, self.n = sign, len(indices)
        brackets = {(a, b): table.get((i, j), {}) for (a, i), (b, j)
                    in combinations(enumerate(indices), 2)}
        if any(c not in indices for row in brackets.values() for c in row):
            raise ValueError("argument basis does not close under bracket")
        # d theta^c = -sum_{a<b} C^c_ab theta^a ^ theta^b on the dual coframe
        self.d_theta = tuple(
            Form({ab: -row.get(c, ZERO) for ab, row in brackets.items()})
            for c in indices)
        # ad_values[a][beta] = {gamma: coefficient} of [n_a, b_beta], or of
        # [n_a, b^beta] = -sum_gamma [n_a, b_gamma]_beta b^gamma when sign < 0
        self.ad_values = [[
            table.get((i, beta), {}) if sign > 0 else
            {gamma: -table[i, gamma][beta] for gamma in range(so32.DIM)
             if beta in table.get((i, gamma), {})}
            for beta in range(so32.DIM)] for i in indices]

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
    return _Side(M_MINUS, 1)


@lru_cache(maxsize=1)
def _side_h() -> _Side:
    return _Side(H_PLUS, -1)


@lru_cache(maxsize=1)
def _killing_pairing() -> GQ:
    """The constant kappa of the Killing pairing kappa(n_a, h_b) =
    kappa delta_ab of m_- and h_+ in the pairing order, the one number d*
    reads from the Killing form; any other block would leave d* unpaired."""
    block = [[so32.killing(i, j) for j in H_PLUS] for i in M_MINUS]
    kappa = block[0][0]
    if not kappa or block != [[kappa if a == b else ZERO for b in range(3)]
                              for a in range(3)]:
        raise ArithmeticError(
            "the Killing pairing of m_- and h_+ is not kappa times the identity")
    return kappa


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
                for gamma, v in side.ad_values[a][beta].items():
                    entries.append((dst_index[key, gamma], p, c * v))
    return Matrix.from_entries(len(dst_index), len(src), entries)


def coboundary_matrix(ell: int, k: int) -> Matrix:
    """Matrix of d : C^ell_k -> C^(ell+1)_k over the monomial bases."""
    if not 0 <= ell < MAX_ELL:
        raise ValueError("coboundary needs a cochain degree ell in 0..2")
    return _coboundary_on(_side_m(), ell, k)


def coboundary(c: Cochain) -> Cochain:
    return Cochain(c.ell + 1, c.k, coboundary_matrix(c.ell, c.k).apply(c.coords))


# -- codifferential ----------------------------------------------------------

def codifferential_matrix(ell: int, k: int) -> Matrix:
    """Matrix of d* : C^ell_k -> C^(ell-1)_k, -(1/kappa) times the transpose
    of the mirror coboundary C^(ell-1)_-k(h_+) -> C^ell_-k(h_+)."""
    if ell <= 0:
        raise ValueError("codifferential undefined for 0-cochains")
    return _coboundary_on(_side_h(), ell - 1, -k).transpose().scale(
        -_killing_pairing().inverse())


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
def _hodge_map(pieces):
    """The fixed map from a cochain to its coordinates along the pieces,
    and each piece's basis matrix."""
    basis = [v for piece in pieces for v in piece.basis_vectors()]
    if len(basis) != pieces[0].ambient_dim:
        raise ArithmeticError("Kostant pieces do not decompose the slice")
    return (solution_map(Matrix.from_columns(basis), "Kostant pieces overlap"),
            tuple(piece.basis for piece in pieces))


def hodge_decompose(c: Cochain) -> HodgeTriple:
    """Split c along im d + harmonic + im d*; exact and unique."""
    to_pieces, bases = _hodge_map(kostant_pieces(c.ell, c.k))
    x, parts = to_pieces.apply(c.coords), []
    for basis in bases:
        parts.append(Cochain(c.ell, c.k, basis.apply(x[:basis.ncols])))
        x = x[basis.ncols:]
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
