"""Homogeneous cochain complexes on the negative part of so(3,2).

C^l_k carries alternating l-linear maps from m_- = m^-2 + m^-1 (basis
e^-2, e_1^-1, e_2^-1) into g = so(3,2), homogeneous of degree k: the value
on a wedge of total grade s lies in g^(s+k).  The coboundary is the
Chevalley-Eilenberg differential for the m_--module g (full adjoint
action, no truncation of values).

The codifferential is the negative transpose of the coboundary of the
mirror complex on h_+ = h^1 + h^2 under the two Killing pairings: the
argument pairing matches the m_- basis with its Killing-dual basis of h_+,
and values are paired by the Killing form itself (Killing is ad-invariant,
so the mirror module may stay g with the adjoint action).  This convention
is pinned by the direct-sum decomposition tests; flipping the overall sign
would change no kernel or image.

Every monomial (wedge of basis covectors times a value basis vector) is
homogeneous, so each graded slice is spanned by a sub-list of monomials and
homogeneity is structural: a Cochain is a coordinate vector over the slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .scalars import GQ
from .linalg import (
    NO_SOLUTION,
    Matrix,
    Subspace,
    inverse,
    kernel,
    rank,
    solve,
    unit_vec,
    vec,
    zero_vec,
)
from . import so32
from .forms import Form, canonical, exterior_derivative
from .so32 import Alg, GRADES, bracket_coords, killing_gram

MAX_ELL = 3  # top wedge degree of a 3-dimensional argument algebra

# m_- side: global basis indices and grades
_N_IDX = (0, 1, 2)
_N_GRADES = (-2, -1, -1)
# h_+ side basis order chosen so that the Killing-dual pairing is graded:
# E^2 pairs with e^-2, E_1^1 with e_1^-1, E_2^1 with e_2^-1
_H_IDX = (9, 7, 8)
_H_GRADES = (2, 1, 1)


def _arg_vectors_m():
    return [vec(so32.Alg.basis(i).coords) for i in _N_IDX]


@lru_cache(maxsize=1)
def _arg_vectors_h():
    """Killing-dual basis of h_+: kappa(n_a, eta_b) = delta_ab."""
    g = killing_gram()
    gram = Matrix([[g[i, j] for j in _H_IDX] for i in _N_IDX])
    embed = Matrix.from_columns([unit_vec(so32.DIM, i) for i in _H_IDX])
    return (embed @ inverse(gram)).columns()


class _Side:
    """One argument algebra (m_- or h_+) acting on g by ad."""

    def __init__(self, arg_vectors, arg_grades):
        self.args = [vec(v) for v in arg_vectors]
        self.arg_grades = tuple(arg_grades)
        self.n = len(self.args)
        # brackets of argument basis vectors, re-expanded in that basis
        span = Matrix.from_columns(self.args)
        self.bracket_coeffs = {}
        for a in range(self.n):
            for b in range(self.n):
                w = bracket_coords(self.args[a], self.args[b])
                res = solve(span, w)
                if res is NO_SOLUTION:
                    raise ValueError("argument basis does not close under bracket")
                x, _ = res
                self.bracket_coeffs[(a, b)] = x
        # d theta^c = -sum_{a<b} C^c_ab theta^a ^ theta^b on the dual coframe
        self.d_theta = tuple(
            Form({(a, b): -self.bracket_coeffs[(a, b)][c]
                  for a, b in combinations(range(self.n), 2)})
            for c in range(self.n)
        )
        # ad_values[a][beta]: coordinates of [n_a, g_beta]
        self.ad_values = tuple(
            tuple(bracket_coords(v, unit_vec(so32.DIM, beta))
                  for beta in range(so32.DIM))
            for v in self.args
        )

    def monomials(self, ell: int):
        """All (sorted wedge tuple, value index) monomials of C^ell."""
        return [
            (w, beta)
            for w in combinations(range(self.n), ell)
            for beta in range(so32.DIM)
        ]

    def monomial_degree(self, mono) -> int:
        w, beta = mono
        return GRADES[beta] - sum(self.arg_grades[a] for a in w)

    def graded_monomials(self, ell: int, k: int):
        return [m for m in self.monomials(ell) if self.monomial_degree(m) == k]


@lru_cache(maxsize=1)
def _side_m() -> _Side:
    return _Side(_arg_vectors_m(), _N_GRADES)


@lru_cache(maxsize=1)
def _side_h() -> _Side:
    return _Side(_arg_vectors_h(), _H_GRADES)


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


@dataclass(frozen=True)
class Cochain:
    """Element of C^ell_k(m_-, g): coordinates over the monomial basis."""

    ell: int
    k: int
    coords: tuple

    def __post_init__(self):
        monos = cochain_monomials(self.ell, self.k)
        if len(self.coords) != len(monos):
            raise ValueError("coordinate count does not match the slice basis")
        object.__setattr__(self, "coords", vec(self.coords))

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

    def evaluate(self, *arg_vectors):
        """Value on elements of m_- given as 3-vectors over (e^-2, e_1^-1, e_2^-1)."""
        if len(arg_vectors) != self.ell:
            raise ValueError("wrong number of arguments")
        args = [vec(a) for a in arg_vectors]
        values = {}
        for (w, beta), c in self.coeff_map().items():
            values.setdefault(beta, {})[w] = c
        out = [GQ(0)] * so32.DIM
        for beta, coeffs in values.items():
            form = Form(coeffs)
            for idx_tuple in product(range(len(_N_IDX)), repeat=self.ell):
                f = GQ(1)
                for pos, i in enumerate(idx_tuple):
                    f = f * args[pos][i]
                if f:
                    out[beta] += f * form.at(idx_tuple)
        return tuple(out)

    def __add__(self, other):
        self._compat(other)
        return Cochain(self.ell, self.k,
                       [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._compat(other)
        return Cochain(self.ell, self.k,
                       [a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        c = GQ.of(c)
        return Cochain(self.ell, self.k, [c * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def _compat(self, other):
        if (self.ell, self.k) != (other.ell, other.k):
            raise ValueError("cochain bidegree mismatch")


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
    cols = []
    for w, beta in side.graded_monomials(ell, k):
        col = [GQ(0)] * len(dst_index)
        d_w = exterior_derivative(Form({w: 1}), side.d_theta.__getitem__)
        for key, c in d_w.coeffs.items():
            col[dst_index[key, beta]] += c
        for a in range(side.n):
            for key, c in Form({(a,) + w: 1}).coeffs.items():
                for gamma, v in enumerate(side.ad_values[a][beta]):
                    if v:
                        col[dst_index[key, gamma]] += c * v
        cols.append(col)
    return Matrix.from_columns(cols, nrows=len(dst_index))


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

@lru_cache(maxsize=None)
def _pairing_matrix(ell: int, k: int) -> Matrix:
    """<c, d> = c^T P d between C^ell_k(m_-, g) and C^ell_{-k}(h_+, g)."""
    rows_m = cochain_monomials(ell, k)
    cols_h = tuple(_side_h().graded_monomials(ell, -k))
    g = killing_gram()
    return Matrix(
        [
            [
                g[beta, gamma] if wm == wh else GQ(0)
                for (wh, gamma) in cols_h
            ]
            for (wm, beta) in rows_m
        ],
        ncols=len(cols_h),
    )


@lru_cache(maxsize=None)
def codifferential_matrix(ell: int, k: int) -> Matrix:
    """Matrix of d* : C^ell_k -> C^(ell-1)_k (negative Killing transpose)."""
    if ell <= 0:
        raise ValueError("codifferential undefined for 0-cochains")
    p_src = _pairing_matrix(ell, k)          # C^ell_k x C^ell_-k(h)
    p_dst = _pairing_matrix(ell - 1, k)      # C^(ell-1)_k x C^(ell-1)_-k(h)
    dh = _coboundary_on(_side_h(), ell - 1, -k)  # C^(ell-1)_-k(h) -> C^ell_-k(h)
    if p_dst.nrows == 0 or p_dst.ncols == 0:
        return Matrix.zero(0, cochain_dim(ell, k))
    # <d* c, d> = -<c, dh d>  for all d
    return inverse(p_dst.transpose()).scale(-1) @ dh.transpose() @ p_src.transpose()


def codifferential(c: Cochain) -> Cochain:
    if c.ell <= 0:
        raise ValueError("codifferential undefined for 0-cochains")
    return Cochain(c.ell - 1, c.k,
                   codifferential_matrix(c.ell, c.k).apply(c.coords))


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
        else Subspace.zero(n)
    )
    coexact = (
        _image_subspace(codifferential_matrix(ell + 1, k))
        if ell < MAX_ELL
        else Subspace.zero(n)
    )
    ker_d = (
        kernel(coboundary_matrix(ell, k)) if ell < MAX_ELL else Subspace.full(n)
    )
    ker_ds = (
        kernel(codifferential_matrix(ell, k)) if ell > 0 else Subspace.full(n)
    )
    harmonic = ker_d.intersect(ker_ds)
    return exact, harmonic, coexact


@dataclass(frozen=True)
class HodgeTriple:
    exact: Cochain
    harmonic: Cochain
    coexact: Cochain

    def resum(self) -> Cochain:
        return self.exact + self.harmonic + self.coexact


def hodge_decompose(c: Cochain) -> HodgeTriple:
    """Split c along im d + harmonic + im d*; exact and unique."""
    ell, k = c.ell, c.k
    exact, harmonic, coexact = kostant_pieces(ell, k)
    n = cochain_dim(ell, k)
    basis = (
        exact.basis_vectors() + harmonic.basis_vectors() + coexact.basis_vectors()
    )
    if len(basis) != n:
        raise ArithmeticError("Kostant pieces do not decompose the slice")
    span = Matrix.from_columns(basis, nrows=n)
    res = solve(span, c.coords)
    if res is NO_SOLUTION or res[1].dim != 0:
        raise ArithmeticError("Kostant pieces overlap")
    x, _ = res
    parts = []
    offset = 0
    for piece in (exact, harmonic, coexact):
        coefs = x[offset: offset + piece.dim]
        parts.append(Cochain(ell, k, piece.basis.apply(coefs)))
        offset += piece.dim
    return HodgeTriple(*parts)


def cohomology_dim(ell: int, k: int) -> int:
    """dim ker d - dim im d = dim C^ell_k - rank d_ell - rank d_(ell-1)."""
    rank_d = rank(coboundary_matrix(ell, k)) if ell < MAX_ELL else 0
    rank_prev = rank(coboundary_matrix(ell - 1, k)) if ell > 0 else 0
    return cochain_dim(ell, k) - rank_d - rank_prev


# -- adjoint actions on cochains ----------------------------------------------

def act_on_cochain(x: Alg, c: Cochain) -> Cochain:
    """Natural action of a grade-homogeneous x (grade >= 0 part of g) on an
    m_- cochain: ad on values minus the induced action on arguments, the
    argument bracket taken modulo everything outside m_-.  Acting by grade
    j shifts the homogeneity degree from k to k + j."""
    xgrades = {so32.GRADES[i] for i, ci in enumerate(x.coords) if ci}
    if len(xgrades) > 1:
        raise ValueError("actor must be grade homogeneous")
    k_out = c.k + (xgrades.pop() if xgrades else 0)
    side = _side_m()
    cm = c.coeff_map()
    # argument action matrix: proj_{m_-} [x, n_a]
    arg_act = []
    for a in range(side.n):
        w = bracket_coords(x.coords, side.args[a])
        arg_act.append(tuple(w[i] for i in _N_IDX))
    out = {}
    for (wedge, beta), coef in cm.items():
        # value part [x, g_beta]
        valbr = bracket_coords(x.coords, Alg.basis(beta).coords)
        for b2 in range(so32.DIM):
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
