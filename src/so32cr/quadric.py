"""The projective quadric of the flat model, and polynomials in z, conj z.

The flat model sits in CP^4 as the quadric cut out by the vanishing of a
symmetric and a Hermitian form, on which SO(3,2) acts; the tube over the
future light cone in C^3 embeds into it, and an orbit value picks out the
model.  There is one chart: a point is its 5-tuple in the diag(+,+,+,-,-)
chart, and a point given in the anti-diagonal chart of the algebra
coordinates is converted once, on input.

The polynomials in z^1..z^3, conj z^1..conj z^3 live here too: the
embedding's identities expand the forms of a polynomial point, and
``so32cr.tube`` builds its vector fields from them.  A polynomial's terms
are compiled once into Gaussian-integer numerators over one denominator,
and a point's one power table holds its coordinates' powers the same way,
so an evaluation sums integer monomials and reduces once.

The ``run_*`` functions at the end fill the reports of ``so32cr model
quadric``, ``model embed`` and ``model identities``; this side of the model
needs no linear algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import (GQ, HALF, HALF_I, I, ZERO, _gq, over_common_denominator,
                      rat_from_str, vec)

# ---------------------------------------------------------------------------
# polynomials in z^1..z^3, conj z^1..conj z^3
# ---------------------------------------------------------------------------

NVARS = 6  # z1 z2 z3 zb1 zb2 zb3


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


# ---------------------------------------------------------------------------
# the defining function of the tube
# ---------------------------------------------------------------------------

def cone_quadratic(v):
    """v1^2 + v2^2 - v3^2, for scalars and polynomials alike."""
    return v[0] * v[0] + v[1] * v[1] - v[2] * v[2]


@lru_cache(maxsize=1)
def rho() -> Poly:
    """The cone quadratic of x^j = (z^j + conj z^j)/2."""
    return cone_quadratic([(Poly.var(j) + Poly.var(j + 3)) * HALF
                           for j in range(3)])


# ---------------------------------------------------------------------------
# projective quadric model
# ---------------------------------------------------------------------------

_DIAG_SIGNS = vec((1, 1, 1, -1, -1))


def projective_point(coords, chart: str) -> tuple:
    """The diag-chart tuple of a point given by coordinates in ``chart``.
    Anti-diagonal coordinates t go over to s0 = t0/2 + t4, s1 = t1/2 + t3,
    s2 = t2, s3 = t1/2 - t3, s4 = t0/2 - t4, which carries diag(+,+,+,-,-)
    to the anti-diagonal form of the algebra."""
    t = vec(coords)
    if len(t) != 5 or all(not c for c in t):
        raise ValueError("need a nonzero 5-vector")
    if chart not in ("diag", "antidiag"):
        raise ValueError("chart must be 'diag' or 'antidiag'")
    if chart == "diag":
        return t
    return (t[0] * HALF + t[4], t[1] * HALF + t[3], t[2],
            t[1] * HALF - t[3], t[0] * HALF - t[4])


def ambient_forms(s):
    """((s, s), <s, s>) over diag(+,+,+,-,-) at a diag-chart tuple s, for
    scalars and polynomials alike."""
    bil = herm = ZERO
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
    """(the symmetric form vanishes, the Hermitian form is twice rho): the
    embedding's two polynomial identities as exact booleans, the diag-chart
    forms of ``embedding_coords`` expanded symbolically."""
    bil, herm = ambient_forms(embedding_coords([Poly.var(j) for j in range(3)]))
    return bil.is_zero(), (herm - rho() * GQ(2)).is_zero()


# ---------------------------------------------------------------------------
# the quadric-side model commands
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
        "exact substitution (diag chart only)" if chart == "diag"
        else "exact substitution on the diag-chart representative",
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


def run_model_identities(rep):
    symmetric_vanishes, hermitian_is_twice_rho = embedding_identity_check()
    rep.add("symmetric form of the embedding vanishes identically",
            True, symmetric_vanishes, "symbolic expansion")
    rep.add("hermitian form of the embedding is twice the defining function",
            True, hermitian_is_twice_rho, "symbolic expansion")
    f = embed_f([3, 4, 5])
    bil, herm, third = quadric_eval(f)
    rep.add("sample point lands on the quadric", "0/1 0/1",
            f"{bil.to_str()} {herm.to_str()}", "substitution at a cone point")
    rep.add("sample point orbit value", "5/2", third.to_str(),
            "substitution at a cone point")
