"""Acceptance suite: every finite, exact claim the engine is contracted to
verify, one criterion per test, each printing its own pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; all tolerances are exact equality."""

import itertools
import random
import sys
from fractions import Fraction

from oracles import (BASE_POINT, SAMPLE_POINTS, act_on_cochain, grades,
                     intersect, isotropy_algebra, model_levi_cubic, span_sum)
from so32cr.scalars import GQ, unit_vec
from so32cr.linalg import Subspace, rank, vec_add
from so32cr import so32
from so32cr.so32 import GRADES, GRADE_DIMS, bracket_coords, real_unit
from so32cr.carriers import Carrier, endo_complex_matrix
from so32cr import cochains
from so32cr.cochains import Cochain, cochain_dim
from so32cr import prolong
from so32cr import quadric, tube
from so32cr import structeq
from so32cr.cli import run

I = GQ(0, 1)


def _codifferential(c):
    return Cochain(c.ell - 1, c.k,
                   cochains.codifferential_matrix(c.ell, c.k).apply(c.coords))


def _report(num, name, ok):
    print(f"criterion {num:>2} {'PASS' if ok else 'FAIL'}  {name}",
          file=sys.stderr)
    assert ok, f"criterion {num}: {name}"


def test_criterion_01_lie_algebra_integrity():
    basis = [unit_vec(10, i) for i in range(10)]
    br = bracket_coords
    jacobi = all(
        not any(vec_add(vec_add(br(br(x, y), z), br(br(y, z), x)),
                        br(br(z, x), y)))
        for x, y, z in itertools.combinations(basis, 3)
    )
    grading = True
    for gi, gj in itertools.product(range(-2, 3), repeat=2):
        for i in so32.GRADE_INDICES[gi]:
            for j in so32.GRADE_INDICES[gj]:
                b = br(basis[i], basis[j])
                if gi + gj < -2 or gi + gj > 2:
                    grading = grading and not any(b)
                else:
                    grading = grading and grades(b) <= {gi + gj}
    dims = tuple(GRADE_DIMS[g] for g in (-2, -1, 0, 1, 2)) == (1, 2, 4, 2, 1)
    _report(1, "Lie algebra integrity (Jacobi, grading, eigenspace dims)",
            jacobi and grading and dims)


def test_criterion_02_table1_crosscheck():
    cells = so32.table1_crosscheck()
    ok = len(cells) == 110
    deltas = [c for c in cells if not c.match]
    # every delta must be explained by a single scalar factor on one cell
    ok = ok and all(c.scalar_factor is not None for c in deltas)
    _report(2, f"table crosscheck (110 cells, {len(deltas)} explained deltas, "
               "0 unexplained)", ok and len(deltas) == 2)


def test_criterion_03_isotropy():
    iso = isotropy_algebra(BASE_POINT)
    expected = Subspace(
        10, [[1 if i == j else 0 for i in range(10)] for j in (5, 6, 7, 8, 9)]
    )
    _report(3, "isotropy algebra of the base point (dim 5, stated span)",
            iso.dim == 5 and iso == expected)


def test_criterion_04_model_invariants():
    levi, cubic = model_levi_cubic()
    _report(4, "bracket-level Levi and cubic values (-1/2, -i/2)",
            levi == GQ(Fraction(-1, 2)) and cubic == GQ(0, Fraction(-1, 2)))


def test_criterion_05_prolongation():
    steps = [getattr(prolong, f"prolong_step{k}")() for k in range(4)]
    ok = [s.dim for s in steps] == [2, 2, 1, 0]
    # degree-1 generators, coefficient for coefficient
    s1 = steps[1]
    g1, g2 = s1.generators
    z1 = endo_complex_matrix(s1.carrier, g1)
    z2 = endo_complex_matrix(s1.carrier, g2)
    ok = ok and z1[1, 0] == GQ(1) and z1[2, 0] == GQ(1)
    ok = ok and z1[3, 1] == GQ(0, Fraction(-1, 2))
    ok = ok and z1[5, 1] == GQ(0, Fraction(1, 2))
    ok = ok and all(z1[r, 3].is_zero() for r in range(7))
    ok = ok and z2[1, 0] == I and z2[2, 0] == -I
    ok = ok and z2[3, 1] == GQ(Fraction(1, 2)) and z2[5, 1] == GQ(Fraction(1, 2))
    # degree-2 generator and its adjoint realization
    s2 = steps[2]
    (g,) = s2.generators
    z = endo_complex_matrix(s2.carrier, g)
    ok = ok and z[5, 0] == GQ(1) and z[6, 0] == GQ(1)
    ok = ok and z[7, 1] == I and z[8, 2] == -I
    ok = ok and g == s2.carrier.ad_action(real_unit("E^2"))
    # every generator is the projected adjoint action of its witness
    for s in steps:
        for gen, w in zip(s.generators, s.witnesses):
            ok = ok and gen == s.carrier.ad_action(w)
    _report(5, "prolongation dims (2,2,1,0) and stated generators", ok)


def test_criterion_06_kostant():
    ok = True
    for k in range(0, 5):
        for ell in (0, 1):
            ok = ok and not any((
                cochains.coboundary_matrix(ell + 1, k)
                @ cochains.coboundary_matrix(ell, k)
            ).rows)
        for ell in (2, 3):
            ok = ok and not any((
                cochains.codifferential_matrix(ell - 1, k)
                @ cochains.codifferential_matrix(ell, k)
            ).rows)
    for k in range(1, 5):
        exact, harm, coex = cochains.kostant_pieces(2, k)
        n = cochain_dim(2, k)
        ok = ok and exact.dim + harm.dim + coex.dim == n
        ok = ok and span_sum(exact, harm, coex).dim == n
        ok = ok and intersect(exact, harm).dim == 0
        ok = ok and intersect(exact, coex).dim == 0
        ok = ok and intersect(harm, coex).dim == 0
    for i in (3, 4, 5, 6):
        x = unit_vec(10, i)
        for k in range(0, 5):
            for ell in range(0, 4):
                for p in range(cochain_dim(ell, k)):
                    c = Cochain(
                        ell, k,
                        [GQ(1 if q == p else 0)
                         for q in range(cochain_dim(ell, k))],
                    )
                    if ell < 3:
                        ok = ok and (
                            cochains.coboundary(act_on_cochain(x, c)).coords
                            == act_on_cochain(x, cochains.coboundary(c)).coords
                        )
                    if ell > 0:
                        ok = ok and (
                            _codifferential(act_on_cochain(x, c)).coords
                            == act_on_cochain(x, _codifferential(c)).coords
                        )
    _report(6, "Kostant machinery (complexes, direct sums, equivariance)", ok)


def test_criterion_07_normalization():
    ok = True
    for k in (1, 2, 3):
        gi = prolong.gauge_image(k)
        ns = prolong.normalization_space(k)
        n = cochain_dim(2, k)
        ok = ok and intersect(gi, ns).dim == 0
        ok = ok and gi.dim + ns.dim == n and span_sum(gi, ns).dim == n
    # ad-invariance under the stated actions
    actors = {1: (5, 6), 2: (5, 6, 7, 8), 3: (5, 6, 7, 8, 9)}
    for k, idxs in actors.items():
        ns = prolong.normalization_space(k)
        for i in idxs:
            k2 = k + GRADES[i]
            for v in ns.basis_vectors():
                img = act_on_cochain(unit_vec(10, i), Cochain(2, k, v))
                if cochain_dim(2, k2) == 0:
                    ok = ok and not any(img.coords)
                elif k2 in (1, 2, 3):
                    ok = ok and prolong.normalization_space(k2).contains(
                        img.coords
                    )
    # 100 random round trips per degree
    rng = random.Random(20240)
    for k in (1, 2, 3):
        carrier = Carrier(prolong.STEP_CARRIERS[k])
        n = cochain_dim(2, k)
        for _ in range(100):
            c = Cochain(
                2, k,
                [GQ(rng.randrange(-9, 10), rng.randrange(-9, 10))
                 for _ in range(n)],
            )
            b, res = prolong.normalize_ctorsion(c)
            back = cochains.coboundary(
                prolong.cochain_of_endo(carrier, b, k)
            ) + res
            ok = ok and back.coords == c.coords
            ok = ok and prolong.normalization_space(k).contains(res.coords)
    _report(7, "normalization spaces (complementarity, invariance, "
               "300 exact round trips)", ok)


def test_criterion_08_tube_geometry():
    l12, l13, l23, r = tube.cone_fields()
    w = tube.Field(
        [tube.Poly.var(3), tube.Poly.const(I), tube.Poly(),
         tube.Poly.var(0), tube.Poly(), tube.Poly.const(2)]
    )
    ok = len(SAMPLE_POINTS) >= 4
    for p in SAMPLE_POINTS:
        ok = ok and tube.levi_hermitian_rank(p) == 1
        ok = ok and rank(tube.levi_real_gram(p)) == 2
        ok = ok and tube.rib_span_at(p) == tube.levi_kernel_at(p)
        ok = ok and tube.freeman_ranks_at(p) == (2, 1, 0)
        cubic = tube.cubic_form_at(p, r, l12.conj(), l12.conj())
        ok = ok and not cubic.is_zero()
        # extension independence at each point
        v = l12 + l12.conj()
        base = tube.levi_form_at(p, v, v)
        pert = v + w.scale(tube.rho()) + w.conj().scale(tube.rho())
        ok = ok and tube.levi_form_at(p, pert, v) == base
        ok = ok and tube.cubic_form_at(
            p, r, l12.conj() + w.scale(tube.rho()), l12.conj()
        ) == cubic
    _report(8, "tube geometry at sample points (rank, rib, cubic, "
               "rank sequence, extension independence)", ok)


def test_criterion_09_embedding_identities():
    ok = all(quadric.embedding_identity_check())
    for p in SAMPLE_POINTS:
        f = quadric.embed_f(p.z)
        bil, herm, third = quadric.quadric_eval(f)
        ok = ok and bil.is_zero() and herm.is_zero()
        ok = ok and third.im == 0 and third.re_sign() > 0
    _report(9, "embedding identities and quadric membership at cone points", ok)


def test_criterion_10_structure_equations():
    eqs = structeq.verify_structure_equations()
    ok = len(eqs) == 10 and all(residue == "0" for _, residue in eqs)
    dd = structeq.d_squared_report()
    ok = ok and len(dd) == 10 and all(vanishes for _, vanishes in dd)
    ok = ok and structeq.frame_conditions_vanish("T^-1(10)_-1(10)|0(10)")
    ok = ok and structeq.frame_conditions_vanish("T^-1(01)_-1(01)|0(01)")
    _report(10, "flat structure equations, d^2 = 0, catalog vanishing pair", ok)


def test_criterion_11_determinism(tmp_path):
    suite = [
        ["verify", "jacobi"],
        ["verify", "table1"],
        ["verify", "structeq"],
        ["cohomology", "--ell", "2", "--k", "2"],
        ["hodge", "--ell", "2", "--k", "3"],
        ["prolong", "--step", "all"],
        ["model", "identities"],
        ["model", "freeman", "--z", "3,4,5,0,0,0"],
        ["constraints"],
    ]
    blobs = []
    for attempt in range(2):
        chunks = []
        for i, argv in enumerate(suite):
            path = tmp_path / f"{attempt}-{i}.json"
            code, _ = run(["--json", str(path)] + argv)
            assert code == 0, argv
            chunks.append(path.read_bytes())
        blobs.append(b"".join(chunks))
    _report(11, "byte-identical JSON across two consecutive full runs",
            blobs[0] == blobs[1])
