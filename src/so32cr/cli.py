"""Command-line front end: verification suites and exact computations.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error.
``--json PATH`` additionally writes the report (byte-identical across runs
with the same arguments).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .scalars import GQ, rat_from_str
from .linalg import Subspace, rank
from . import so32
from .so32 import Alg
from .report import Report, ctorsion_from_json, ctorsion_to_json
from . import cochains, coframe, prolong, tube
from .carriers import Carrier, endo_complex_matrix, gl_filtered


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def run_verify_table1() -> Report:
    rep = Report("verify table1")
    cells = so32.table1_crosscheck()
    rep.add("cell count", 110, len(cells), "fixture layout")
    for c in cells:
        name = f"table1[{c.row}, {c.col}]"
        if c.match:
            rep.add(
                name,
                so32.format_combination(c.commutator_value),
                so32.format_combination(c.table_value),
                "matrix commutator oracle",
            )
        else:
            note = (
                f"transcription delta, scalar factor {c.scalar_factor.to_str()}"
                if c.scalar_factor is not None
                else "unexplained delta"
            )
            rep.add(
                name + f" ({note})",
                so32.format_combination(c.commutator_value),
                so32.format_combination(c.table_value),
                "matrix commutator oracle",
                ok=c.explained,
            )
    return rep


def run_verify_jacobi() -> Report:
    rep = Report("verify jacobi")
    basis = [Alg.basis(i) for i in range(so32.DIM)]
    bad = 0
    total = 0
    for x, y, z in itertools.combinations(basis, 3):
        s = (
            x.bracket(y).bracket(z)
            + y.bracket(z).bracket(x)
            + z.bracket(x).bracket(y)
        )
        total += 1
        if not s.is_zero():
            bad += 1
    rep.add("Jacobi triples checked", 120, total, "commutator arithmetic")
    rep.add("Jacobi failures", 0, bad, "commutator arithmetic")
    grading_ok = True
    pairs = 0
    for gi, gj in itertools.product(so32.GRADE_INDICES, repeat=2):
        pairs += 1
        for i in so32.GRADE_INDICES[gi]:
            for j in so32.GRADE_INDICES[gj]:
                b = Alg.basis(i).bracket(Alg.basis(j))
                if gi + gj not in so32.GRADE_INDICES:
                    grading_ok = grading_ok and b.is_zero()
                else:
                    grading_ok = grading_ok and set(b.grade_decompose()) <= {gi + gj}
    rep.add("grade pairs checked", 25, pairs, "adjoint grading")
    rep.add("bracket respects grading", True, grading_ok, "adjoint grading")
    dims = tuple(so32.GRADE_DIMS.values())
    rep.add("grading eigenspace dims", (1, 2, 4, 2, 1), dims, "grading element spectrum")
    return rep


def run_verify_structeq() -> Report:
    rep = Report("verify structeq")
    for r in coframe.verify_structure_equations():
        rep.add(
            f"structure equation {r['equation']}",
            "0",
            r["residue"],
            "flat Maurer-Cartan substitution",
            ok=r["vanishes"],
        )
    for r in coframe.d_squared_report():
        rep.add(
            f"d^2 on {r['label']}",
            True,
            r["vanishes"],
            "exterior algebra (independent of the algebra-side Jacobi check)",
        )
    rep.add(
        "catalog contains T^-1(10)_-1(10)|0(10) = 0",
        True,
        coframe.catalog_contains_vanishing("T^-1(10)_-1(10)|0(10)"),
        "degree-0 frame condition translated to structure functions",
    )
    rep.add(
        "catalog contains conjugate partner T^-1(01)_-1(01)|0(01) = 0",
        True,
        coframe.catalog_contains_vanishing("T^-1(01)_-1(01)|0(01)"),
        "conjugation symmetry of the catalog (one printed variant differs "
        "in this single index; localized transcription delta)",
    )
    return rep


# ---------------------------------------------------------------------------
# cochain commands
# ---------------------------------------------------------------------------

def run_cohomology(ell: int, k: int) -> Report:
    rep = Report(f"cohomology --ell {ell} --k {k}")
    dim = cochains.cohomology_dim(ell, k)
    harm = cochains.kostant_pieces(ell, k)[1].dim
    rep.add(f"dim H^{ell}_{k}", dim, dim, "kernel/image rank arithmetic")
    rep.add(
        "agrees with harmonic dimension",
        dim,
        harm,
        "two independent computations (quotient vs harmonic subspace)",
    )
    return rep


def run_hodge(ell: int, k: int) -> Report:
    rep = Report(f"hodge --ell {ell} --k {k}")
    n = cochains.cochain_dim(ell, k)
    exact, harm, coex = cochains.kostant_pieces(ell, k)
    rep.add("dim slice", n, n, "monomial enumeration")
    rep.add(
        "dims (exact, harmonic, coexact)",
        f"sum {n}",
        f"({exact.dim}, {harm.dim}, {coex.dim}) sum {exact.dim + harm.dim + coex.dim}",
        "Kostant direct-sum decomposition",
        ok=exact.dim + harm.dim + coex.dim == n,
    )
    rep.add(
        "pairwise intersections trivial",
        True,
        exact.intersect(harm).dim == 0
        and exact.intersect(coex).dim == 0
        and harm.intersect(coex).dim == 0,
        "Kostant direct-sum decomposition",
    )
    resum_ok = True
    for p in range(n):
        c = cochains.Cochain(ell, k, [GQ(1 if q == p else 0) for q in range(n)])
        t = cochains.hodge_decompose(c)
        resum_ok = resum_ok and t.resum().coords == c.coords
    rep.add("decompose/resum is the identity", True, resum_ok, "partition of identity")
    return rep


# ---------------------------------------------------------------------------
# prolongation commands
# ---------------------------------------------------------------------------

_EXPECTED_DIMS = (2, 2, 1, 0)


def _prolong_report(rep: Report, step: int):
    s = (prolong.prolong_step0, prolong.prolong_step1,
         prolong.prolong_step2, prolong.prolong_step3)[step]()
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
        l1 = prolong.l1_subspace()
        rep.add("degree-1 gauge space dimension", 6, l1.dim,
                "parameter count of the gauge algebra")
        rep.add("degree-1 gauge space note", l1.note, l1.note,
                "solver summary", ok=True)
        ip = prolong.invariant_inner_product()
        rep.add("inner product choice", ip.note, ip.note,
                "recorded normalization data", ok=True)
        g1, g2 = s.generators
        z1 = endo_complex_matrix(s.carrier, g1)
        z2 = endo_complex_matrix(s.carrier, g2)
        rep.add(
            "step 1 first generator on grade -2",
            "(1/1)*e^-1(10) + (1/1)*e^-1(01)",
            so32.format_combination(s.carrier.embed_coords(z1.col(0))),
            "closed gauge directions at degree 1",
        )
        rep.add(
            "step 1 second generator on grade -2",
            "(0/1+1/1*i)*e^-1(10) + (0/1-1/1*i)*e^-1(01)",
            so32.format_combination(s.carrier.embed_coords(z2.col(0))),
            "closed gauge directions at degree 1",
        )
    if step == 2:
        (g,) = s.generators
        z = endo_complex_matrix(s.carrier, g)
        rep.add(
            "step 2 generator on grade -2",
            "(1/1)*E^0(10) + (1/1)*E^0(01)",
            so32.format_combination(s.carrier.embed_coords(z.col(0))),
            "closed gauge directions at degree 2",
        )
        rep.add(
            "step 2 generator on e^-1(10)",
            "(0/1+1/1*i)*E^1(10)",
            so32.format_combination(s.carrier.embed_coords(z.col(1))),
            "closed gauge directions at degree 2",
        )
    if step == 3:
        rep.add(
            "displayed component equations admit only zero",
            0,
            prolong.step3_component_equations().dim,
            "componentwise linear solve",
        )
        rep.add(
            "degree-5 filtered endomorphisms vanish",
            0,
            gl_filtered(Carrier("m+h"), 5).dim,
            "filtration entry patterns",
        )
    for note in s.notes:
        rep.add(f"step {step} note", note, note, "solver summary")


def run_prolong(step: str) -> Report:
    rep = Report(f"prolong --step {step}")
    if step == "all":
        for i in range(4):
            _prolong_report(rep, i)
    else:
        _prolong_report(rep, int(step))
    return rep


def run_normalize(k: int, path: str) -> Report:
    rep = Report(f"normalize --k {k} --input {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("input JSON is nested too deeply") from None
    c = ctorsion_from_json(data)
    if c.k != k:
        raise ValueError(f"input degree {c.k} does not match --k {k}")
    b, residual = prolong.normalize_ctorsion(c)
    carrier = Carrier(prolong.STEP_CARRIERS[k])
    back = cochains.coboundary(prolong.cochain_of_endo(carrier, b, k)) + residual
    rep.add(
        "gauge + residual reproduces the input",
        True,
        back.coords == c.coords,
        "exact round trip",
    )
    rep.add(
        "residual lies in the normalization space",
        True,
        prolong.normalization_space(k).contains(residual.coords),
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
        ip = prolong.invariant_inner_product()
        rep.add("inner product choice", ip.note, ip.note,
                "recorded normalization data", ok=True)
    return rep


# ---------------------------------------------------------------------------
# model commands
# ---------------------------------------------------------------------------

def _parse_point(csv: str, chart: str) -> tube.ProjectivePoint:
    parts = [rat_from_str(p) for p in csv.split(",")]
    if len(parts) != 10:
        raise ValueError("--point needs 10 rationals re0,im0,...,re4,im4")
    coords = [GQ(parts[2 * i], parts[2 * i + 1]) for i in range(5)]
    return tube.ProjectivePoint(coords, chart)


def _parse_z(csv: str):
    parts = [rat_from_str(p) for p in csv.split(",")]
    if len(parts) != 6:
        raise ValueError("--z needs 6 rationals x1,x2,x3,y1,y2,y3")
    return [GQ(parts[i], parts[i + 3]) for i in range(3)]


def run_model_quadric(csv: str, chart: str) -> Report:
    rep = Report(f"model quadric --point {csv} --chart {chart}")
    t = _parse_point(csv, chart)
    bil, herm, third = tube.quadric_eval(t)
    rep.add("symmetric form", "0/1", bil.to_str(), "exact substitution")
    rep.add("hermitian form", "0/1", herm.to_str(), "exact substitution")
    if third is not None:
        rep.add(
            "orbit inequality value positive",
            True,
            third.im == 0 and third.re > 0,
            "exact substitution (diag chart only)",
        )
        rep.add("orbit value", third.to_str(), third.to_str(), "exact substitution")
    return rep


def run_model_embed(csv: str) -> Report:
    rep = Report(f"model embed --z {csv}")
    z = _parse_z(csv)
    f = tube.embed_f(z)
    bil, herm, third = tube.quadric_eval(f)
    rep.add(
        "image point",
        "(reported)",
        "[" + " : ".join(c.to_str() for c in f.homogeneous) + "]",
        "embedding formula",
        ok=True,
    )
    rep.add("symmetric form on image", "0/1", bil.to_str(), "polynomial identity")
    rep.add(
        "hermitian form equals twice the defining function",
        (GQ(2) * tube.rho().eval(z)).to_str(),
        herm.to_str(),
        "polynomial identity",
    )
    rep.add("orbit value", third.to_str(), third.to_str(), "exact substitution")
    return rep


def run_model_levi(csv: str) -> Report:
    rep = Report(f"model levi --z {csv}")
    p = tube.ConePoint(_parse_z(csv))
    rep.add("hermitian Levi rank", 1, tube.levi_hermitian_rank(p),
            "exact rank of the holomorphic-frame Gram")
    rep.add("real Levi rank", 2, rank(tube.levi_real_gram(p)),
            "exact rank of the real-frame Gram (twice the hermitian rank)")
    rep.add(
        "rib equals the Levi kernel",
        True,
        tube.rib_span_at(p) == tube.levi_kernel_at(p),
        "canonical subspace comparison",
    )
    return rep


def run_model_cubic(csv: str) -> Report:
    rep = Report(f"model cubic --z {csv}")
    p = tube.ConePoint(_parse_z(csv))
    l12, l13, l23, r = tube.cone_fields()
    value = None
    for L in (l12, l13, l23):
        v = tube.cubic_form_at(p, r, L.conj(), L.conj())
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
            tube.cubic_form_at(p, r, base.conj(), base.conj().scale(2))
            == value * GQ(2),
            "bilinearity of brackets",
        )
        pert = base.conj() + tube.Field(
            [tube.Poly.var(3), tube.Poly(), tube.Poly(),
             tube.Poly.var(0), tube.Poly(), tube.Poly.const(1)]
        ).scale(tube.rho())
        rep.add(
            "independent of the chosen extension",
            True,
            tube.cubic_form_at(p, r, pert, base.conj()) == value,
            "perturbation by a multiple of the defining function",
        )
    return rep


def run_model_freeman(csv: str) -> Report:
    rep = Report(f"model freeman --z {csv}")
    p = tube.ConePoint(_parse_z(csv))
    rep.add("holomorphic rank sequence", (2, 1, 0), tube.freeman_ranks_at(p),
            "exact pointwise linear solves")
    return rep


def run_model_identities() -> Report:
    rep = Report("model identities")
    res = tube.embedding_identity_check()
    rep.add("symmetric form of the embedding vanishes identically",
            True, res["symmetric_form_vanishes"], "symbolic expansion")
    rep.add("hermitian form of the embedding is twice the defining function",
            True, res["hermitian_form_is_twice_rho"], "symbolic expansion")
    f = tube.embed_f([3, 4, 5])
    bil, herm, third = tube.quadric_eval(f)
    rep.add("sample point lands on the quadric", "0/1 0/1",
            f"{bil.to_str()} {herm.to_str()}", "substitution at a cone point")
    rep.add("sample point orbit value", "5/2", third.to_str(),
            "substitution at a cone point")
    return rep


def run_constraints() -> Report:
    rep = Report("constraints")
    cat = coframe.constraint_catalog()
    rep.add("catalog size", len(cat), len(cat), "relation enumeration")
    counts = {}
    for r in cat:
        key = r.source.split(":")[0]
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        rep.add(f"relations from {key}", counts[key], counts[key],
                "relation enumeration")
    rep.add(
        "contains T^-1(10)_-1(10)|0(10) = 0",
        True,
        coframe.catalog_contains_vanishing("T^-1(10)_-1(10)|0(10)"),
        "degree-0 frame condition",
    )
    rep.add(
        "contains T^-1(01)_-1(01)|0(01) = 0",
        True,
        coframe.catalog_contains_vanishing("T^-1(01)_-1(01)|0(01)"),
        "conjugate of the degree-0 frame condition",
    )
    flat = coframe.FullTorsion.flat()
    flat_ok = all(r.evaluate(flat).is_zero() for r in cat)
    rep.add("flat model satisfies every relation", True, flat_ok,
            "exact evaluation on the bracket torsion")
    for r in cat:
        rep.add(f"relation [{r.source}]", r.render(), r.render(),
                "constraint catalog", ok=True)
    return rep


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The command line; each command's ``run`` default maps the parsed
    arguments to its report."""
    ap = argparse.ArgumentParser(
        prog="so32cr",
        description="exact verification engine for the so(3,2) prolongation "
        "tower and the light-cone tube",
    )
    ap.add_argument("--json", metavar="PATH", help="write the report as JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=["table1", "jacobi", "structeq"])
    v.set_defaults(run=lambda a: {
        "table1": run_verify_table1,
        "jacobi": run_verify_jacobi,
        "structeq": run_verify_structeq,
    }[a.suite]())

    c = sub.add_parser("cohomology", help="cohomology dimension of a slice")
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(run=lambda a: run_cohomology(a.ell, a.k))

    h = sub.add_parser("hodge", help="Hodge decomposition checks of a slice")
    h.add_argument("--ell", type=int, required=True)
    h.add_argument("--k", type=int, required=True)
    h.set_defaults(run=lambda a: run_hodge(a.ell, a.k))

    p = sub.add_parser("prolong", help="prolongation step solver")
    p.add_argument("--step", choices=["0", "1", "2", "3", "all"], required=True)
    p.set_defaults(run=lambda a: run_prolong(a.step))

    n = sub.add_parser("normalize", help="normalize a c-torsion table")
    n.add_argument("--k", type=int, required=True, choices=[1, 2, 3])
    n.add_argument("--input", required=True)
    n.set_defaults(run=lambda a: run_normalize(a.k, a.input))

    m = sub.add_parser("model", help="flat-model computations")
    msub = m.add_subparsers(dest="model_cmd", required=True)
    q = msub.add_parser("quadric")
    q.add_argument("--point", required=True)
    q.add_argument("--chart", choices=["diag", "antidiag"], default="diag")
    q.set_defaults(run=lambda a: run_model_quadric(a.point, a.chart))
    for name, fn in (("embed", run_model_embed), ("levi", run_model_levi),
                     ("cubic", run_model_cubic), ("freeman", run_model_freeman)):
        mm = msub.add_parser(name)
        mm.add_argument("--z", required=True)
        mm.set_defaults(run=lambda a, fn=fn: fn(a.z))
    msub.add_parser("identities").set_defaults(
        run=lambda a: run_model_identities())

    sub.add_parser(
        "constraints", help="structure-function constraint catalog"
    ).set_defaults(run=lambda a: run_constraints())
    return ap


def run(argv) -> tuple[int, Report | None]:
    ap = build_parser()
    words = []
    for a in argv:  # "--z -3,4,..." must not read the signed value as a flag
        if words and words[-1] in ("--z", "--point"):
            words[-1] += "=" + a
        else:
            words.append(a)
    try:
        args = ap.parse_args(words)
        # argparse drops a bare "--" from "--z=--", leaving [] for the value
        for name in ("z", "point"):
            if not isinstance(getattr(args, name, ""), str):
                ap.error(f"--{name} needs a value")
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), None
    try:
        rep = args.run(args)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(rep.to_json())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    try:
        print(rep.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return (0 if rep.status == "pass" else 1), rep


def main() -> None:
    code, _ = run(sys.argv[1:])
    raise SystemExit(code)


if __name__ == "__main__":
    main()
