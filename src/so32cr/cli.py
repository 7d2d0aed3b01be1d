"""Command-line front end: verification suites and exact computations.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error.
``--json PATH`` additionally writes the report (byte-identical across runs
with the same arguments).

Every command is one row of ``COMMANDS``.  Its report is named by the row's
words followed by each declared argument with its parsed value, and its
runner imports the engine modules it uses when it runs, so a command loads
only what it computes with.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Callable, NamedTuple

from .scalars import GQ, rat_from_str
from .report import Report


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def run_verify_table1(rep: Report):
    """110 fixture cells vs matrix commutators"""
    from . import so32
    cells = so32.table1_crosscheck()
    rep.add("cell count", 110, len(cells), "fixture layout")
    for c in cells:
        name = f"table1[{c.row}, {c.col}]"
        if not c.match:
            name += (
                f" (transcription delta, scalar factor {c.scalar_factor.to_str()})"
                if c.scalar_factor is not None
                else " (unexplained delta)"
            )
        rep.add(
            name,
            so32.format_combination(c.commutator_value),
            so32.format_combination(c.table_value),
            "matrix commutator oracle",
            ok=None if c.match else c.explained,
        )


def run_verify_jacobi(rep: Report):
    """bracket integrity and grading"""
    from . import so32
    from .linalg import unit_vec, vec_add, vec_is_zero
    br = so32.bracket_coords
    basis = [unit_vec(so32.DIM, i) for i in range(so32.DIM)]
    bad = 0
    total = 0
    for x, y, z in itertools.combinations(basis, 3):
        s = vec_add(vec_add(br(br(x, y), z), br(br(y, z), x)), br(br(z, x), y))
        total += 1
        if not vec_is_zero(s):
            bad += 1
    rep.add("Jacobi triples checked", 120, total, "commutator arithmetic")
    rep.add("Jacobi failures", 0, bad, "commutator arithmetic")
    grading_ok = True
    pairs = 0
    for gi, gj in itertools.product(so32.GRADE_INDICES, repeat=2):
        pairs += 1
        for i in so32.GRADE_INDICES[gi]:
            for j in so32.GRADE_INDICES[gj]:
                # outside -2..2 this asks for the zero bracket
                b = br(basis[i], basis[j])
                grading_ok = grading_ok and so32.grades(b) <= {gi + gj}
    rep.add("grade pairs checked", 25, pairs, "adjoint grading")
    rep.add("bracket respects grading", True, grading_ok, "adjoint grading")
    dims = tuple(so32.GRADE_DIMS.values())
    rep.add("grading eigenspace dims", (1, 2, 4, 2, 1), dims, "grading element spectrum")


def run_verify_structeq(rep: Report):
    """flat structure equations and d^2 = 0"""
    from . import coframe
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


# ---------------------------------------------------------------------------
# cochain commands
# ---------------------------------------------------------------------------

def run_cohomology(rep: Report, ell: int, k: int):
    """cohomology dimension of a slice"""
    from . import cochains
    dim = cochains.cohomology_dim(ell, k)
    harm = cochains.kostant_pieces(ell, k)[1].dim
    rep.add(f"dim H^{ell}_{k}", dim, dim, "kernel/image rank arithmetic")
    rep.add(
        "agrees with harmonic dimension",
        dim,
        harm,
        "two independent computations (quotient vs harmonic subspace)",
    )


def run_hodge(rep: Report, ell: int, k: int):
    """Hodge decomposition checks of a slice"""
    from . import cochains
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


# ---------------------------------------------------------------------------
# prolongation commands
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


def run_prolong(rep: Report, which: str):
    """prolongation step solver"""
    from . import prolong, so32
    from .carriers import Carrier, endo_complex_matrix, gl_filtered
    from .linalg import Subspace
    for step in range(4) if which == "all" else (int(which),):
        s = getattr(prolong, f"prolong_step{step}")()
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
                    prolong.l1_subspace().dim,
                    "parameter count of the gauge algebra")
            rep.add("degree-1 gauge space note", prolong.L1_NOTE,
                    prolong.L1_NOTE, "solver summary", ok=True)
            note = prolong.INNER_PRODUCT_NOTE
            rep.add("inner product choice", note, note,
                    "recorded normalization data", ok=True)
        for row_step, name, g, col, expected in _GENERATOR_IMAGES:
            if row_step == step:
                z = endo_complex_matrix(s.carrier, s.generators[g])
                rep.add(
                    f"step {step} {name}",
                    expected,
                    so32.format_combination(s.carrier.embed_coords(z.col(col))),
                    f"closed gauge directions at degree {step}",
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


def run_normalize(rep: Report, k: int, path: str):
    """normalize a c-torsion table"""
    from . import cochains, prolong
    from .carriers import Carrier
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("input JSON is nested too deeply") from None
    c = cochains.ctorsion_from_json(data)
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
        json.dumps(cochains.ctorsion_to_json(residual), sort_keys=True),
        "normalization output",
        ok=True,
    )
    if k == 1:
        note = prolong.INNER_PRODUCT_NOTE
        rep.add("inner product choice", note, note,
                "recorded normalization data", ok=True)


# ---------------------------------------------------------------------------
# model commands
# ---------------------------------------------------------------------------

def _rationals(csv: str, flag: str, n: int, layout: str) -> list:
    """The n comma-separated rationals of an option value, in ``layout``."""
    parts = [rat_from_str(p) for p in csv.split(",")]
    if len(parts) != n:
        raise ValueError(f"{flag} needs {n} rationals {layout}")
    return parts


def _cone_z(csv: str) -> list:
    x = _rationals(csv, "--z", 6, "x1,x2,x3,y1,y2,y3")
    return [GQ(re, im) for re, im in zip(x[:3], x[3:])]


def run_model_quadric(rep: Report, csv: str, chart: str):
    """ambient forms and orbit value at a projective point"""
    from . import tube
    x = _rationals(csv, "--point", 10, "re0,im0,...,re4,im4")
    t = tube.ProjectivePoint([GQ(re, im) for re, im in zip(x[::2], x[1::2])],
                             chart)
    bil, herm, third = tube.quadric_eval(t)
    rep.add("symmetric form", "0/1", bil.to_str(), "exact substitution")
    rep.add("hermitian form", "0/1", herm.to_str(), "exact substitution")
    rep.add(
        "orbit inequality value positive",
        True,
        third.re > 0,
        "exact substitution (diag chart only)",
    )
    rep.add("orbit value", third.to_str(), third.to_str(), "exact substitution")


def run_model_embed(rep: Report, csv: str):
    """the embedding of a tube point into the quadric"""
    from . import tube
    z = _cone_z(csv)
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
        (GQ(2) * tube.rho().eval(tube.Powers(z))).to_str(),
        herm.to_str(),
        "polynomial identity",
    )
    rep.add("orbit value", third.to_str(), third.to_str(), "exact substitution")


def run_model_levi(rep: Report, csv: str):
    """Levi ranks and kernel at a cone point"""
    from . import tube
    from .linalg import rank
    p = tube.ConePoint(_cone_z(csv))
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


def run_model_cubic(rep: Report, csv: str):
    """the cubic form at a cone point"""
    from . import tube
    p = tube.ConePoint(_cone_z(csv))
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


def run_model_freeman(rep: Report, csv: str):
    """Freeman rank sequence at a cone point"""
    from . import tube
    p = tube.ConePoint(_cone_z(csv))
    rep.add("holomorphic rank sequence", (2, 1, 0), tube.freeman_ranks_at(p),
            "exact pointwise linear solves")


def run_model_identities(rep: Report):
    """the polynomial identities of the embedding"""
    from . import tube
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


def run_constraints(rep: Report):
    """structure-function constraint catalog"""
    from . import coframe
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
    flat = coframe.flat_torsion()
    flat_ok = all(r.evaluate(flat).is_zero() for r in cat)
    rep.add("flat model satisfies every relation", True, flat_ok,
            "exact evaluation on the bracket torsion")
    for r in cat:
        rep.add(f"relation [{r.source}]", r.render(), r.render(),
                "constraint catalog", ok=True)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    words: tuple   # argv words naming the command
    args: tuple    # (flag, argparse keywords); required unless it has a default
    fill: Callable  # fill(report, *parsed values in the order of args)


_ELL_K = (("--ell", {"type": int}), ("--k", {"type": int}))
_Z = (("--z", {}),)

COMMANDS = (
    Command(("verify", "table1"), (), run_verify_table1),
    Command(("verify", "jacobi"), (), run_verify_jacobi),
    Command(("verify", "structeq"), (), run_verify_structeq),
    Command(("cohomology",), _ELL_K, run_cohomology),
    Command(("hodge",), _ELL_K, run_hodge),
    Command(("prolong",),
            (("--step", {"choices": ["0", "1", "2", "3", "all"]}),),
            run_prolong),
    Command(("normalize",),
            (("--k", {"type": int, "choices": [1, 2, 3]}), ("--input", {})),
            run_normalize),
    Command(("model", "quadric"),
            (("--point", {}),
             ("--chart", {"choices": ["diag", "antidiag"], "default": "diag"})),
            run_model_quadric),
    Command(("model", "embed"), _Z, run_model_embed),
    Command(("model", "levi"), _Z, run_model_levi),
    Command(("model", "cubic"), _Z, run_model_cubic),
    Command(("model", "freeman"), _Z, run_model_freeman),
    Command(("model", "identities"), (), run_model_identities),
    Command(("constraints",), (), run_constraints),
)

_GROUP_HELP = {"verify": "run a verification suite",
               "model": "flat-model computations"}

# options whose value is a signed rational list, which argparse would read
# as a flag when it starts with "-"
_SIGNED_LISTS = ("--z", "--point")


def build_parser() -> argparse.ArgumentParser:
    """The command line, one subcommand per row of ``COMMANDS``; each leaf
    parser's ``command`` default is its row."""
    ap = argparse.ArgumentParser(
        prog="so32cr",
        description="exact verification engine for the so(3,2) prolongation "
        "tower and the light-cone tube",
    )
    ap.add_argument("--json", metavar="PATH", help="write the report as JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)
    groups = {}
    for cmd in COMMANDS:
        parent = sub
        if len(cmd.words) == 2:
            group = cmd.words[0]
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=_GROUP_HELP[group]
                ).add_subparsers(dest="subcmd", required=True)
            parent = groups[group]
        p = parent.add_parser(cmd.words[-1], help=cmd.fill.__doc__)
        for flag, kw in cmd.args:
            p.add_argument(flag, required="default" not in kw, **kw)
        p.set_defaults(command=cmd)
    return ap


def run(argv) -> tuple[int, Report | None]:
    ap = build_parser()
    words = []
    for a in argv:  # "--z -3,4,..." must not read the signed value as a flag
        if words and words[-1] in _SIGNED_LISTS:
            words[-1] += "=" + a
        else:
            words.append(a)
    try:
        args = ap.parse_args(words)
        # argparse drops a bare "--" from "--z=--", leaving [] for the value
        for flag in _SIGNED_LISTS:
            if not isinstance(getattr(args, flag[2:], ""), str):
                ap.error(f"{flag} needs a value")
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), None
    cmd = args.command
    values = [getattr(args, flag[2:]) for flag, _ in cmd.args]
    rep = Report(" ".join([*cmd.words, *(
        f"{flag} {value}" for (flag, _), value in zip(cmd.args, values))]))
    try:
        cmd.fill(rep, *values)
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
