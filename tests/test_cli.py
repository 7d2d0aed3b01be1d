import ast
import itertools
import json
import os
import subprocess
import sys
import typing
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from so32cr import cli, cochains, prolong, quadric, report, so32, structeq
from so32cr.cli import run
from so32cr.linalg import Matrix, Subspace
from so32cr.cochains import (Cochain, cochain_dim, ctorsion_from_json,
                              ctorsion_to_json)
from so32cr.scalars import GQ, HALF_I
from so32cr.so32 import REAL_LABELS
from oracles import argparse_parse
from test_golden_reports import COMMANDS as CATALOGUE
from test_reach import EXTRA_COMMANDS

ROOT = Path(__file__).resolve().parent.parent
NORMALIZE_K2 = ROOT / "perfbench" / "inputs" / "normalize_k2.json"


def test_exit_codes(tmp_path, capsys):
    code, rep = run(["verify", "jacobi"])
    assert code == 0 and rep.status == "pass"
    code, rep = run(["prolong", "--step", "3"])
    assert code == 0
    # usage error
    code, rep = run(["verify", "nonsense"])
    assert code == 2 and rep is None
    code, rep = run(["model", "levi", "--z", "1,2"])
    assert code == 2
    # input errors at the parsing boundary: zero denominators, torsion JSON
    # without "terms", torsion JSON that is not an object
    code, rep = run(["model", "levi", "--z", "1/0,0,1,0,0,0"])
    assert code == 2 and rep is None
    zero_coef = {"k": 2, "terms": [
        {"args": ["e^-2", "e_1^-1"], "value": "e_2^-1", "coef": "1/0"}]}
    for name, body in (("no_terms.json", {"k": 2}), ("list.json", [1, 2]),
                       ("zero_coef.json", zero_coef)):
        path = tmp_path / name
        path.write_text(json.dumps(body))
        code, rep = run(["normalize", "--k", "2", "--input", str(path)])
        assert code == 2 and rep is None
    # rationals are "a/b" or "a" in ASCII digits: no exponents, decimals or
    # digit separators, so a huge exponent is refused before any arithmetic
    for z in ("1e100000", "0.5", "1_000"):
        code, rep = run(["model", "embed", "--z", f"{z},0,1,0,0,0"])
        assert code == 2 and rep is None
    # a blank inside a coefficient is refused, not deleted ("1 0/1" is not 10)
    for coef in ("1e3", "1 0/1"):
        bad_coef = {"k": 2, "terms": [
            {"args": ["e^-2", "e_1^-1"], "value": "e_2^-1", "coef": coef}]}
        path = tmp_path / "bad_coef.json"
        path.write_text(json.dumps(bad_coef))
        code, rep = run(["normalize", "--k", "2", "--input", str(path)])
        assert code == 2 and rep is None
    assert "integer string conversion" not in capsys.readouterr().err
    # an integer past the interpreter's digit limit is named as an input
    # error, not answered with advice about sys.set_int_max_str_digits
    huge = "7" * 5000
    code, rep = run(["model", "embed", "--z", f"{huge},0,1,0,0,0"])
    assert code == 2 and rep is None
    err = capsys.readouterr().err
    assert "too many digits" in err and "set_int_max_str_digits" not in err
    huge_coef = {"k": 2, "terms": [
        {"args": ["e^-2", "e_1^-1"], "value": "e_2^-1", "coef": huge}]}
    path = tmp_path / "huge_coef.json"
    path.write_text(json.dumps(huge_coef))
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None
    err = capsys.readouterr().err
    assert "too many digits" in err and "set_int_max_str_digits" not in err
    # a legal input whose result is past the digit limit (q = z1^2 in the
    # embedding, the squares in the ambient forms) cannot be printed either
    big = "7" * (2 * sys.get_int_max_str_digits() // 3)
    for argv in (["model", "embed", "--z", f"{big},0,1,0,0,0"],
                 ["model", "quadric", "--point",
                  f"{big},0,1,0,0,0,0,0,0,0"]):
        code, rep = run(argv)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert "too many digits" in err and "set_int_max_str_digits" not in err
    # a --json path that cannot be opened is an input error, not a traceback
    capsys.readouterr()
    code, rep = run(["--json", str(tmp_path / "missing" / "x.json"),
                     "verify", "jacobi"])
    assert code == 2 and rep is None
    assert capsys.readouterr().err.startswith("error: ")
    # an empty --json path is refused, not silently ignored
    for argv in (["--json=", "verify", "jacobi"],
                 ["--json", "", "verify", "jacobi"]):
        code, rep = run(argv)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == "error: --json needs a file path\n"
    # failed check: a non-member quadric point
    code, rep = run(["model", "quadric", "--point", "1,0,0,0,0,0,0,0,0,0"])
    assert code == 1 and rep.status == "fail"


def test_identity_check_fails_for_a_wrong_embedding(monkeypatch):
    # the check expands the formula that `model embed` evaluates, so a wrong
    # sign of q in the last slot must show in the symmetric-form row
    def wrong(z):
        q = quadric.cone_quadratic(z)
        return (q * -HALF_I - HALF_I, z[0], z[1], z[2], q * -HALF_I - HALF_I)

    monkeypatch.setattr(quadric, "embedding_coords", wrong)
    code, rep = run(["model", "identities"])
    assert code == 1 and rep.status == "fail"
    (row,) = [c for c in rep.checks if c.name.startswith("symmetric form of")]
    assert row.actual == "False" and not row.ok


def _mutated_table(monkeypatch, entries):
    """Replace the bracket table by a copy with C^k_ij = value for each
    (i, j, k, value) of ``entries``."""
    table = {key: dict(row) for key, row in so32.structure_constants().items()}
    for i, j, k, value in entries:
        table.setdefault((i, j), {})[k] = value
    monkeypatch.setattr(so32, "structure_constants", lambda: table)


def _row(rep, name):
    (row,) = [c for c in rep.checks if c.name == name]
    return row


def test_jacobi_check_fails_for_a_negated_pair(monkeypatch):
    # [e^-2, E^2] = -E_1^0; negating C^k_ij and C^k_ji keeps the table
    # antisymmetric and graded, so only the Jacobi sum can see it
    i, j = REAL_LABELS.index("e^-2"), REAL_LABELS.index("E^2")
    k = REAL_LABELS.index("E_1^0")
    c = so32.structure_constants()[(i, j)][k]
    _mutated_table(monkeypatch, [(i, j, k, -c), (j, i, k, c)])
    code, rep = run(["verify", "jacobi"])
    assert code == 1 and rep.status == "fail"
    assert not _row(rep, "Jacobi failures").ok
    assert _row(rep, "bracket respects grading").ok


def test_verify_jacobi_reads_only_the_structure_constants(monkeypatch):
    # the Jacobi sums and the grading are read off the table itself
    def refuse(x, y):
        raise AssertionError("verify jacobi called bracket_coords")

    monkeypatch.setattr(so32, "bracket_coords", refuse)
    code, rep = run(["verify", "jacobi"])
    assert code == 0 and rep.status == "pass"


def test_jacobi_check_fails_for_a_constant_of_the_wrong_grade(monkeypatch):
    # [e^-2, E^2] has grade 0; an e_1^-1 term in it breaks the grading
    i, j = REAL_LABELS.index("e^-2"), REAL_LABELS.index("E^2")
    _mutated_table(monkeypatch, [(i, j, REAL_LABELS.index("e_1^-1"), GQ(1))])
    code, rep = run(["verify", "jacobi"])
    assert code == 1 and rep.status == "fail"
    assert not _row(rep, "bracket respects grading").ok


def test_hodge_pairwise_check_fails_for_two_equal_pieces(monkeypatch):
    # C^2_3 splits (4, 4, 2); the exact piece in place of the harmonic one
    # keeps the dimension sum, so only the pairwise row can see it; the
    # decompositions of the resum row read the true pieces
    real = cochains.kostant_pieces
    exact, _, coex = real(2, 3)
    doubled = iter([(exact, exact, coex)])
    monkeypatch.setattr(cochains, "kostant_pieces",
                        lambda ell, k: next(doubled, None) or real(ell, k))
    code, rep = run(["hodge", "--ell", "2", "--k", "3"])
    assert code == 1
    row = _row(rep, "pairwise intersections trivial")
    assert row.actual == "False"
    assert [c for c in rep.checks if not c.ok] == [row]


def test_hodge_reports_overlapping_pieces_without_a_traceback(monkeypatch):
    # with (exact, exact, coexact) for every call, the decompositions of the
    # resum row have no Kostant map to solve with; both rows read False and
    # the command exits 1 instead of raising out of run
    exact, _, coex = cochains.kostant_pieces(2, 3)
    monkeypatch.setattr(cochains, "kostant_pieces",
                        lambda ell, k: (exact, exact, coex))
    code, rep = run(["hodge", "--ell", "2", "--k", "3"])
    assert code == 1 and rep.status == "fail"
    rows = [_row(rep, "pairwise intersections trivial"),
            _row(rep, "decompose/resum is the identity")]
    assert [row.actual for row in rows] == ["False", "False"]
    assert [c for c in rep.checks if not c.ok] == rows


def test_signed_values_parse_in_the_spaced_form():
    # "--z -3,..." is a value, not a flag: the same report as "--z=-3,..."
    for option, cmd, value in (
        ("--z", ["model", "embed"], "-3,4,5,0,0,0"),
        ("--point", ["model", "quadric"], "-1,0,0,-6,0,-8,0,-10,-1,0"),
    ):
        code, spaced = run(cmd + [option, value])
        assert code == 0
        code, glued = run(cmd + [f"{option}={value}"])
        assert code == 0
        assert spaced.checks == glued.checks


def test_a_bare_double_dash_value_is_a_usage_error():
    # "--" is no value, even after --z, which takes any other word; it is
    # an error unless the flag is given again
    for argv in (["model", "embed", "--z", "--"],
                 ["model", "embed", "--z=--"],
                 ["model", "quadric", "--point", "--", "--chart", "diag"],
                 ["prolong", "--step=--"],
                 ["--json=--", "verify", "jacobi"]):
        code, rep = run(argv)
        assert code == 2 and rep is None, argv
    code, rep = run(["model", "embed", "--z=--", "--z", "3,4,5,0,0,0"])
    assert code == 0


def test_every_check_has_source():
    for argv in (
        ["verify", "jacobi"],
        ["verify", "structeq"],
        ["cohomology", "--ell", "2", "--k", "2"],
        ["hodge", "--ell", "2", "--k", "3"],
        ["prolong", "--step", "all"],
        ["model", "identities"],
        ["constraints"],
    ):
        code, rep = run(argv)
        assert code == 0, argv
        assert rep.checks
        assert all(c.source for c in rep.checks)


def test_reports_do_not_share_their_checks():
    first, second = report.Report("a"), report.Report("b")
    first.add("row", 1, 1, "test")
    assert len(first.checks) == 1 and second.checks == []
    assert first.status == second.status == "pass"


def test_json_schema_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _ = run(["--json", str(p), "verify", "structeq"])
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert set(data) == {"command", "status", "checks"}
    for c in data["checks"]:
        assert set(c) == {"name", "expected", "actual", "pass", "source"}
        assert isinstance(c["pass"], bool)


def test_table1_report_counts():
    code, rep = run(["verify", "table1"])
    assert code == 0
    cell_checks = [c for c in rep.checks if c.name.startswith("table1[")]
    assert len(cell_checks) == 110
    deltas = [c for c in cell_checks if "delta" in c.name]
    assert len(deltas) == 2
    assert all("scalar factor" in c.name for c in deltas)


def test_normalize_round_trip(tmp_path):
    n = cochain_dim(2, 3)
    c = Cochain(2, 3, [GQ(j - 2, 1) for j in range(n)])
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(ctorsion_to_json(c)))
    # serializer round trip
    assert ctorsion_from_json(json.loads(path.read_text())).coords == c.coords
    code, rep = run(["normalize", "--k", "3", "--input", str(path)])
    assert code == 0 and rep.status == "pass"


def test_normalize_with_a_4000_digit_coefficient(tmp_path):
    # huge numerators through the integer form of the normalization maps
    huge = "9" * 3999 + "7"
    data = json.loads(NORMALIZE_K2.read_text())
    data["terms"].append({"args": ["e^-2", "e_2^-1"], "value": "e_1^-1",
                          "coef": f"-{huge}/3+1/{huge}*i"})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 0 and rep.status == "pass"
    checks = {c.name: c.ok for c in rep.checks}
    assert checks["gauge + residual reproduces the input"]
    assert checks["residual lies in the normalization space"]


def test_model_subcommands():
    for argv in (
        ["model", "quadric", "--point", "0,-1/2,3,0,4,0,5,0,0,-1/2"],
        ["model", "embed", "--z", "3,4,5,0,0,0"],
        ["model", "levi", "--z", "1,0,1,0,0,0"],
        ["model", "cubic", "--z", "3,4,5,1/2,-2,1"],
        ["model", "freeman", "--z", "5,12,13,0,1,-1/3"],
    ):
        code, rep = run(argv)
        assert code == 0, (argv, rep and rep.render_text())


def _residual(rep):
    (check,) = [c for c in rep.checks if c.name == "residual coefficients"]
    return check.actual


def test_normalize_accepts_reversed_argument_pairs(tmp_path, capsys):
    data = json.loads(NORMALIZE_K2.read_text())
    code, rep = run(["normalize", "--k", "2", "--input", str(NORMALIZE_K2)])
    assert code == 0
    expected = _residual(rep)
    for t in data["terms"]:
        t["args"].reverse()
        t["coef"] = (-GQ.from_str(t["coef"])).to_str()
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(data))
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 0 and _residual(rep) == expected
    # a wedge of one argument with itself is an input error naming it
    data["terms"][0]["args"] = ["e^-2", "e^-2"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None
    assert "'e^-2'" in capsys.readouterr().err


def test_unknown_value_label_is_named(tmp_path, capsys):
    data = json.loads(NORMALIZE_K2.read_text())
    data["terms"][0]["value"] = "nope"
    path = tmp_path / "nope.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None
    err = capsys.readouterr().err
    assert "'nope'" in err and all(repr(label) in err for label in REAL_LABELS)


def test_cochain_degree_out_of_range_is_reported_as_such(capsys):
    for cmd in ("cohomology", "hodge"):
        for ell in ("4", "-1"):
            capsys.readouterr()
            code, rep = run([cmd, "--ell", ell, "--k", "0"])
            assert code == 2 and rep is None
            assert "cochain degree ell must be between 0 and 3" in (
                capsys.readouterr().err)


def test_deeply_nested_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    capsys.readouterr()
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: input JSON is nested too deeply\n")


def test_input_degree_other_than_k_is_an_input_error(capsys):
    capsys.readouterr()
    code, rep = run(["normalize", "--k", "3", "--input", str(NORMALIZE_K2)])
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: input degree 2 does not match --k 3\n")


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_closed_stdout_exits_with_the_run_code():
    env = _src_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "so32cr.cli", "verify", "table1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


_ENGINE = {"tube", "forms", "cochains", "carriers", "prolong", "coframe",
           "structeq"}
_QUADRIC_COMMANDS = (
    ["quadric", "--point", "0,-1/2,3,0,4,0,5,0,0,-1/2"],
    ["embed", "--z", "3,4,5,0,0,0"],
    ["identities"],
)
_TUBE_COMMANDS = (
    ["levi", "--z", "1,0,1,0,0,0"],
    ["cubic", "--z", "3,4,5,1/2,-2,1"],
    ["freeman", "--z", "5,12,13,0,1,-1/3"],
)
# (argv, so32cr modules it must not load)
_UNUSED_MODULES = (
    # the algebra is tables: the basis change is applied pair by pair
    (["verify", "table1"], _ENGINE | {"linalg"}),
    (["verify", "jacobi"], _ENGINE | {"linalg"}),
    # a projective point is its diag-chart tuple: no algebra is loaded, and
    # the quadric side needs neither linear algebra nor the tube's fields
    *((["model"] + argv, _ENGINE | {"so32", "linalg"})
      for argv in _QUADRIC_COMMANDS),
    *((["model"] + argv, _ENGINE - {"tube"} | {"so32"})
      for argv in _TUBE_COMMANDS),
    (["cohomology", "--ell", "2", "--k", "2"],
     {"tube", "carriers", "prolong", "coframe"}),
    (["hodge", "--ell", "2", "--k", "3"],
     {"tube", "carriers", "prolong", "coframe"}),
    # the structure equations and the frame conditions need no linear
    # algebra; the catalog's normalization relations do
    (["verify", "structeq"],
     {"tube", "carriers", "prolong", "cochains", "linalg", "coframe"}),
)

# one interpreter runs each command given as JSON with so32cr unloaded
# before it, then prints per command its exit code and the so32cr modules
_MODULE_PROBE = """import contextlib, importlib, io, json, sys
found = []
for argv in json.loads(sys.argv[1]):
    for name in [m for m in sys.modules if m.split(".")[0] == "so32cr"]:
        del sys.modules[name]
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = importlib.import_module("so32cr.cli").run(argv)
    found.append([code, [m for m in sys.modules if m.split(".")[0] == "so32cr"]])
print(json.dumps(found))
"""


@lru_cache(maxsize=1)
def _probe():
    """{argv tuple: (exit code, so32cr modules loaded)} for the catalogue,
    -h, constraints and the lines of _UNUSED_MODULES, from one run of
    _MODULE_PROBE."""
    lines = list(dict.fromkeys(tuple(args) for args in (
        [args for _, args in CATALOGUE] + [["-h"], ["constraints"]]
        + [argv for argv, _ in _UNUSED_MODULES])))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(lines)],
        capture_output=True, text=True, cwd=ROOT, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {args: (code, modules)
            for args, (code, modules) in zip(lines, json.loads(proc.stdout))}


def _loaded(argv):
    """The so32cr modules, without the package prefix, that one command
    loads with so32cr unloaded before it."""
    return {m.removeprefix("so32cr.") for m in _probe()[tuple(argv)][1]}


@pytest.mark.parametrize("argv,unused", _UNUSED_MODULES)
def test_a_command_loads_only_the_modules_it_runs(argv, unused):
    loaded = _loaded(argv)
    assert "cli" in loaded and not loaded & unused, loaded


def test_constraints_reads_d_star_without_the_prolongation_modules():
    # the catalog's normalization relations are the reduced rows of d*
    assert _loaded(["constraints"]) == {
        "so32cr", "cli", "report", "scalars", "linalg", "so32", "forms",
        "cochains", "coframe", "structeq"}


def test_verify_structeq_loads_no_linear_algebra():
    # the flat structure equations are Maurer-Cartan equations on the
    # coframe, and the two "catalog contains" rows read the frame conditions
    assert _loaded(["verify", "structeq"]) == {
        "so32cr", "cli", "report", "scalars", "so32", "forms", "structeq"}


def test_help_loads_only_the_front_end():
    assert _loaded(["-h"]) == {"so32cr", "cli"}


def test_importtime_lists_the_runner_module():
    # cli.run loads the runner's module with __import__, which -X importtime
    # logs; importlib.import_module is not logged
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "so32cr.cli",
         "model", "levi", "--z", "1,0,1,0,0,0"],
        capture_output=True, text=True, cwd=ROOT, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "so32cr.tube" in [line.split("|")[-1].strip()
                             for line in proc.stderr.splitlines()]


# one interpreter without site runs the catalogue given as JSON, then prints
# per command its exit code and the watched modules it found loaded
_IMPORT_GUARD = """import json, sys
from so32cr.cli import run
found = []
for argv in json.loads(sys.argv[1]):
    code, _ = run(argv)
    watched = ["dataclasses", "inspect", "argparse", "gettext", "locale",
               "fractions", "decimal"]
    if argv != ["verify", "table1"]:
        watched += ["importlib.resources", "shutil"]
    found.append([argv, code, [m for m in watched if m in sys.modules]])
print(json.dumps(found))
"""


def test_no_command_imports_dataclasses_inspect_or_the_fixture_loader():
    # -h runs first, so its row shows what help alone loads; verify table1
    # runs last, since it alone reads a resource, whose loader brings in
    # shutil; no command parses its line with argparse (which would bring
    # in gettext and locale) or reads a rational through fractions (decimal)
    catalogue = [["-h"]] + sorted((args for _, args in CATALOGUE),
                                  key=lambda args: args == ["verify", "table1"])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_GUARD, json.dumps(catalogue)],
        capture_output=True, text=True, cwd=ROOT, env=_src_env(),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert [argv for argv, _, _ in found] == catalogue
    assert catalogue[-1] == ["verify", "table1"]
    assert [row for row in found if row[1] or row[2]] == []


def test_record_annotations_resolve():
    # NamedTuple records keep their annotations as text; each must name
    # what its module binds (CellCheck's "GQ | None" needs Python 3.10+)
    for record in (report.Check, cochains.HodgeTriple, structeq.Symbol,
                   structeq.Relation, prolong.ProlongationStep, so32.CellCheck):
        assert list(typing.get_type_hints(record)) == list(record._fields)
    assert typing.get_type_hints(so32.CellCheck)["scalar_factor"] == (
        GQ | None)


def test_report_names_list_the_declared_arguments_in_order():
    point = "-1,0,0,-6,0,-8,0,-10,-1,0"
    for argv, name in (
        (["cohomology", "--k", "2", "--ell", "2"], "cohomology --ell 2 --k 2"),
        (["model", "embed", "--z=-3,4,5,0,0,0"], "model embed --z -3,4,5,0,0,0"),
        (["model", "quadric", "--point", point],
         f"model quadric --point {point} --chart diag"),
    ):
        code, rep = run(argv)
        assert code == 0 and rep.command == name, argv


def test_quadric_verdict_is_the_same_in_both_charts():
    # diag [1 : 0 : 0 : 0 : 1] and antidiag [1 : 0 : 0 : 0 : 0] name one
    # point, with orbit value 0; the base point antidiag [1 : i : 0 : 0 : 0]
    # has orbit value 1/4
    for argv, code_expected, value in (
        (["--point", "1,0,0,0,0,0,0,0,1,0"], 1, "0/1"),
        (["--point", "1,0,0,0,0,0,0,0,0,0", "--chart", "antidiag"], 1, "0/1"),
        (["--point", "1,0,0,1,0,0,0,0,0,0", "--chart", "antidiag"], 0, "1/4"),
    ):
        code, rep = run(["model", "quadric"] + argv)
        assert code == code_expected, argv
        (row,) = [c for c in rep.checks if c.name == "orbit value"]
        assert row.actual == value, argv


def test_antidiag_orbit_row_names_the_diag_representative(tmp_path):
    # the orbit value is computed on the point's diag-chart representative
    (argv,) = [args for args in EXTRA_COMMANDS if "antidiag" in args]
    path = tmp_path / "antidiag.json"
    code, _ = run(["--json", str(path), *argv])
    assert code == 0
    (row,) = [c for c in json.loads(path.read_text())["checks"]
              if c["name"] == "orbit inequality value positive"]
    assert row["source"] == (
        "exact substitution on the diag-chart representative")


def test_prolong_generator_check_can_fail(monkeypatch):
    step = prolong.prolong_step1()
    narrowed = step._replace(space=Subspace(
        step.space.ambient_dim, [step.generators[0].flatten()]))
    monkeypatch.setattr(prolong, "prolong_step1", lambda: narrowed)
    code, rep = run(["prolong", "--step", "1"])
    assert code == 1
    gen_checks = [c for c in rep.checks if "generator equals" in c.name]
    assert len(gen_checks) == 2 and not any(c.ok for c in gen_checks)


def test_step0_dimension_check_fails_without_the_coboundary_rows(monkeypatch):
    # with D zeroed at degree 0 only the cubic and J rows remain, and they
    # leave a 3-dimensional space
    real = prolong.coboundary_matrix

    def zero_at_degree_0(ell, k):
        d = real(ell, k)
        return Matrix.from_entries(d.nrows, d.ncols, ()) if k == 0 else d
    monkeypatch.setattr(prolong, "coboundary_matrix", zero_at_degree_0)
    prolong._gauge.cache_clear()
    try:
        code, rep = run(["prolong", "--step", "0"])
    finally:
        prolong._gauge.cache_clear()
    assert code == 1
    (row,) = [c for c in rep.checks if c.name == "step 0 dimension"]
    assert (row.actual, row.ok) == ("3", False)


# -- fuzzing the parsing boundary ----------------------------------------------

_PIECES = ("0", "1", "-1", "3", "4", "5", "1/2", "-1/3", "1/0", "0/0", "",
           " ", "x", "1e3", "1.5", "--1", "1//2", "nan", "i", "+")
csv_strings = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map(",".join),
    st.text(alphabet="0123456789/-+,. eix", max_size=24),
    st.text(max_size=12),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_ARGS = ("e^-2", "e_1^-1", "e_2^-1")
terms = st.fixed_dictionaries({
    "args": st.one_of(
        st.lists(st.sampled_from(_ARGS + ("e^-3", "E^2")), max_size=3),
        st.permutations(_ARGS).map(lambda p: list(p[:2])),
        json_values,
    ),
    "value": st.one_of(st.sampled_from(REAL_LABELS + ("e^5",)), json_values),
    "coef": st.one_of(st.sampled_from(("1/1", "-2/3", "0/1-1/2*i", "1/0", "i",
                                        "1/2+", "")), json_values),
})
ctorsion_files = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "k": st.one_of(st.sampled_from((1, 2, 3, -1, 99, "2", True)), json_values),
        "terms": st.one_of(st.lists(terms, max_size=4), json_values),
    }),
)
cli_args = st.one_of(
    st.tuples(st.sampled_from(("embed", "levi", "cubic", "freeman")), csv_strings)
    .map(lambda t: ["model", t[0], "--z", t[1]]),
    st.tuples(csv_strings, st.sampled_from(("diag", "antidiag")))
    .map(lambda t: ["model", "quadric", "--point", t[0], "--chart", t[1]]),
)


@settings(max_examples=150, deadline=None)
@given(cli_args)
def test_fuzzed_points_get_an_exit_code(argv):
    code, _ = run(argv)
    assert code in (0, 1, 2)


def test_every_slice_in_a_wide_grid_gets_an_exit_code():
    # the whole grid costs about a second, so it is swept, not sampled
    for cmd, ell, k in itertools.product(("cohomology", "hodge"),
                                         range(-2, 6), range(-8, 9)):
        code, _ = run([cmd, "--ell", str(ell), "--k", str(k)])
        assert code in (0, 2), (cmd, ell, k)


@settings(max_examples=150, deadline=None)
@given(ctorsion_files, st.sampled_from(("1", "2", "3")))
def test_fuzzed_normalize_inputs_get_an_exit_code(tmp_path_factory, body, k):
    path = tmp_path_factory.getbasetemp() / "fuzz_ctorsion.json"
    path.write_text(json.dumps(body))
    code, _ = run(["normalize", "--k", k, "--input", str(path)])
    assert code in (0, 1, 2)


# -- the command line ----------------------------------------------------------

_LEVELS = [[], ["verify"], ["model"]] + [list(c.words) for c in cli.COMMANDS]


@pytest.mark.parametrize("words", _LEVELS,
                         ids=lambda words: " ".join(words) or "top")
def test_help_at_every_level(words, capsys):
    below = [c for c in cli.COMMANDS if list(c.words[:len(words)]) == words]
    for flag in ("-h", "--help"):
        capsys.readouterr()
        code, rep = run(words + [flag])
        out, err = capsys.readouterr()
        assert code == 0 and rep is None and err == ""
        assert out.startswith(" ".join(["usage: so32cr", *words, "[-h]"]))
        if list(below[0].words) != words:  # the top, verify or model
            for cmd in below:
                assert f"\n  {cmd.words[len(words)]} " in out
            continue
        (cmd,) = below
        assert cmd.help in out
        for name, _, choices, _ in cmd.args:
            listed = "{" + ",".join(map(str, choices)) + "}" if choices else ""
            assert f"\n  {name} {listed}" in out


@pytest.mark.parametrize("argv,message", [
    (["bogus"], "so32cr: error: invalid choice: 'bogus'"),
    (["verify", "jacobi", "--bogus"],
     "so32cr: error: unrecognized arguments: --bogus"),
    (["model", "embed", "--z"],
     "so32cr model embed: error: argument --z: expected one argument"),
    (["cohomology", "--ell", "--k", "2"],
     "so32cr cohomology: error: argument --ell: expected one argument"),
    (["prolong"], "so32cr prolong: error: the following arguments are "
     "required: --step"),
    (["model"], "so32cr model: error: the following arguments are "
     "required: COMMAND"),
    (["hodge", "--ell", "two", "--k", "2"],
     "so32cr hodge: error: argument --ell: invalid int value: 'two'"),
    (["prolong", "--step", "4"],
     "so32cr prolong: error: argument --step: invalid choice: '4'"),
    (["normalize", "--k", "4", "--input", "x"],
     "so32cr normalize: error: argument --k: invalid choice: 4"),
    (["--=x", "verify", "jacobi"],
     "so32cr: error: ambiguous option: -- could match --help, --json"),
    (["verify", "jacobi", "stray"],
     "so32cr: error: unrecognized arguments: stray"),
    (["--json"], "so32cr: error: argument --json: expected one argument"),
    (["--json", "-h", "verify", "jacobi"],
     "so32cr: error: argument --json: expected one argument"),
    (["verify", "jacobi", "--json", "out.json"],
     "so32cr: error: unrecognized arguments: --json out.json"),
    (["verify", "jacobi", "--help=x"],
     "so32cr verify jacobi: error: argument -h/--help: ignored explicit "
     "argument 'x'"),
    (["verify", "--", "jacobi"],
     "so32cr verify: error: '--' is neither a flag nor a value here"),
], ids=["unknown command", "unknown flag", "missing value at the end",
        "missing value before a flag", "missing flag", "missing command",
        "bad int", "bad choice", "bad int choice", "ambiguous prefix",
        "stray word", "json without a path", "json before a flag",
        "json after the command", "help with a value", "bare double dash"])
def test_every_usage_error_is_named(argv, message, capsys):
    capsys.readouterr()
    code, rep = run(argv)
    out, err = capsys.readouterr()
    assert code == 2 and rep is None and out == ""
    usage, line = err.rstrip("\n").split("\n")
    assert usage.startswith("usage: so32cr") and line.startswith(message)
    assert "Traceback" not in err


# Where the parser parts from argparse (tests/oracles.py), on purpose:
# (argv, argparse's outcome, this parser's, why).  An outcome is the exit
# code of -h (0) or of a usage error (2), or "ok".
PARSER_DIFFERENCES = (
    (["-h", "--=x"], 2, 0,
     "argparse reads every word before it acts and finds the empty flag "
     "name of --=x ambiguous; this parser acts on -h first"),
    (["verify", "jacobi", "-hh"], 0, 2,
     "no bundled short flags: -hh is an unknown flag, not -h -h"),
    (["--json", "-x y", "verify", "jacobi"], "ok", 2,
     "a word that starts with '-' is a flag, blanks or not; argparse reads "
     "one with a blank as a value when it names no flag"),
    (["-x y", "-h"], 2, 0,
     "the same word is an unknown flag here, where argparse reads it as a "
     "command word"),
)


def _outcome(parse, argv):
    """(command words, values, --json path) of a parsed line, else the
    exit code of -h (0) or of a usage error (2)."""
    try:
        cmd, values, path = parse(argv)
    except cli.Stop as stop:
        return stop.code
    except SystemExit as exc:
        return exc.code
    return cmd.words, values, path


@pytest.mark.parametrize("argv,old,new,why", PARSER_DIFFERENCES)
def test_parser_differences_are_as_listed(argv, old, new, why):
    def kind(outcome):
        return outcome if isinstance(outcome, int) else "ok"
    assert kind(_outcome(argparse_parse, argv)) == old
    assert kind(_outcome(cli.parse, argv)) == new


_WORDS = sorted({w for c in cli.COMMANDS for w in c.words})
_LONG = sorted({f for c in cli.COMMANDS for f, *_ in c.args} | {"--json",
                                                                "--help"})
_PREFIXES = sorted({f[:n] for f in _LONG for n in range(3, len(f))})
_FLAGS = _LONG + _PREFIXES + ["-h", "--bogus", "-x", "--=x", "---"]
# no blanks: argparse reads "--z= 2 ", as the old join glued it, and any
# other word that starts with "-" and holds a blank by its own rule (see
# PARSER_DIFFERENCES)
_VALUES = ["0", "1", "2", "3", "all", "diag", "antidiag", "-1", "-2", "1_0",
           "-1_0", "x", "", "-3,4,5,0,0,0", "3,4,5,0,0,0", "-1/2", "-", "--",
           "-.5", "-1.5", "out.json", "=", "-h"]
_word = st.one_of(
    st.sampled_from(_WORDS + _FLAGS + _VALUES),
    st.builds("{}={}".format, st.sampled_from(_FLAGS),
              st.sampled_from(_VALUES)),
)


@st.composite
def _command_lines(draw):
    """A catalogue command with its flags in any order, some abbreviated,
    repeated, written with "=" or left out, and stray words put anywhere."""
    cmd = draw(st.sampled_from(cli.COMMANDS))
    line = list(cmd.words)
    if draw(st.booleans()):
        line[:0] = ["--json", draw(st.sampled_from(("out.json", "-1", "-h")))]
    flags = [f for f, *_ in cmd.args]
    if flags:
        flags = list(draw(st.permutations(flags)))
        flags = (flags[draw(st.integers(0, 1)):]
                 + draw(st.lists(st.sampled_from(flags), max_size=1)))
    for flag in flags:
        name = draw(st.sampled_from([flag] + [p for p in _PREFIXES
                                              if flag.startswith(p)]))
        # int() strips blanks: " 2 " is the one blank value
        value = draw(st.sampled_from(
            _VALUES + ([" 2 "] if flag in ("--ell", "--k") else [])))
        line += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for word in draw(st.lists(_word, max_size=2)):
        line.insert(draw(st.integers(0, len(line))), word)
    return line


@settings(max_examples=300, deadline=None)
@given(st.one_of(_command_lines(), st.lists(_word, max_size=6)))
# shapes that a few hundred draws may miss: a bare "--" value given again,
# and --z/--point taking their value where the command has no such flag
@example(["model", "embed", "--z", "--", "--z", "3,4,5,0,0,0"])
@example(["prolong", "--step=--", "--step", "0", "-h"])
@example(["cohomology", "--point", "-h"])
@example(["--z", "verify", "jacobi"])
def test_parse_agrees_with_argparse(argv):
    new, old = _outcome(cli.parse, argv), _outcome(argparse_parse, argv)
    # the first row of PARSER_DIFFERENCES: -h before an ambiguous --=...
    ambiguous = any(w.startswith("--=") for w in argv)
    assert new == old or (ambiguous and (old, new) == (2, 0)), (new, old)


# so32cr statements (ast.stmt nodes) in the modules a command loads, at
# most; "-h" loads the front end alone
STATEMENT_BUDGET = {
    "-h": 170,
    "verify jacobi": 550,
    "verify table1": 550,
    "verify structeq": 712,
    "cohomology": 1063,
    "hodge": 1063,
    "prolong": 1301,
    "normalize": 1301,
    "model quadric": 525,
    "model embed": 525,
    "model levi": 969,
    "model cubic": 969,
    "model freeman": 969,
    "model identities": 525,
    "constraints": 1220,
}

@lru_cache(maxsize=None)
def _statements(module: str) -> int:
    path = ROOT / "src" / Path(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    tree = ast.parse(path.read_text())
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def test_each_command_compiles_within_its_statement_budget():
    counts = {}
    for args in [args for _, args in CATALOGUE] + [["-h"]]:
        code, modules = _probe()[tuple(args)]
        assert code == 0, args
        name = " ".join(w for w in args if w in _WORDS or w == "-h")
        counts[name] = sum(_statements(m) for m in modules)
    assert set(counts) == set(STATEMENT_BUDGET)
    assert {name: (n, STATEMENT_BUDGET[name]) for name, n in counts.items()
            if n > STATEMENT_BUDGET[name]} == {}
