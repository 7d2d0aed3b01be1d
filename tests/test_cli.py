import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from so32cr import prolong, so32, tube
from so32cr.cli import run
from so32cr.linalg import Subspace
from so32cr.cochains import (Cochain, cochain_dim, ctorsion_from_json,
                              ctorsion_to_json)
from so32cr.scalars import GQ, HALF_I
from so32cr.so32 import REAL_LABELS

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
    # failed check: a non-member quadric point
    code, rep = run(["model", "quadric", "--point", "1,0,0,0,0,0,0,0,0,0"])
    assert code == 1 and rep.status == "fail"


def test_identity_check_fails_for_a_wrong_embedding(monkeypatch):
    # the check expands the formula that `model embed` evaluates, so a wrong
    # sign of q in the last slot must show in the symmetric-form row
    def wrong(z):
        q = tube.cone_quadratic(z)
        return (q * -HALF_I - HALF_I, z[0], z[1], z[2], q * -HALF_I - HALF_I)

    monkeypatch.setattr(tube, "embedding_coords", wrong)
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


def test_jacobi_check_fails_for_a_constant_of_the_wrong_grade(monkeypatch):
    # [e^-2, E^2] has grade 0; an e_1^-1 term in it breaks the grading
    i, j = REAL_LABELS.index("e^-2"), REAL_LABELS.index("E^2")
    _mutated_table(monkeypatch, [(i, j, REAL_LABELS.index("e_1^-1"), GQ(1))])
    code, rep = run(["verify", "jacobi"])
    assert code == 1 and rep.status == "fail"
    assert not _row(rep, "bracket respects grading").ok


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
    # argparse turns "--z=--" into an empty list; that is a usage error
    for argv in (["model", "embed", "--z", "--"],
                 ["model", "embed", "--z=--"],
                 ["model", "quadric", "--point", "--", "--chart", "diag"]):
        code, rep = run(argv)
        assert code == 2 and rep is None, argv


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


def test_deeply_nested_input_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None


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


# the probe runs one command, then prints the so32cr modules it loaded
_LOAD_PROBE = """import json, sys
from so32cr.cli import run
run(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("so32cr"))))
"""
_ENGINE = {"tube", "forms", "cochains", "carriers", "prolong", "coframe"}
_MODEL_COMMANDS = (
    ["quadric", "--point", "0,-1/2,3,0,4,0,5,0,0,-1/2"],
    ["embed", "--z", "3,4,5,0,0,0"],
    ["levi", "--z", "1,0,1,0,0,0"],
    ["cubic", "--z", "3,4,5,1/2,-2,1"],
    ["freeman", "--z", "5,12,13,0,1,-1/3"],
    ["identities"],
)


def _modules_loaded_by(argv):
    """The so32cr modules (without the package prefix) that a fresh
    interpreter holds after running one command."""
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE, *argv],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("so32cr.")
            for m in json.loads(proc.stdout.splitlines()[-1])}


@pytest.mark.parametrize("argv,unused", [
    (["verify", "table1"], _ENGINE),
    (["verify", "jacobi"], _ENGINE),
    # a projective point is its diag-chart tuple: no algebra is loaded
    *((["model"] + argv, _ENGINE - {"tube"} | {"so32"})
      for argv in _MODEL_COMMANDS),
    (["cohomology", "--ell", "2", "--k", "2"],
     {"tube", "carriers", "prolong", "coframe"}),
    (["hodge", "--ell", "2", "--k", "3"],
     {"tube", "carriers", "prolong", "coframe"}),
    # the two "catalog contains" rows are settled by the frame conditions
    (["verify", "structeq"], {"tube", "carriers", "prolong"}),
])
def test_a_command_loads_only_the_modules_it_runs(argv, unused):
    loaded = _modules_loaded_by(argv)
    assert "cli" in loaded and not loaded & unused, loaded


def test_help_loads_only_the_front_end():
    assert _modules_loaded_by(["-h"]) <= {"so32cr", "scalars", "report", "cli"}


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


def test_prolong_generator_check_can_fail(monkeypatch):
    step = prolong.prolong_step1()
    narrowed = dataclasses.replace(step, space=Subspace(
        step.space.ambient_dim, [step.generators[0].flatten()]))
    monkeypatch.setattr(prolong, "prolong_step1", lambda: narrowed)
    code, rep = run(["prolong", "--step", "1"])
    assert code == 1
    gen_checks = [c for c in rep.checks if "generator equals" in c.name]
    assert len(gen_checks) == 2 and not any(c.ok for c in gen_checks)


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
