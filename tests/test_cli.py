import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from so32cr import prolong
from so32cr.cli import run
from so32cr.linalg import Subspace
from so32cr.report import ctorsion_from_json, ctorsion_to_json
from so32cr.cochains import Cochain, cochain_dim
from so32cr.scalars import GQ
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
    exp_coef = {"k": 2, "terms": [
        {"args": ["e^-2", "e_1^-1"], "value": "e_2^-1", "coef": "1e3"}]}
    path = tmp_path / "exp_coef.json"
    path.write_text(json.dumps(exp_coef))
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None
    assert "integer string conversion" not in capsys.readouterr().err
    # failed check: a non-member quadric point
    code, rep = run(["model", "quadric", "--point", "1,0,0,0,0,0,0,0,0,0"])
    assert code == 1 and rep.status == "fail"


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


def test_deeply_nested_input_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, rep = run(["normalize", "--k", "2", "--input", str(path)])
    assert code == 2 and rep is None


def test_closed_stdout_exits_with_the_run_code():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
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


@settings(max_examples=150, deadline=None)
@given(ctorsion_files, st.sampled_from(("1", "2", "3")))
def test_fuzzed_normalize_inputs_get_an_exit_code(tmp_path_factory, body, k):
    path = tmp_path_factory.getbasetemp() / "fuzz_ctorsion.json"
    path.write_text(json.dumps(body))
    code, _ = run(["normalize", "--k", k, "--input", str(path)])
    assert code in (0, 1, 2)
