import json

from so32cr.cli import run
from so32cr.report import ctorsion_from_json, ctorsion_to_json
from so32cr.cochains import Cochain, cochain_dim
from so32cr.scalars import GQ


def test_exit_codes(tmp_path):
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
