"""The --json report of every README CLI command, byte for byte.

The goldens under perfbench/goldens/ are read, never written here.  The
commands run in-process from the repository root, because the normalize
report embeds its (relative) input path.
"""

from pathlib import Path

import pytest

from so32cr.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "perfbench" / "goldens"

COMMANDS = (
    ("verify-jacobi", ["verify", "jacobi"]),
    ("verify-table1", ["verify", "table1"]),
    ("verify-structeq", ["verify", "structeq"]),
    ("cohomology", ["cohomology", "--ell", "2", "--k", "2"]),
    ("hodge", ["hodge", "--ell", "2", "--k", "3"]),
    ("prolong", ["prolong", "--step", "all"]),
    ("normalize", ["normalize", "--k", "2", "--input",
                   "perfbench/inputs/normalize_k2.json"]),
    ("model-quadric", ["model", "quadric", "--point",
                       "0,-1/2,3,0,4,0,5,0,0,-1/2"]),
    ("model-embed", ["model", "embed", "--z", "3,4,5,0,0,0"]),
    ("model-levi", ["model", "levi", "--z", "1,0,1,0,0,0"]),
    ("model-cubic", ["model", "cubic", "--z", "3,4,5,1/2,-2,1"]),
    ("model-freeman", ["model", "freeman", "--z", "5,12,13,0,1,-1/3"]),
    ("model-identities", ["model", "identities"]),
    ("constraints", ["constraints"]),
)


def test_catalogue_covers_every_golden():
    assert {name for name, _ in COMMANDS} == {
        p.stem for p in GOLDENS.glob("*.json")
    }


@pytest.mark.parametrize("name,args", COMMANDS, ids=[n for n, _ in COMMANDS])
def test_report_matches_golden(name, args, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{name}.json"
    code, _ = run(["--json", str(out)] + args)
    assert code == 0
    assert out.read_bytes() == (GOLDENS / f"{name}.json").read_bytes()
