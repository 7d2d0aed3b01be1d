"""The --json report of every README CLI command, byte for byte.

The catalogue is the benchmark's ``CLI_COMMANDS`` in
``perfbench/workloads.py``, executed from its source text so that nothing
is written under ``perfbench/``.  The goldens under perfbench/goldens/ are
read, never written here.  The commands run in-process from the repository
root, because the normalize report embeds its (relative) input path.  The
same catalogue also runs in one child per fixed hash seed, so that a report
that came to depend on set or dict-of-str iteration order fails every run,
not only under some of pytest's random seeds.  Each child runs it three
times, each time in an order shuffled by ``random.Random(seed)``, with the
caches kept warm in between, so that a report that came to depend on which
command ran first fails too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from so32cr.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "perfbench" / "goldens"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _cli_commands():
    namespace = {"__name__": "perfbench_workloads", "__file__": str(WORKLOADS)}
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), namespace)
    return namespace["CLI_COMMANDS"]


COMMANDS = _cli_commands()


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


# one interpreter runs the catalogue given as JSON in-process, three times
# in orders shuffled by random.Random(argv[4]), writes each report under
# argv[1] and prints the names whose report is not the golden
_SEEDED_CHILD = """import contextlib, io, json, pathlib, random, sys
from so32cr.cli import run
out, goldens = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
commands, rng = json.loads(sys.argv[3]), random.Random(int(sys.argv[4]))
bad = []
for _ in range(3):
    rng.shuffle(commands)
    for name, args in commands:
        path = out / (name + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = run(["--json", str(path)] + args)
        golden = (goldens / (name + ".json")).read_bytes()
        if code or path.read_bytes() != golden:
            bad.append(name)
print(json.dumps(bad))
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_reports_match_goldens_under_a_fixed_hash_seed(seed, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", _SEEDED_CHILD, str(tmp_path), str(GOLDENS),
         json.dumps(COMMANDS), seed],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
