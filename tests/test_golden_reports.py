"""The --json report of every README CLI command, byte for byte.

The catalogue is the benchmark's ``CLI_COMMANDS`` in
``perfbench/workloads.py``, executed from its source text so that nothing
is written under ``perfbench/``.  The goldens under perfbench/goldens/ are
read, never written here.  The commands run in-process from the repository
root, because the normalize report embeds its (relative) input path.
"""

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
