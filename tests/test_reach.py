"""``src/so32cr`` holds what the CLI and the benchmark reach.

One fresh interpreter runs, under ``sys.setprofile``, the README's CLI
catalogue with ``--json`` (taken from ``perfbench/workloads.py``), a few
further argument values of the same commands, and the benchmark's set-up
with one op of each warm kind.  Every function and method that a module of
``src/so32cr`` defines (dunders aside) must have been called there, or be
on ``ALLOWED`` with the reason it stays.  Reference computations that only
the tests call live in ``tests/oracles.py``.

The same file checks with ``ast`` that no module imports a name it never
uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "so32cr"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# argument values of existing commands that reach code the README values
# do not
EXTRA_COMMANDS = (
    # the antidiag chart's Gram and its conversion to the diag chart
    ["model", "quadric", "--point", "1,0,0,1,0,0,0,0,0,0", "--chart",
     "antidiag"],
    # the top slice: an empty C^2_6, so d* out of C^3_6 is a 0-row matrix
    ["hodge", "--ell", "3", "--k", "6"],
)

# "module.qualname": why it stays although the run above does not call it
ALLOWED = {
    "cli.main": "console entry point; the run calls cli.run directly",
    "linalg.solve": "span of the benchmark's tracer (perfbench/tracing.py)",
    "tube.levi_form_at": "span of the benchmark's tracer",
    "carriers.Carrier.fstar_ladder": "the J-compatible gl_k* variant "
                                     "(gl_filtered(..., j_compatible=True))",
    "so32.filtration_steps": "the semitone ladder that fstar_ladder reads",
}

# The child process: the workloads module is executed from its source text,
# so no bytecode cache is written under perfbench/.
_CHILD = r"""
import contextlib, io, json, os, random, sys, tempfile, types

workloads_path, extra = sys.argv[1], json.loads(sys.argv[2])
seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(profile)
workloads = types.ModuleType("perfbench_workloads")
workloads.__file__ = workloads_path
with open(workloads_path) as fh:
    exec(compile(fh.read(), workloads_path, "exec"), workloads.__dict__)
from so32cr.cli import run

codes = []
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(io.StringIO()):
    out = os.path.join(tmp, "report.json")
    for args in [a for _, a in workloads.CLI_COMMANDS] + extra:
        codes.append(run(["--json", out] + args)[0])
for workload in ("normalize-stream", "tube-points"):
    workloads.setup(workload)
rng = random.Random(1)
ops = [workloads.normalize_op(rng)] + workloads.tube_batch(rng)
checks = [check(thunk()) for thunk, check in ops]
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "checks": checks,
    "called": sorted({(c.co_filename, c.co_firstlineno) for c in seen}),
}))
"""


def _defined():
    """{(file, first line of the code object): "module.qualname"} for every
    module-level function and method of a module-level class, dunders
    aside; a decorated function's code starts at its first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = [(node, "") for node in tree.body]
        found += [(item, f"{node.name}.")
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body]
        for node, owner in found:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[(str(path), line)] = f"{path.stem}.{owner}{node.name}"
    return out


def _reach_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(WORKLOADS),
         json.dumps(EXTRA_COMMANDS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_src_holds_what_the_cli_and_the_benchmark_reach():
    result = _reach_run()
    assert set(result["codes"]) == {0}
    assert all(result["checks"])
    defined = _defined()
    called = {defined[tuple(key)] for key in result["called"]
              if tuple(key) in defined}
    assert sorted(set(defined.values()) - called - set(ALLOWED)) == []
    # the allowlist names only what exists and what the run really misses
    assert set(ALLOWED) <= set(defined.values())
    assert sorted(set(ALLOWED) & called) == []


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: u for name, u in unused.items() if u} == {}
