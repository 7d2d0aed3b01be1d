"""``src/so32cr`` holds, statement by statement, what the CLI and the
benchmark run.

One fresh interpreter runs, under one ``sys.settrace`` hook, the README's
CLI catalogue with ``--json`` (taken from ``perfbench/workloads.py``), a
few further command lines, and the benchmark's set-up with one op of each
warm kind.  The catalogue must pass; the further lines' stdout and exit
codes must equal ``tests/extra_commands.txt``.  The hook records every
call, and every line event in ``src/so32cr``.

The statement rule: every statement in the body of a function or method of
``src/so32cr`` must run there, be covered by ``STATEMENTS_ALLOWED``, or be
deleted.  Docstrings, ``def`` and ``class`` lines and ``raise`` statements
are exempt; the raise test below covers the raises.  A statement runs when a
line event falls on one of its own lines; a compound statement's own lines
end at the line before its body, so a multi-line ``if`` counts even where an
interpreter reports it on a later line than its first.  A key of
``STATEMENTS_ALLOWED`` is ``"module.qualname"`` for a whole function (a
nested one is ``"outer.inner"``), which the run must never call, or
``"module.qualname: <first source line of the statement>"``, from the
statement's first column, for the statements of that function that start
with that line, none of which may run.  To keep an unreached statement, add
its key with the reason it stays, such as the test that runs it; an entry
that names nothing, or names what runs, fails the test.  Reference
computations that only the tests call live in ``tests/oracles.py``.

The same run checks that no parameter default is an idle option: each
defaulted parameter of a called function or method must receive a value
other than its default at least once, or be on ``DEFAULTS_ALLOWED``.  A
function's arguments are inspected only until all of its defaults have been
overridden, so the check costs the run little.

The same file checks with ``ast`` that no module imports a name it never
uses, and that every ``raise`` in ``src/so32cr`` is tripped by a test that
names its message: the leading literal of the message (its text up to the
first placeholder) is named by the ``match=`` pattern of a
``pytest.raises``, or, for the errors ``cli.run`` prints with exit 2,
appears in an error line a CLI test reads.  ``RAISES_ALLOWED`` lists the
exceptions with their reasons.
"""

import ast
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "so32cr"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# each extra command's line, its stdout and its exit code, as the console
# script prints them; CI compares the same text with cmp
EXTRA_OUTPUT = ROOT / "tests" / "extra_commands.txt"

# argument values of existing commands that reach code the README values
# do not
EXTRA_COMMANDS = (
    # the antidiag chart's Gram and its conversion to the diag chart
    ["model", "quadric", "--point", "1,0,0,1,0,0,0,0,0,0", "--chart",
     "antidiag"],
    # the top slice: an empty C^2_6, so d* out of C^3_6 is a 0-row matrix
    ["hodge", "--ell", "3", "--k", "6"],
    # both ends of the complex, where the harmonic space is the kernel of
    # d alone (ell = 0) or of d* alone (ell = 3)
    ["hodge", "--ell", "0", "--k", "-2"],
    ["cohomology", "--ell", "3", "--k", "6"],
    # degree 1, where ker d* is 0, and the report's inner-product row
    ["normalize", "--k", "1", "--input", "tests/inputs/normalize_k1.json"],
    # cone points with x^1 = 0, where the holomorphic frame is L12 and L23
    ["model", "levi", "--z", "0,1,1,0,0,0"],
    ["model", "freeman", "--z", "0,-3,3,1,2,-1"],
    # coordinates over different denominators (140^2 + 147^2 = 203^2), so
    # the integer power tables and d theta scale each value to a common one
    ["model", "levi", "--z", "140/11,-147/11,203/11,-17/9,13/7,5/3"],
    ["model", "cubic", "--z", "140/11,-147/11,203/11,-17/9,13/7,5/3"],
    ["model", "freeman", "--z", "140/11,-147/11,203/11,-17/9,13/7,5/3"],
    # the help of a command, printed from its row of cli.COMMANDS
    ["model", "quadric", "-h"],
    # the help of the top level and of a group
    ["-h"],
    ["verify", "-h"],
    # a unique prefix names a flag; the last of a repeated flag wins
    ["prolong", "--ste", "all"],
    ["cohomology", "--ell=2", "--k", "2", "--k", "3"],
    # usage errors (exit 2): a negative non-integer, an unknown flag, a
    # stray word, a flag another command has (with its value), a flag
    # followed by a flag, a bare "--" value
    ["cohomology", "--ell", "2", "--k", "-1.5"],
    ["cohomology", "--ell", "2", "--k", "2", "--bogus"],
    ["cohomology", "--ell", "2", "--k", "2", "stray"],
    ["verify", "jacobi", "--z", "1"],
    ["cohomology", "--ell", "--k", "2"],
    ["prolong", "--step=--"],
    # an input error (exit 2): a point off the light cone
    ["model", "levi", "--z", "1,2,3,0,0,0"],
)

# why a statement stays although the run above does not reach it, keyed by
# its whole function or by the statement itself (see the module docstring)
_SPAN = "span of the benchmark's tracer (SPANS in perfbench/tracing.py)"
_VALUE = "tests compare, hash, index and print values"
_OPERAND = ("an operand that is not a GQ; "
            "test_scalars.py::test_arithmetic_takes_gq_operands_only")
STATEMENTS_ALLOWED = {
    "cli.main": "console entry point; the run calls cli.run directly",
    "cli.run: os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())":
        "a reader that went away; "
        "test_cli.py::test_closed_stdout_exits_with_the_run_code",
    "cochains.run_hodge: resum_ok = False":
        "overlapping pieces; test_cli.py::"
        "test_hodge_reports_overlapping_pieces_without_a_traceback",
    "linalg.solve": _SPAN,
    "prolong.gauge_image": _SPAN,
    "tube.levi_form_at": _SPAN,
    "carriers.Carrier.__repr__": _VALUE,
    "cochains.Cochain.__eq__": _VALUE,
    "cochains.Cochain.__hash__": _VALUE,
    "forms.Form.__eq__": _VALUE,
    "forms.Form.__repr__": _VALUE,
    "linalg.Matrix.__getitem__": _VALUE,
    "linalg.Matrix.__eq__": _VALUE,
    "linalg.Matrix.__hash__": _VALUE,
    "linalg.Matrix.__repr__": _VALUE,
    "linalg.Subspace.__eq__: return NotImplemented": _VALUE,
    "linalg.Subspace.__repr__": _VALUE,
    "linalg.NoSolution.__repr__": _VALUE,
    "quadric.Poly.__eq__": _VALUE,
    "quadric.Poly.__hash__": _VALUE,
    "quadric.Poly.__repr__": _VALUE,
    "scalars.GQ.__eq__: return NotImplemented": _VALUE,
    "scalars.GQ.__hash__: return hash((self._a, self._b, self._d))": _VALUE,
    "scalars.GQ.__repr__": _VALUE,
    "tube.Field.__repr__": _VALUE,
    "scalars.GQ.__sub__: return NotImplemented": _OPERAND,
    "scalars.GQ.__mul__: return NotImplemented": _OPERAND,
    "scalars.GQ.__truediv__: return NotImplemented": _OPERAND,
}

# "module.qualname(parameter)": why it keeps a default that the run never
# overrides
DEFAULTS_ALLOWED = {}

# The child process: the workloads module is executed from its source text,
# so no bytecode cache is written under perfbench/.  One sys.settrace hook
# sees every call; a frame of src/so32cr also gets a line tracer.
_CHILD = r"""
import contextlib, importlib, inspect, io, json, os, pkgutil, random, sys
import tempfile, types

package = os.path.join(sys.argv[1], "")
workloads_path, extra = sys.argv[2], json.loads(sys.argv[3])
seen = set()
lines = set()  # (code, line) of every line event in the package
pending = {}  # code -> {parameter: default} not yet overridden


def overridden(value, default):
    return value is not default and not (
        type(value) is type(default) and value == default)


def line(frame, event, arg):
    if event == "line":
        lines.add((frame.f_code, frame.f_lineno))
    return line


def trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(package):
        return None
    seen.add(code)
    todo = pending.get(code)
    if todo:
        args = frame.f_locals
        for name in [n for n, d in todo.items() if overridden(args[n], d)]:
            del todo[name]
    return line


def functions(module):
    # module-level functions and methods of module-level classes, unwrapped
    owners = [module] + [v for v in vars(module).values()
                         if isinstance(v, type)
                         and v.__module__ == module.__name__]
    for owner in owners:
        for v in vars(owner).values():
            for attr in ("__func__", "fget", "func"):
                v = getattr(v, attr, v)
            v = inspect.unwrap(v)
            if (isinstance(v, types.FunctionType)
                    and v.__module__ == module.__name__):
                yield v


def defaults(fn):
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    values = fn.__defaults__ or ()
    out = dict(zip(names[len(names) - len(values):], values))
    out.update(fn.__kwdefaults__ or {})
    return out


sys.settrace(trace)
workloads = types.ModuleType("perfbench_workloads")
workloads.__file__ = workloads_path
with open(workloads_path) as fh:
    exec(compile(fh.read(), workloads_path, "exec"), workloads.__dict__)
import so32cr
for info in pkgutil.iter_modules(so32cr.__path__):
    module = importlib.import_module(f"so32cr.{info.name}")
    for fn in functions(module):
        if not (fn.__name__.startswith("__") and fn.__name__.endswith("__")):
            pending[fn.__code__] = defaults(fn)
from so32cr.cli import run

codes, stdouts = [], []
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report.json")
    for args in [a for _, a in workloads.CLI_COMMANDS] + extra:
        with contextlib.redirect_stdout(io.StringIO()) as text, \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(["--json", out] + args)[0])
        stdouts.append(text.getvalue())
for workload in ("normalize-stream", "tube-points"):
    workloads.setup(workload)
rng = random.Random(1)
ops = [workloads.normalize_op(rng)] + workloads.tube_batch(rng)
checks = [check(thunk()) for thunk, check in ops]
sys.settrace(None)
ran = {}
for code, n in lines:
    ran.setdefault(code.co_filename, set()).add(n)
print(json.dumps({
    "codes": codes,
    "stdouts": stdouts,
    "checks": checks,
    "called": sorted({(c.co_filename, c.co_firstlineno) for c in seen}),
    "lines": {path: sorted(ns) for path, ns in sorted(ran.items())},
    "idle_defaults": sorted((c.co_filename, c.co_firstlineno, name)
                            for c, todo in pending.items() if c in seen
                            for name in todo),
}))
"""


@lru_cache(maxsize=1)
def _reach_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(PACKAGE), str(WORKLOADS),
         json.dumps(EXTRA_COMMANDS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _functions(body, prefix=""):
    """(qualname, node) of every function defined in ``body``, methods and
    nested functions too; a nested one is named "outer.inner"."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _own_statements(fn):
    """The statements of a function's body that the reach rule counts:
    nested definitions, the docstring and raise statements left out."""
    todo = list(fn.body)
    if ast.get_docstring(fn) is not None:
        todo.pop(0)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            todo += getattr(node, field, [])
        todo += [s for h in getattr(node, "handlers", []) for s in h.body]
        todo += [s for c in getattr(node, "cases", []) for s in c.body]
        if not isinstance(node, ast.Raise):
            yield node


def _statement_lines(node):
    """The lines of a statement on which a line event shows that it ran:
    all of a simple statement's, a compound statement's up to its body."""
    body = getattr(node, "body", None)
    end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(node.lineno, end + 1)


def _statements():
    """[(function key, statement key, path, lines)] for every counted
    statement of every function in src/so32cr, and {function key: (path,
    first line of its code object)}."""
    out, functions = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        for qualname, fn in _functions(ast.parse(text).body):
            key = f"{path.stem}.{qualname}"
            functions[key] = (str(path), min(
                [fn.lineno] + [d.lineno for d in fn.decorator_list]))
            for node in _own_statements(fn):
                first = source[node.lineno - 1][node.col_offset:].rstrip()
                out.append((key, f"{key}: {first}", str(path),
                            _statement_lines(node)))
    return out, functions


def test_every_statement_runs_or_is_listed():
    result = _reach_run()
    # the catalogue passes; tests/extra_commands.txt pins the extra lines'
    # exit codes
    assert set(result["codes"][:-len(EXTRA_COMMANDS)]) == {0}
    assert all(result["checks"])
    ran = {path: set(lines) for path, lines in result["lines"].items()}
    called = {tuple(key) for key in result["called"]}
    statements, functions = _statements()
    unrun, run_keys = [], set()
    for fn, key, path, lines in statements:
        if ran.get(path, set()).isdisjoint(lines):
            unrun.append((fn, key))
        else:
            run_keys.add(key)

    def covered(fn, key):
        return key in STATEMENTS_ALLOWED or any(
            fn == entry or fn.startswith(entry + ".")
            for entry in STATEMENTS_ALLOWED)

    assert [key for fn, key in unrun if not covered(fn, key)] == []
    # the allowlist names only what exists and what the run really misses:
    # a whole function that is never called, or statements none of which
    # runs
    unrun_keys = {key for _, key in unrun}
    stale = [entry for entry in STATEMENTS_ALLOWED
             if (functions[entry] in called if entry in functions
                 else entry not in unrun_keys or entry in run_keys)]
    assert stale == []


def test_every_default_parameter_is_overridden_somewhere():
    result = _reach_run()
    defined = {where: key for key, where in _statements()[1].items()}
    idle = {f"{defined[(path, line)]}({name})"
            for path, line, name in result["idle_defaults"]}
    assert sorted(idle - set(DEFAULTS_ALLOWED)) == []
    # the allowlist names only defaults the run really leaves idle
    assert sorted(set(DEFAULTS_ALLOWED) - idle) == []


def test_extra_commands_print_their_pinned_output():
    result = _reach_run()
    n = len(EXTRA_COMMANDS)
    text = "".join(f"$ so32cr {' '.join(args)}\n{stdout}exit {code}\n"
                   for args, stdout, code in zip(
                       EXTRA_COMMANDS, result["stdouts"][-n:],
                       result["codes"][-n:], strict=True))
    assert text == EXTRA_OUTPUT.read_text()


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


# "module: exception call": why a raise with a message is matched by no
# pytest.raises pattern of tests/
RAISES_ALLOWED = {
    "linalg: ArithmeticError(why)":
        "the message is the caller's reason; test_linalg matches the one it "
        "passes",
}


def _leading_literal(node):
    """The text of a message expression up to its first placeholder (a
    message that opens with one: its first literal run), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return next((v.value for v in node.values
                     if isinstance(v, ast.Constant) and v.value), None)
    if isinstance(node, ast.BinOp):
        return _leading_literal(node.left)
    return None


def _raises():
    """(key, exception name, leading literal) of every raise of a call in
    src/so32cr; the message is the call's last positional argument."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                call = node.exc
                message = call.args[-1] if call.args else None
                literal = _leading_literal(message)
                yield (f"{path.stem}: {ast.unparse(call)}",
                       ast.unparse(call.func), literal)


def _string_bindings(fn):
    """{name: [strings]} a test function binds to plain names: by a
    constant assignment or through a literal parametrize table."""
    bound = {}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)):
            bound.setdefault(node.targets[0].id, []).append(node.value.value)
    for dec in fn.decorator_list:
        if (isinstance(dec, ast.Call)
                and getattr(dec.func, "attr", None) == "parametrize"
                and isinstance(dec.args[1], (ast.List, ast.Tuple))):
            names = [n.strip() for n in dec.args[0].value.split(",")]
            for row in dec.args[1].elts:
                values = row.elts if isinstance(row, ast.Tuple) else [row]
                for name, v in zip(names, values):
                    if isinstance(v, ast.Constant):
                        bound.setdefault(name, []).append(v.value)
    return bound


def _match_patterns():
    """The match= patterns of every pytest.raises in tests/, constants or
    names bound in the enclosing test function; and the error lines the
    tests read from a command's stderr: the messages of test_cli's
    usage-error table, and each "error: ..." line of an input error."""
    patterns, unresolved, printed = set(), [], []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        printed += [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and str(node.value).startswith("error: ")]
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = _string_bindings(fn)
            if fn.name == "test_every_usage_error_is_named":
                printed += bound["message"]
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "pytest.raises"):
                    continue
                for kw in [k for k in node.keywords if k.arg == "match"]:
                    if isinstance(kw.value, ast.Constant):
                        patterns.add(kw.value.value)
                    elif getattr(kw.value, "id", None) in bound:
                        patterns.update(bound[kw.value.id])
                    else:
                        unresolved.append((path.name, node.lineno))
    return patterns, unresolved, printed


def _names(pattern: str, literal: str) -> bool:
    """The pattern lies inside the literal, or its text starts at a word of
    the literal and runs on past the placeholder (pytest checks the full
    message at run time)."""
    plain = re.sub(r"\\(\W)", r"\1", pattern)
    starts = [0] + [m.end() for m in re.finditer(" +", literal)]
    return bool(re.search(pattern, literal)) or any(
        literal[i:] and plain.startswith(literal[i:]) for i in starts)


def test_every_raise_is_matched_by_a_test():
    patterns, unresolved, printed = _match_patterns()
    assert unresolved == []
    unmatched, seen = [], set()
    for key, name, literal in _raises():
        seen.add(key)
        if name == "SystemExit" or (name == "Stop" and literal is None):
            continue  # an exit code, or -h: no message
        if key in RAISES_ALLOWED:
            continue
        # cli.run turns a Stop or a ValueError into exit 2 and an error line
        if literal is not None and (
                any(_names(p, literal) for p in patterns)
                or name in ("Stop", "ValueError")
                and any(literal in line for line in printed)):
            continue
        unmatched.append(key)
    assert unmatched == []
    # the allowlist names only raises that exist
    assert sorted(set(RAISES_ALLOWED) - seen) == []
