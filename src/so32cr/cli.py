"""Command-line front end: verification suites and exact computations.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error.
``--json PATH`` additionally writes the report (byte-identical across runs
with the same arguments).

Every command is one row of ``COMMANDS``: its words, its flags, the engine
function that fills its report and a line of help.  ``parse`` reads argv
straight from that table and ``-h`` is printed from it, so help loads no
engine module and a command imports only its runner's module.  A report is
named by the row's words followed by each flag with its parsed value.

The grammar is the usual one of Python command lines: ``--flag value`` or
``--flag=value``, flags in any order, the last of a repeated flag wins, a
unique prefix names a flag, ``--json`` comes before the command words, and
``-h`` prints the help of the level it is read at.  A word that starts with
"-" is a flag unless it is a negative number; after ``--z`` and ``--point``
any word but ``--`` is the value.
"""

from __future__ import annotations

import os
import sys
from itertools import islice
from typing import NamedTuple


class Command(NamedTuple):
    words: tuple   # argv words naming the command
    args: tuple    # (flag, type, choices, default); required if default is None
    runner: str    # "module.function" filling the report from the values
    help: str      # one line for -h


_ELL_K = (("--ell", int, None, None), ("--k", int, None, None))
_Z = (("--z", str, None, None),)

COMMANDS = (
    Command(("verify", "table1"), (), "so32.run_verify_table1",
            "110 fixture cells vs matrix commutators"),
    Command(("verify", "jacobi"), (), "so32.run_verify_jacobi",
            "bracket integrity and grading"),
    Command(("verify", "structeq"), (), "structeq.run_verify_structeq",
            "flat structure equations and d^2 = 0"),
    Command(("cohomology",), _ELL_K, "cochains.run_cohomology",
            "cohomology dimension of a slice"),
    Command(("hodge",), _ELL_K, "cochains.run_hodge",
            "Hodge decomposition checks of a slice"),
    Command(("prolong",),
            (("--step", str, ("0", "1", "2", "3", "all"), None),),
            "prolong.run_prolong", "prolongation step solver"),
    Command(("normalize",),
            (("--k", int, (1, 2, 3), None), ("--input", str, None, None)),
            "prolong.run_normalize", "normalize a c-torsion table"),
    Command(("model", "quadric"),
            (("--point", str, None, None),
             ("--chart", str, ("diag", "antidiag"), "diag")),
            "quadric.run_model_quadric",
            "ambient forms and orbit value at a projective point"),
    Command(("model", "embed"), _Z, "quadric.run_model_embed",
            "the embedding of a tube point into the quadric"),
    Command(("model", "levi"), _Z, "tube.run_model_levi",
            "Levi ranks and kernel at a cone point"),
    Command(("model", "cubic"), _Z, "tube.run_model_cubic",
            "the cubic form at a cone point"),
    Command(("model", "freeman"), _Z, "tube.run_model_freeman",
            "Freeman rank sequence at a cone point"),
    Command(("model", "identities"), (), "quadric.run_model_identities",
            "the polynomial identities of the embedding"),
    Command(("constraints",), (), "coframe.run_constraints",
            "structure-function constraint catalog"),
)

_BY_WORDS = {cmd.words: cmd for cmd in COMMANDS}
_GROUP_HELP = {"verify": "run a verification suite",
               "model": "flat-model computations"}
_DESCRIPTION = ("exact verification engine for the so(3,2) prolongation "
                "tower and the light-cone tube")
_HELP = ("-h", "--help")
# the top level's one flag; only a command's own flags can be required
_JSON = (("--json", str, None, None),)
# flags whose value is a signed rational list: written out in full, any next
# word is their value, also where the command has no such flag
_SIGNED_LISTS = ("--z", "--point")


def _is_flag(word: str) -> bool:
    """A word starting with "-" is a flag, unless it is "-" or a negative
    number (-5, -.5, -1.5)."""
    if len(word) < 2 or word[0] != "-":
        return False
    whole, dot, frac = word[1:].partition(".")
    if dot:
        return not (frac.isdecimal() and (not whole or whole.isdecimal()))
    return not whole.isdecimal()


def _next_words(words: tuple) -> dict:
    """{word: help} of the command words that may follow ``words``."""
    out = {}
    for cmd in COMMANDS:
        if cmd.words[:len(words)] == words and len(cmd.words) > len(words):
            word = cmd.words[len(words)]
            out.setdefault(word, cmd.help if len(cmd.words) == len(words) + 1
                           else _GROUP_HELP[word])
    return out


def _flags(words: tuple) -> tuple:
    """The flags read after ``words``: --json at the top, none in a group."""
    cmd = _BY_WORDS.get(words)
    return cmd.args if cmd else () if words else _JSON


def _metavar(flag, choices) -> str:
    return ("{" + ",".join(map(str, choices)) + "}" if choices
            else flag[2:].upper())


def _usage(words: tuple) -> str:
    if not words:
        return "usage: so32cr [-h] [--json PATH] COMMAND ..."
    parts = ["usage: so32cr", *words, "[-h]"]
    for flag, _, choices, default in _flags(words):
        part = f"{flag} {_metavar(flag, choices)}"
        parts.append(part if default is None else f"[{part}]")
    if words not in _BY_WORDS:
        parts.append("COMMAND ...")
    return " ".join(parts)


def _help(words: tuple) -> str:
    cmd = _BY_WORDS.get(words)
    options = [("-h, --help", "show this help and exit")]
    if not words:
        options.append(("--json PATH", "write the report as JSON"))
    for flag, kind, choices, default in _flags(words) if words else ():
        notes = ["an integer"] if kind is int else []
        if default is not None:
            notes.append(f"default: {default}")
        options.append((f"{flag} {_metavar(flag, choices)}", ", ".join(notes)))
    lines = [_usage(words), "", cmd.help if cmd else
             _GROUP_HELP[words[0]] if words else _DESCRIPTION]
    for title, rows in (("commands", list(_next_words(words).items())),
                        ("options", options)):
        if rows:
            width = max(len(left) for left, _ in rows)
            lines += ["", f"{title}:"] + [
                f"  {left:<{width}}  {text}".rstrip() for left, text in rows]
    return "\n".join(lines)


class Stop(Exception):
    """Ends ``parse`` at the level after ``words``: -h when there is no
    message (exit 0, the help goes to stdout), else a usage error (exit 2,
    the usage line and the message go to stderr)."""

    def __init__(self, words: tuple, message: str | None = None):
        if message is None:
            self.code, self.text = 0, _help(words)
        else:
            prog = " ".join(("so32cr",) + words)
            self.code, self.text = 2, f"{_usage(words)}\n{prog}: error: {message}"
        super().__init__(self.code, self.text)


def _resolve(words: tuple, name: str, names: tuple):
    """The flag of ``names`` that ``name`` spells or is a unique prefix of
    (long flags only); None for an unknown flag."""
    if name not in names and name.startswith("--"):
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise Stop(words, f"ambiguous option: {name} could match "
                       + ", ".join(hits))
        if hits:
            return hits[0]
    return name if name in names else None


def parse(argv) -> tuple:
    """(Command, its values in the order of its args, --json path or None)
    named by argv.  Raises ``Stop`` for -h and for a usage error.

    Words are read left to right: -h and every error in a value stop at
    once, while an unknown flag, a stray word, a missing flag or a bare
    ``--`` value is reported once the whole line is read."""
    words, flags, got, extras = (), _JSON, {}, []
    rest = iter(argv)
    for word in rest:
        if word == "--":
            raise Stop(words, "'--' is neither a flag nor a value here")
        if not _is_flag(word):
            if words in _BY_WORDS:
                extras.append(word)
                continue
            choices = _next_words(words)
            if word not in choices:
                raise Stop(words, f"invalid choice: {word!r} (choose from "
                           + ", ".join(choices) + ")")
            words += (word,)
            flags = _flags(words)
            continue
        name, eq, value = word.partition("=")
        flag = _resolve(words, name, _HELP + tuple(f[0] for f in flags))
        if flag is None:
            extras.append(word)
            if name in _SIGNED_LISTS and not eq:  # its value goes with it
                extras += islice(rest, 1)
            continue
        if flag in _HELP:
            if eq:
                raise Stop(words, "argument -h/--help: ignored explicit "
                           f"argument {value!r}")
            raise Stop(words)
        _, kind, choices, _ = next(f for f in flags if f[0] == flag)
        if not eq:
            value = next(rest, None)
            if (value is not None and name not in _SIGNED_LISTS
                    and _is_flag(value)):
                value = None
        if value is None:
            raise Stop(words, f"argument {flag}: expected one argument")
        if value == "--":  # no value: an error unless the flag comes again
            got[flag] = value
            continue
        try:
            value = kind(value)
        except ValueError:
            raise Stop(words, f"argument {flag}: invalid {kind.__name__} "
                       f"value: {value!r}") from None
        if choices and value not in choices:
            raise Stop(words, f"argument {flag}: invalid choice: {value!r} "
                       "(choose from " + ", ".join(map(str, choices)) + ")")
        got[flag] = value
    if words not in _BY_WORDS:
        raise Stop(words, "the following arguments are required: COMMAND")
    missing = [f for f, _, _, default in flags
               if default is None and f not in got]
    if missing:
        raise Stop(words, "the following arguments are required: "
                   + ", ".join(missing))
    if extras:
        raise Stop((), "unrecognized arguments: " + " ".join(extras))
    for flag, value in got.items():
        if value == "--":
            raise Stop(words, f"argument {flag}: expected one argument")
    cmd = _BY_WORDS[words]
    return (cmd, [got.get(f, default) for f, _, _, default in cmd.args],
            got.get("--json"))


def run(argv) -> tuple[int, Report | None]:
    try:
        cmd, values, json_path = parse(argv)
    except Stop as stop:
        print(stop.text, file=sys.stderr if stop.code else sys.stdout)
        return stop.code, None
    from .report import Report
    module, _, name = cmd.runner.partition(".")
    # __import__, unlike importlib.import_module, shows in -X importtime
    fill = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
    rep = Report(" ".join([*cmd.words, *(
        f"{flag} {value}" for (flag, *_), value in zip(cmd.args, values))]))
    try:
        if json_path == "":  # --json= names no file; refused before any work
            raise ValueError("--json needs a file path")
        fill(rep, *values)
        if json_path:
            with open(json_path, "w") as fh:
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
    raise SystemExit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
