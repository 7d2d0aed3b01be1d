"""Every function the benchmark's span recorder wraps must exist, so that a
rename inside so32cr fails here and not only in a traced benchmark run."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # executed from its source text, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracing = _tracing_module()
    entries = tracing.SPANS + tracing.COUNTERS
    assert entries
    for module_name, dotted, _ in entries:
        obj = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{module_name}.{dotted}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{dotted}"
