"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/child.py setup WORKLOAD
        Imports so32cr and fills the caches the workload's first op needs;
        prints {"seconds", "ref"} as JSON.

    python3 perfbench/child.py cli OUT_PATH ARGS...
    python3 perfbench/child.py cli-traced OUT_PATH ARGS...
        Imports ``so32cr.cli`` and runs it with ARGS, as ``python -m
        so32cr.cli ARGS`` does, and exits with the CLI's exit code.  Writes
        {"seconds", "ref"} to OUT_PATH, where seconds runs from before the
        import to the end of the command.  ``cli-traced`` runs the command
        under the span recorder and adds the recorder's summary and the
        import time.

"ref" is the reference timing (``reference.py``) taken in this process just
before the measurement.  so32cr must be on PYTHONPATH, as the runner sets it.
"""

from __future__ import annotations

import json
import sys
import time

import reference


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        import workloads
        ref = reference.time_reference(3)
        t0 = time.perf_counter()
        workloads.setup(argv[1])
        print(json.dumps({"seconds": time.perf_counter() - t0, "ref": ref}))
        return 0
    if argv[:1] in (["cli"], ["cli-traced"]) and len(argv) >= 2:
        traced = argv[0] == "cli-traced"
        if traced:
            import tracing
        ref = reference.time_reference(3)
        t0 = time.perf_counter()
        if traced:
            import_s = tracing.import_package()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                code, _ = sys.modules["so32cr.cli"].run(argv[2:])
            finally:
                tracer.uninstall()
            out = tracer.summary()
            out["import_s"] = import_s
        else:
            import so32cr.cli
            code, _ = so32cr.cli.run(argv[2:])
            out = {}
        out.update(seconds=time.perf_counter() - t0, ref=ref)
        with open(argv[1], "w") as fh:
            json.dump(out, fh)
        return code
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
