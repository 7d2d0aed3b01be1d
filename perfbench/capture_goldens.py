"""Write the cli-sweep goldens: the --json report of every catalogue command.

    python3 perfbench/capture_goldens.py

Run it from the root of a checkout only when a report change is intended;
the benchmark compares every cli-sweep op against these files byte for byte.
"""

from __future__ import annotations

import subprocess
import sys

import workloads


def main():
    for name, args in workloads.CLI_COMMANDS:
        path = workloads.GOLDENS / f"{name}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "so32cr.cli", "--json", str(path)] + args,
            cwd=workloads.ROOT, env=workloads.child_env(),
            stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.stderr.write(f"{name}: exit {proc.returncode}\n")
            return 1
        print(f"wrote {path.relative_to(workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
