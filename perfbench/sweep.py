"""Repeat the benchmark over seeds and summarise, as a steadiness check.

    python3 perfbench/sweep.py --seeds 1-10 [--trace-seed N]
                               [--against FILE] [--out FILE]

Run it from the root of a checkout.  For each workload of BENCHMARK.json it
runs ``run.py --trace 0`` once per seed with ``run_seconds`` from
BENCHMARK.json and reports, per end-to-end metric, the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median.  A spread above a third of the metric's bound is flagged.
The timing metrics are summarised a second time from the unscaled times that
``run.py`` prints (``raw`` in the summary), so that the effect of the
reference scaling can be checked.

--trace-seed runs ``run.py --trace 1`` twice with that seed and checks that
every count (``*.calls``, ``linalg.rref.cells``, ``*.cache_hit_ratio``)
repeats exactly.  --against compares the medians with those of an earlier
summary and flags any metric more than its bound away.  --out writes the
summary, with the Python version and CPU count, as JSON.

Exit status 1 if any run failed, or a count did not repeat, or a comparison
fell outside a bound; flagged spreads alone do not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import RAW_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    """``A-B``: the seeds A to B, both included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result["wall_s"] = wall
    result["raw"] = next((json.loads(line[len(RAW_PREFIX):]) for line in lines
                          if line.startswith(RAW_PREFIX)), {})
    return result


def spread_stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def is_count(name):
    return name.endswith((".calls", ".cells", ".cache_hit_ratio"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="a range, e.g. 1-10")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--against")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    earlier = (json.loads(Path(args.against).read_text())["workloads"]
               if args.against else {})
    ok = True
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "wall_s": [r["wall_s"] for r in runs], "end_to_end": {},
                 "raw": {}}
        print(f"{workload}: {len(runs)} runs, longest "
              f"{max(entry['wall_s']):.1f} s, mean "
              f"{statistics.mean(entry['wall_s']):.1f} s of wall time")
        for name, bound in bounds.items():
            stats = spread_stats([r["metrics"][name]["value"] for r in runs])
            med, spread = stats["median"], stats["spread"]
            flag = "" if spread < bound / 3 else "  SPREAD ABOVE BOUND/3"
            line = (f"{workload:17s} {name:14s} median {med:10.4f}  "
                    f"Q1 {stats['q1']:10.4f}  Q3 {stats['q3']:10.4f}  "
                    f"spread {spread:7.2%} (bound {bound:.0%}){flag}")
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before is not None:
                shift = med / before["median"] - 1
                line += f"  vs earlier {shift:+.2%}"
                if abs(shift) > bound:
                    line += "  OUTSIDE BOUND"
                    ok = False
            if all(name in r["raw"] for r in runs):
                raw = spread_stats([r["raw"][name] for r in runs])
                entry["raw"][name] = raw
                line += (f"  unscaled median {raw['median']:.4f} "
                         f"spread {raw['spread']:.2%}")
            print(line, flush=True)
            entry["end_to_end"][name] = stats
        if args.trace_seed is not None:
            first, second = (run_once(workload, args.trace_seed,
                                      bench["run_seconds"], 1)["metrics"]
                             for _ in range(2))
            differ = [n for n in first if is_count(n)
                      and first[n]["value"] != second[n]["value"]]
            if differ:
                print(f"{workload}: counts differ between two traced runs: "
                      + ", ".join(differ))
                ok = False
            else:
                print(f"{workload}: traced counts repeat exactly "
                      f"(seed {args.trace_seed})")
            entry["per_layer"] = {n: m["value"] for n, m in first.items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
