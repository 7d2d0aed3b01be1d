"""so32cr benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the so32cr sources under
``src/`` and writes only inside the checkout.  Workloads are described in
``workloads.py`` and ``perfbench/README.md``.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of several fresh processes), verified ops per second of timed op
time, op latency p50/p90, the verified fraction of ops, and peak RSS.  Op
and set-up times are reported at reference speed (see ``reference.py``).

--trace 1 runs a fixed, seed-determined list of ops under the span recorder
(``tracing.py``) and reports the per-layer metrics, then runs the same ops
untraced to give the tracing overhead.  Its counts repeat exactly for a seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every op
verified, 1 when an op failed (the result is still printed), 2 when the
checkout has no so32cr sources or the arguments are invalid (nothing is
printed).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads
from reference import REF_SECONDS, scaled, time_reference
from workloads import ROOT, SRC

MIN_OPS = 100          # so that ten or more ops lie beyond the 90th percentile
CLI_MIN_SWEEPS = 8     # 8 x 14 = 112 ops
SETUP_REPEATS = 16     # fresh set-up processes per run
RAW_PREFIX = "unscaled times: "
TRACE_BATCHES = {"normalize-stream": 300, "tube-points": 12}  # cli-sweep: 1

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("verified_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("scalars.gq_mul.calls", "count"),
    ("scalars.gq_add.calls", "count"),
    ("scalars.gq_inverse.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.kernel.self_s", "s"),
    ("linalg.Subspace.self_s", "s"),
    ("linalg.Subspace.contains.self_s", "s"),
    ("linalg.Matrix.arith.self_s", "s"),
    ("so32.structure_constants.self_s", "s"),
    ("so32.bracket_coords.calls", "count"),
    ("so32.bracket_coords.self_s", "s"),
    ("carriers.gl_filtered.self_s", "s"),
    ("carriers.gl_graded.self_s", "s"),
    ("carriers.cache_hit_ratio", "ratio"),
    ("cochains.coboundary_matrix.self_s", "s"),
    ("cochains.codifferential_matrix.self_s", "s"),
    ("cochains.kostant_pieces.self_s", "s"),
    ("cochains.coboundary.calls", "count"),
    ("cochains.coboundary.self_s", "s"),
    ("cochains.cache_hit_ratio", "ratio"),
    ("prolong.normalize_ctorsion.calls", "count"),
    ("prolong.normalize_ctorsion.self_s", "s"),
    ("prolong.normalization_space.self_s", "s"),
    ("prolong.gauge_image.self_s", "s"),
    ("prolong.cochain_of_endo.self_s", "s"),
    ("prolong.prolong_step.self_s", "s"),
    ("prolong.cache_hit_ratio", "ratio"),
    ("tube.levi_form_at.calls", "count"),
    ("tube.levi_form_at.self_s", "s"),
    ("tube.cubic_form_at.self_s", "s"),
    ("tube.freeman_ranks_at.self_s", "s"),
    ("tube.Field.bracket.calls", "count"),
    ("tube.Field.bracket.self_s", "s"),
    ("tube.Poly.eval.self_s", "s"),
    ("coframe.constraint_catalog.self_s", "s"),
    ("coframe.verify_structure_equations.self_s", "s"),
    ("coframe.d_squared_report.self_s", "s"),
    ("report.Report.to_json.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
)


# ---------------------------------------------------------------------------
# timing loop
# ---------------------------------------------------------------------------

class Tally:
    """Op times, each with a reference timing taken next to it, and the
    number of ops that failed."""

    def __init__(self):
        self.raw = []      # seconds as measured
        self.refs = []     # reference_work() seconds next to each op
        self.failed = 0

    def record(self, seconds, ref, ok):
        self.raw.append(seconds)
        self.refs.append(ref)
        self.failed += not ok

    def run(self, thunk, check, tracer=None):
        """Time thunk() in this process (with the tracer's wrappers in place,
        if given), then check its result outside the timed window."""
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception:  # an op that raises is a failed op, never dropped
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            traceback.print_exc()
            ok = False
        else:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            try:
                ok = bool(check(result))
            except Exception:
                traceback.print_exc()
                ok = False
        self.record(seconds, time_reference(), ok)

    @property
    def attempted(self):
        return len(self.raw)

    def latencies(self, raw=False):
        return self.raw if raw else scaled(self.raw, self.refs)

    def ops_per_s(self, raw=False):
        return (self.attempted - self.failed) / sum(self.latencies(raw))

    def percentile_ms(self, q, raw=False):
        """Nearest-rank percentile of the op latencies, in ms."""
        lat = sorted(self.latencies(raw))
        rank = max(1, -(-q * len(lat) // 100))
        return 1e3 * lat[int(rank) - 1]

    def speed_factor(self):
        return statistics.median(self.refs) / REF_SECONDS


def run_batches(batches, seconds, min_ops, tally):
    """Run batches of ops until ``seconds`` have passed and at least
    ``min_ops`` ops were timed; a batch is never cut short.  An op is a
    callable that records itself in the tally."""
    start = time.perf_counter()
    for batch in batches:
        for op in batch:
            op(tally)
        if (tally.attempted >= min_ops
                and time.perf_counter() - start >= seconds):
            return


# ---------------------------------------------------------------------------
# workloads as batches of ops
# ---------------------------------------------------------------------------

def run_cli_op(tally, name, args, tmp: Path, traced=False):
    """One CLI command in a fresh child, which times it next to its own
    reference timing; returns the child's record (None if it has none)."""
    record_path, json_path = tmp / "op.json", tmp / "report.json"
    for path in (record_path, json_path):
        path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(workloads.CHILD),
         "cli-traced" if traced else "cli", str(record_path),
         "--json", str(json_path)] + args,
        cwd=ROOT, env=workloads.child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    ok = workloads.cli_check(name, proc, json_path)
    if not record_path.exists():
        tally.record(wall, time_reference(), False)
        return None
    record = json.loads(record_path.read_text())
    tally.record(record["seconds"], record["ref"], ok)
    return record if ok else None


def cli_batches(rng, tmp: Path):
    """Endless sweeps of the CLI catalogue, each in a seeded order."""
    while True:
        yield [lambda tally, n=name, a=args: run_cli_op(tally, n, a, tmp)
               for name, args in workloads.cli_sweep_order(rng)]


def warm_batches(workload, rng, tracer=None):
    while True:
        if workload == "normalize-stream":
            ops = [workloads.normalize_op(rng)]
        else:
            ops = workloads.tube_batch(rng)
        yield [lambda tally, t=thunk, c=check: tally.run(t, c, tracer)
               for thunk, check in ops]


def setup_times(workload, tmp: Path, repeats):
    """Set-up seconds as measured, each in a fresh child, and the child's own
    reference timing next to each.  The cli-sweep's set-up is
    ``so32cr.cli -h``, which is import only."""
    times, refs = [], []
    for _ in range(repeats):
        if workload == "cli-sweep":
            record_path = tmp / "setup.json"
            proc = subprocess.run(
                [sys.executable, str(workloads.CHILD), "cli",
                 str(record_path), "-h"],
                cwd=ROOT, env=workloads.child_env(),
                stdout=subprocess.DEVNULL)
            record = (json.loads(record_path.read_text())
                      if proc.returncode == 0 else None)
        else:
            proc = subprocess.run(
                [sys.executable, str(workloads.CHILD), "setup", workload],
                cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE)
            record = (json.loads(proc.stdout.decode().splitlines()[-1])
                      if proc.returncode == 0 else None)
        if record is None:
            raise RuntimeError(f"set-up probe for {workload} exited "
                               f"{proc.returncode}")
        times.append(record["seconds"])
        refs.append(record["ref"])
    return times, refs


def peak_rss_mb(workload):
    who = (resource.RUSAGE_CHILDREN if workload == "cli-sweep"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def measure_end_to_end(workload, seed, seconds, tmp):
    # half the set-up probes before the ops and half after, so that the
    # set-up median spans the run rather than one moment of it
    setup_raw, setup_refs = setup_times(workload, tmp, SETUP_REPEATS // 2)
    rng = random.Random(seed)
    tally = Tally()
    if workload == "cli-sweep":
        run_batches(cli_batches(rng, tmp), seconds,
                    CLI_MIN_SWEEPS * len(workloads.CLI_COMMANDS), tally)
    else:
        workloads.setup(workload)
        run_batches(warm_batches(workload, rng), seconds, MIN_OPS, tally)
    later_raw, later_refs = setup_times(workload, tmp, SETUP_REPEATS // 2)
    setup_raw += later_raw
    setup_refs += later_refs
    values = {
        "setup_s": statistics.median(scaled(setup_raw, setup_refs)),
        "ops_per_s": tally.ops_per_s(),
        "op_p50_ms": tally.percentile_ms(50),
        "op_p90_ms": tally.percentile_ms(90),
        "verified_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    beyond = sum(1e3 * x > values["op_p90_ms"] for x in tally.latencies())
    print(f"{workload}: {tally.attempted} ops, {tally.failed} failed, "
          f"{beyond} beyond p90, setup median of {SETUP_REPEATS}; times at "
          f"reference speed (measured reference: "
          f"{tally.speed_factor():.2f} x {REF_SECONDS * 1e3:g} ms)")
    # the same timings as measured, before scaling, for sweep.py
    print(RAW_PREFIX + json.dumps({
        "setup_s": statistics.median(setup_raw),
        "ops_per_s": tally.ops_per_s(raw=True),
        "op_p50_ms": tally.percentile_ms(50, raw=True),
        "op_p90_ms": tally.percentile_ms(90, raw=True),
    }))
    return tally, values, dict(END_TO_END)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_cli_sweep(seed, tmp):
    """One sweep with every command in a traced child, then the same sweep
    untraced; returns (traced tally, merged summary, untraced tally)."""
    order = workloads.cli_sweep_order(random.Random(seed))
    tally, summaries, import_times = Tally(), [], []
    for name, args in order:
        record = run_cli_op(tally, name, args, tmp, traced=True)
        if record is not None:
            import_times.append(record.pop("import_s"))
            summaries.append(record)
    untraced = Tally()
    for name, args in order:
        run_cli_op(untraced, name, args, tmp)
    summary = tracing.merge(summaries)
    summary["import_s"] = (statistics.median(import_times)
                           if import_times else 0.0)
    return tally, summary, untraced


def traced_warm(workload, seed):
    """Set-up and a fixed op list traced; the same ops untraced before the
    traced pass, so both passes start from the same warm caches."""
    import_s = tracing.import_package()
    tracer = tracing.Tracer()
    tracer.install()
    workloads.setup(workload)
    tracer.uninstall()
    untraced, tally = Tally(), Tally()
    for t, tr in ((untraced, None), (tally, tracer)):
        batches = warm_batches(workload, random.Random(seed), tr)
        for _ in range(TRACE_BATCHES[workload]):
            for op in next(batches):
                op(t)
    summary = tracer.summary()
    summary["import_s"] = import_s
    return tally, summary, untraced


def layer_value(name, summary):
    spans, counts, cache = summary["spans"], summary["counts"], summary["cache"]
    if name == "linalg.rref.cells":
        return summary["rref_cells"]
    if name == "cli.import_s":
        return summary["import_s"]
    if name.endswith(".cache_hit_ratio"):
        hits, lookups = cache.get(name.split(".")[0], (0, 0))
        return hits / lookups if lookups else 0.0
    base, stat = name.rsplit(".", 1)
    if stat == "calls" and base in counts:
        return counts[base]
    calls, self_s = spans.get(base, (0, 0.0))
    return calls if stat == "calls" else self_s


def measure_traced(workload, seed, tmp):
    if workload == "cli-sweep":
        tally, summary, untraced = traced_cli_sweep(seed, tmp)
    else:
        tally, summary, untraced = traced_warm(workload, seed)
    values = {name: layer_value(name, summary) for name, _ in PER_LAYER
              if not name.startswith("trace.")}
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    values["trace.traced_ops_per_s"] = tally.ops_per_s()
    values["trace.overhead_ops_per_s"] = (values["trace.untraced_ops_per_s"]
                                          - values["trace.traced_ops_per_s"])
    print(f"{workload} traced: {tally.attempted} ops, {tally.failed} failed "
          f"(untraced rerun: {untraced.failed} failed)")
    idle = [n for n, v in values.items()
            if v == 0 and not n.endswith(".cache_hit_ratio")]
    if idle:
        print("not reached by this workload (reported as 0): "
              + ", ".join(idle))
    no_lookups = [f"{m}.cache_hit_ratio" for m in tracing.CACHED_MODULES
                  if not summary["cache"].get(m, (0, 0))[1]]
    if no_lookups:
        print("no cache lookups in this workload (reported as 0): "
              + ", ".join(no_lookups))
    tally.failed += untraced.failed
    return tally, values, dict(PER_LAYER)


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "so32cr" / "__init__.py").is_file():
        sys.stderr.write(f"error: no so32cr sources under {SRC}; run from "
                         "the root of a so32cr checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        if args.trace:
            tally, values, units = measure_traced(args.workload, args.seed, tmp)
        else:
            tally, values, units = measure_end_to_end(
                args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
