"""Benchmark of the curvehull command line, end to end and per layer.

    python3 perfbench/run.py --workload formula --seed 0 --seconds 40 --trace 0

Run from the root of a source tree: the package is imported from ./src.
One client in one process runs the workload's fixed op list (see
workloads.py) in passes, each op through `curvehull.cli.main(argv)`, until
the next op would overrun --seconds; every op's stdout is checked. The
load is closed loop: an op starts when the previous one has returned.

--trace 0 prints the end-to-end metrics. The headline op's median latency
is printed and recorded but not in BENCHMARK.json: on a shared 2-vCPU host
its spread over ten runs (27%) exceeded the largest bound a metric may have.

--trace 1 alternates untraced passes with passes in which spans.Tracer
times each wrapped function, and prints the per-layer metrics and the
tracing overhead. The last stdout line is one JSON object; a fuller record
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
# untimed first calls, so that one-off costs (lazy imports, first allocations)
# do not land on whichever timed op happens to run first
WARMUP = (("volume", "saddle", "--n", "256"), ("diagnose", "saddle", "--n", "256", "--probes", "2"))

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": ("s", "lower"),
    "goodput_ops_per_s": ("ops/s", "higher"),
    "pass_ratio": ("1", "higher"),
    "rel_err_max": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# name -> (unit, better); "calls" and "self_share" exist for every wrapped function
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in spans.LAYERS},
    **{f"{f}.{k}": (u, "lower") for f in spans.WRAPPED
       for k, u in (("calls", "count"), ("self_share", "1"))},
    "quadrature.hull_volume.pairs": ("count", "lower"),
    "quadrature.hull_volume.ns_per_pair": ("ns", "lower"),
    "quadrature.tetra_volume_matrix.cells": ("count", "lower"),
    "quadrature.estimate_covering_multiplicity.pairs_scanned": ("count", "lower"),
    "quadrature.estimate_covering_multiplicity.probes_per_s": ("1/s", "higher"),
    "quadrature.probe_yield": ("1", "higher"),
    "quadrature.chord_failures": ("count", "lower"),
    "hull.build_hull.points": ("count", "lower"),
    "hull.build_hull.facets": ("count", "lower"),
    "hull.build_hull.us_per_point": ("us", "lower"),
    "hull.signed_distance.plane_evals": ("count", "lower"),
    "curves.sample_uniform.points": ("count", "lower"),
    "cli.load_polyline.points": ("count", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}
# ROADMAP item 1 baselines: (function, n, seconds, what the number covers)
ROADMAP_BASELINES = (
    ("quadrature.hull_volume", 2000, 0.131, "_abs_double_sum alone; volume ops add the n/2 sum"),
    ("quadrature.hull_volume", 8000, 1.56, "_abs_double_sum alone; volume ops add the n/2 sum"),
    ("curves.sample_uniform", 200_000, 0.88, "oracle sampling"),
    ("hull.build_hull", 200_000, 7.3, "ConvexHull 4.9 s + _validate 2.4 s"),
    ("hull.mesh_volume", 200_000, 0.3, "oracle mesh volume"),
    ("quadrature.estimate_covering_multiplicity", 1000, 0.089, "one probe"),
)


def measure_setup(repeats: int) -> list:
    """Wall times of fresh interpreters that import the CLI and build its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import curvehull.cli as c; c.build_parser()"]
    times = []
    for i in range(repeats + 1):  # the first start writes bytecode caches: untimed
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_op(cli, argv) -> tuple:
    """(seconds, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception:  # an op that crashes is a failed op, not a failed run
        code = None
        out.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue()


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(cli, workload, first_stdout: dict, tracer=None, stop_at=None, last=None) -> list:
    """Run the ops in order; return per-op records with checked outcomes.

    With stop_at, the pass ends early before an op that took long enough
    last time (last: op name -> seconds) to end after stop_at.
    """
    records, stdout_of = [], {}
    for op in workload.ops:
        if stop_at is not None and time.perf_counter() + last.get(op.name, 0.0) > stop_at:
            break
        if tracer is not None:
            tracer.op = op.name
        seconds, code, stdout = run_op(cli, op.argv)
        outcome = workloads.check(op, code, stdout)
        # converge prints a wall-time column, so only the rest must repeat
        comparable = workloads.mask_converge_seconds(stdout) if op.kind == "converge" else stdout
        stdout_of[op.name] = comparable
        if first_stdout.setdefault(op.name, comparable) != comparable:
            outcome = workloads.Outcome("fail", "stdout differs from the first pass")
        if op.same_stdout_as and stdout_of[op.same_stdout_as] != comparable:
            outcome = workloads.Outcome("fail", f"stdout differs from {op.same_stdout_as!r}")
        records.append({"op": op.name, "seconds": seconds, "exit": code,
                        "status": outcome.status, "detail": outcome.detail,
                        "rel_errs": list(outcome.rel_errs), "probes": outcome.probes,
                        "maxrss_mb": maxrss_mb()})
    return records


def pass_seconds(records) -> float:
    return sum(r["seconds"] for r in records)


def layer_metrics(span_list, records) -> dict:
    """Per-layer metrics of one traced pass."""
    agg = spans.aggregate(span_list)
    wall = pass_seconds(records)

    def row(f):
        return agg.get(f, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})

    def counter(f, key):
        return row(f)["counters"].get(key, 0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {f"{layer}.self_s": sum(row(f)["self_s"] for f in spans.WRAPPED if f.startswith(layer + "."))
         for layer in spans.LAYERS}
    for f in spans.WRAPPED:
        m[f"{f}.calls"] = row(f)["calls"]
        m[f"{f}.self_share"] = row(f)["self_s"] / wall
    probes = [r["probes"] for r in records if r["probes"]]
    attempts = sum(p["evaluated"] + p["rejected_outside"] + p["rejected_near_boundary"]
                   for p in probes)
    hv, est = "quadrature.hull_volume", "quadrature.estimate_covering_multiplicity"
    m.update({
        f"{hv}.pairs": counter(hv, "pairs"),
        f"{hv}.ns_per_pair": per(row(hv)["self_s"] * 1e9, counter(hv, "pairs")),
        "quadrature.tetra_volume_matrix.cells": counter("quadrature.tetra_volume_matrix", "cells"),
        f"{est}.pairs_scanned": counter(est, "pairs_scanned"),
        f"{est}.probes_per_s": per(row(est)["calls"], row(est)["total_s"]),
        "quadrature.probe_yield": per(sum(p["evaluated"] for p in probes), attempts),
        "quadrature.chord_failures": sum(p["chord_failures"] for p in probes),
        "hull.build_hull.points": counter("hull.build_hull", "points"),
        "hull.build_hull.facets": counter("hull.build_hull", "facets"),
        "hull.build_hull.us_per_point": per(row("hull.build_hull")["total_s"] * 1e6,
                                            counter("hull.build_hull", "points")),
        "hull.signed_distance.plane_evals": counter("hull.signed_distance", "plane_evals"),
        "curves.sample_uniform.points": counter("curves.sample_uniform", "points"),
        "cli.load_polyline.points": counter("cli.load_polyline", "points"),
    })
    return m


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def layer_table(span_passes) -> list:
    """ROADMAP item 1 fields for each (layer, n): calls, median and IQR per call."""
    groups: dict = {}
    for span_list in span_passes:
        for s in span_list:
            groups.setdefault((s.name, s.n), []).append(s)
    table = []
    for (name, n), group in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        table.append({"layer": name, "n": n, "calls": len(group),
                      "total_s": quartiles([s.total_s for s in group]),
                      "self_s": quartiles([s.self_s for s in group])})
    return table


def reconciliation(table) -> list:
    rows = []
    for name, n, roadmap_s, covers in ROADMAP_BASELINES:
        for entry in table:
            if entry["layer"] == name and entry["n"] == n:
                measured = entry["total_s"]["median"]
                rows.append({"layer": name, "n": n, "roadmap_s": roadmap_s,
                             "measured_total_s": measured, "ratio": measured / roadmap_s,
                             "roadmap_covers": covers})
    return rows


def headline_shares(span_passes, records_passes, headline) -> dict:
    """Self time of each function inside the headline op, as a share of its wall time."""
    shares: dict = {}
    for span_list, records in zip(span_passes, records_passes):
        wall = next(r["seconds"] for r in records if r["op"] == headline)
        agg = spans.aggregate(span_list, op=headline)
        for f, row in agg.items():
            shares.setdefault(f, []).append(row["self_s"] / wall)
    medians = {f: statistics.median(v) for f, v in shares.items()}
    return dict(sorted(medians.items(), key=lambda kv: -kv[1]))


def span_cost_s(repeats: int = 5000) -> float:
    """Seconds one recorded span adds to a call, from a wrapped trivial function."""
    tracer = spans.Tracer()

    def f(x):
        return x

    wrapped = tracer.wrap("bench.f", f, lambda a, r: (None, {}))
    t0 = time.perf_counter()
    for i in range(repeats):
        f(i)
    t1 = time.perf_counter()
    for i in range(repeats):
        wrapped(i)
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / repeats


def openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run_record(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = (ROOT / ".git" / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    except OSError:  # not a git checkout, or the ref is packed
        commit = "unknown"
    try:
        threads = openblas_threads()
    except OSError:
        threads = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
        "openblas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def op_latencies(records_passes) -> dict:
    out: dict = {}
    for records in records_passes:
        for r in records:
            out.setdefault(r["op"], []).append(r["seconds"])
    return {op: {"samples": len(v), "median_s": statistics.median(v), "seconds": v}
            for op, v in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvehull" / "cli.py").is_file():
        print(f"error: no curvehull sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    sys.path.insert(0, str(SRC))
    import curvehull.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the tree under {SRC}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workload = workloads.build(args.workload, args.seed, RESULTS / f"{tag}-inputs")
    for argv_ in WARMUP:
        run_op(cli, argv_)

    tracer = spans.Tracer() if args.trace else None
    first_stdout: dict = {}
    last: dict = {}  # op name -> seconds it took last time
    passes, traced, span_passes = [], [], []
    stop_at = time.perf_counter() + args.seconds
    while True:
        traced_pass = bool(args.trace) and len(passes) % 2 == 1
        if traced_pass:
            tracer.spans = []
            tracer.install()
            try:
                records = run_pass(cli, workload, first_stdout, tracer)
            finally:
                tracer.uninstall()
            span_passes.append(tracer.spans)
        else:
            # after the first pass, a timed run stops before an op that would
            # overrun; trace runs compare whole passes, so they stop between them
            early = stop_at if passes and not args.trace else None
            records = run_pass(cli, workload, first_stdout, stop_at=early, last=last)
        if records:
            passes.append(records)
            traced.append(traced_pass)
        last.update((r["op"], r["seconds"]) for r in records)
        if args.trace:
            if span_passes and time.perf_counter() + pass_seconds(records) > stop_at:
                break
        elif len(records) < len(workload.ops):
            break

    every = [r for records in passes for r in records]
    attempted = len(every)
    count = {s: sum(r["status"] == s for r in every) for s in ("pass", "refused", "fail")}
    whole = len(workload.ops)
    plain = [p for p, t in zip(passes, traced) if not t and len(p) == whole]
    traced_records = [p for p, t in zip(passes, traced) if t]
    result: dict = {"run": run_record(args), "passes": len(passes),
                    "traced_passes": len(span_passes), "outcomes": count,
                    "failed_ratio": (count["fail"] + count["refused"]) / attempted,
                    "op_latencies": op_latencies(passes),
                    "ops": [{k: r[k] for k in ("op", "status", "detail")} for r in passes[0]],
                    "failures": [r for r in every if r["status"] == "fail"],
                    "maxrss_end_mb": maxrss_mb()}
    if args.trace:
        per_pass = [layer_metrics(s, r) for s, r in zip(span_passes, traced_records)]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in PER_LAYER
                   if k != "trace.overhead_ratio"}
        traced_s = statistics.median(pass_seconds(p) for p in traced_records)
        metrics["trace.overhead_ratio"] = traced_s / statistics.median(
            pass_seconds(p) for p in plain) - 1.0
        spans_per_pass = statistics.median(len(s) for s in span_passes)
        cost = span_cost_s()
        table = layer_table(span_passes)
        result.update({
            "trace_overhead": {"measured_ratio": metrics["trace.overhead_ratio"],
                               "spans_per_pass": spans_per_pass, "span_cost_s": cost,
                               "computed_ratio": cost * spans_per_pass / traced_s},
            "layers": table, "reconciliation": reconciliation(table),
            "headline_self_shares": headline_shares(span_passes, traced_records,
                                                    workload.headline)})
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        with open(RESULTS / f"{tag}-spans.json", "w") as fh:
            json.dump([[vars(s) for s in span_list] for span_list in span_passes], fh)
    else:
        passed = [r for r in every if r["status"] == "pass"]
        metrics = {
            "setup_s": statistics.median(setup),
            "goodput_ops_per_s": statistics.median(
                sum(r["status"] == "pass" for r in p) / pass_seconds(p) for p in plain),
            # whole passes only: the ops of a cut pass are not a sample of the list
            "pass_ratio": statistics.fmean(
                r["status"] == "pass" for p in plain for r in p),
            # 1.0 (the whole volume wrong) when no op printed a volume that passed
            "rel_err_max": max((e for r in passed for e in r["rel_errs"]), default=1.0),
            # peak up to the end of the first headline op: later ops of some
            # workloads leave it bimodal, as glibc reuses freed blocks differently
            "peak_rss_mb": next(r["maxrss_mb"] for r in passes[0]
                                if r["op"] == workload.headline),
        }
        units = {k: u for k, (u, _) in END_TO_END.items()}
        result["setup_s_samples"] = setup
        headline = [r["seconds"] for r in every if r["op"] == workload.headline]
        result["headline"] = {"op": workload.headline, "samples": len(headline),
                              "p50_s": statistics.median(headline)}
    result["metrics"] = metrics
    out_path = RESULTS / f"{tag}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(span_passes)} traced), {attempted} ops: {count['pass']} passed, "
          f"{count['refused']} refused by a documented defect, {count['fail']} failed")
    for r in result["failures"][:10]:
        print(f"  FAILED {r['op']}: {r['detail'][:300]}")
    if not args.trace:
        print(f"  failed_ratio {result['failed_ratio']:.6g} 1 (refused + failed over attempted)")
        head = result["headline"]
        print(f"  headline_p50_s {head['p50_s']:.6g} s ({head['samples']} samples of "
              f"{head['op']!r}; recorded, not gated: host noise exceeds any allowed bound)")
    for k, v in metrics.items():
        print(f"  {k} {v:.6g} {units[k]}")
    if args.trace:
        shares = ", ".join(f"{f} {v:.1%}" for f, v in list(result["headline_self_shares"].items())[:4])
        print(f"  headline {workload.headline!r} self shares: {shares}")
        over = result["trace_overhead"]
        print(f"  tracing overhead: measured {over['measured_ratio']:+.2%} (one traced against "
              f"one untraced pass, so mostly noise); computed {over['computed_ratio']:.3%} "
              f"({over['spans_per_pass']:g} spans per pass at {over['span_cost_s'] * 1e6:.2f} us)")
        for row in result["reconciliation"]:
            print(f"  roadmap {row['layer']} n={row['n']}: {row['roadmap_s']:g} s, "
                  f"measured {row['measured_total_s']:.4g} s ({row['roadmap_covers']})")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": count["fail"] == 0, "attempted": attempted, "failed": count["fail"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
