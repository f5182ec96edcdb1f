#!/usr/bin/env python3
"""perfbench: soda's end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

    operator_analytics  layer-4 KMEANS / PAGERANK / NAIVE_BAYES_TRAIN
    iterate_analytics   layer-3 ITERATE and WITH RECURSIVE PageRank, Naive
                        Bayes as one SQL aggregation
    server_mixed        nproc loopback clients against soda::Server over a
                        durable engine: reads, INSERT batches, small KMEANS

The script builds the runner (perfbench/CMakeLists.txt, which compiles the
soda library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload with the
engine's worker pool at nproc threads and glibc malloc pinned to its
warmed-up thresholds (MALLOC_TUNABLES). The amount of work is a fixed
function of --seconds, never of how fast the statements run; the analytics
workloads split it over several runner processes (FORKS). Every answer is
checked.

--trace 0 prints the end-to-end metrics; --trace 1 runs the separate traced
pass that calls each layer's public function directly on the same statements
and data, writes its spans to .bench_out/, and prints the per-layer metrics.
The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("operator_analytics", "iterate_analytics", "server_mixed")
# Runs glibc malloc in its warmed-up state: large blocks come from the heap
# and freed memory is kept, as in a long-running server. Left adaptive, the
# mmap and trim thresholds flip per process between re-faulting fresh pages
# and reusing the heap, which made set-up times bimodal (7-34 ms on
# iterate_analytics).
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=1073741824:"
                   "glibc.malloc.trim_threshold=4294967296")
# Runner processes per untraced run, each doing an equal share of the work,
# as benchmark harnesses fork JVMs. Worker placement and memory layout are
# fixed per process and move PageRank (0.043-0.074 s) and set-up times by up
# to 1.7x between processes, so every run measures several (stats.end_to_end
# pools them).
# server_mixed stays in one process: its INSERT cost depends on how far its
# append table has grown.
FORKS = {"operator_analytics": 5, "iterate_analytics": 5, "server_mixed": 1}
# Wall-time budget of all runner processes of one run (after the build).
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(root):
    """Configures and builds the runner; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no soda source tree under {root}; run from the repository root")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_runner", "-j", str(nproc())],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_runner"


def run_runner(runner, root, args, seconds, deadline):
    tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    env = dict(os.environ, SODA_THREADS=str(nproc()),
               GLIBC_TUNABLES=MALLOC_TUNABLES)
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--tmp-dir", str(tmp), "--spans", str(spans)]
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUN_BUDGET_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def echo_inputs(rec):
    sizes = " ".join(f"{k}={v:g}" for k, v in sorted(rec["sizes"].items()))
    print(f"perfbench: workload={rec['workload']} seed={rec['seed']:g} {sizes}")


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def report_untraced(recs):
    metrics = stats.end_to_end(recs)
    rec = stats.pool(recs)
    n = sum(len(v) for v in rec["latency_ms"].values())
    for name, (value, unit) in metrics.items():
        samples = len(rec["setup_s"]) if name == "setup_s" else n
        print(f"  {name:<24} {fmt(value):>12} {unit:<6} (n={samples})")
    for name, value, unit, count in stats.class_details(rec):
        note = "" if value is not None else "  needs >= 10 samples beyond p90"
        print(f"  {name:<24} {fmt(value):>12} {unit:<6} (n={count}){note}")
    failed = rec["failed"] + rec["shed"] + rec["wrong"]
    ratio = stats.error_ratio(rec["attempted"], rec["failed"], rec["shed"],
                              rec["wrong"])
    print(f"  error_ratio              {ratio:>12.6g} ratio  "
          f"(failed={rec['failed']:g} shed={rec['shed']:g} "
          f"wrong={rec['wrong']:g} attempted={rec['attempted']:g})")
    correct = all(rec["checks"].values()) and rec["wrong"] == 0
    return correct, int(rec["attempted"]), int(failed), metrics


def report_traced(tr):
    metrics = stats.per_layer(tr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {fmt(value):>12} {unit}")
    samples = tr["samples"]
    for key in sorted(k for k in samples if k.startswith("core.execute_ms/")):
        cls = key.split("/", 1)[1]
        core = stats.median(samples[key])
        line = f"  core.execute_ms[{cls}]".ljust(36) + f" {fmt(core):>12} ms"
        client = samples.get(f"client_ms/{cls}")
        if client:
            line += f"   server.wire_ms[{cls}] {fmt(stats.median(client) - core)} ms"
        print(line)
    spans = json.loads(Path(tr["spans_file"]).read_text())
    top = sorted(stats.span_self_by_name(spans).items(), key=lambda kv: -kv[1])
    print(f"  spans: {len(spans)} in {tr['spans_file']}; self time by span:")
    for name, secs in top[:8]:
        print(f"    {name:<32} {secs:.6g} s")
    attempted = sum(len(v) for k, v in tr["samples"].items()
                    if k.startswith(("core.", "client_ms/", "staged")))
    failed = sum(1 for ok in tr["checks"].values() if not ok)
    return all(tr["checks"].values()), attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = Path.cwd()
    runner = build(root)
    forks = 1 if args.trace else FORKS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    recs = [run_runner(runner, root, args, args.seconds / forks, deadline)
            for _ in range(forks)]
    rec = stats.pool(recs)
    echo_inputs(rec)
    if rec.get("errors"):
        for e in rec["errors"]:
            print(f"  error: {e}")
    correct, attempted, failed, metrics = (
        report_traced(rec) if args.trace else report_untraced(recs))
    checks = " ".join(f"{k}={'ok' if v else 'FAILED'}"
                      for k, v in rec["checks"].items())
    print(f"  correctness: {'PASS' if correct else 'FAIL'} ({checks})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
