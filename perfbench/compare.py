#!/usr/bin/env python3
"""Compares two perfbench result sets, or summarizes one.

A result set is a directory of saved run.py outputs, one file per run
(any name; the workload and seed are read from the output itself):

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR          # steadiness summary

With two sets it prints one row per workload and end-to-end metric: each
side's median and quartiles, the share of pairs the change wins (pairs are
matched by seed, so run the two sides alternately on the same seeds), and a
verdict of improved, regressed, unchanged or unresolved (stats.verdict).
With one set it prints each metric's median, quartiles and spread (the
inter-quartile distance as a share of the median) against its bound.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from every run output in `directory`."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        header = next((l for l in lines if l.startswith("perfbench: workload=")), None)
        if header is None or not lines[-1].startswith("{"):
            continue
        fields = dict(kv.split("=", 1) for kv in header.split()[1:] if "=" in kv)
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(fields["workload"], {})[fields["seed"]] = values
    return runs


def series(runs, workload, metric, seeds):
    return [runs[workload][s][metric] for s in seeds if metric in runs[workload][s]]


def summarize(runs, spec):
    print(f"{'workload':<20} {'metric':<18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in sorted(runs):
        seeds = sorted(runs[workload])
        for metric, m in spec.items():
            xs = series(runs, workload, metric, seeds)
            if len(xs) < 2:
                continue
            q1, q2, q3 = stats.quartiles(xs)
            print(f"{workload:<20} {metric:<18} {len(xs):>3} {q2:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {stats.spread(xs):>8.4f} "
                  f"{m['bound']:>6}")


def compare(parent, change, spec):
    print(f"{'workload':<20} {'metric':<18} {'pairs':>5} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>5}  verdict")
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        for metric, m in spec.items():
            p = series(parent, workload, metric, seeds) if seeds else []
            c = series(change, workload, metric, seeds) if seeds else []
            if not p or not c:
                print(f"{workload:<20} {metric:<18} {0:>5}  no paired runs")
                continue

            def cell(xs):
                q1, q2, q3 = stats.quartiles(xs)
                return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"

            wins = stats.win_fraction(p, c, m["better"])
            print(f"{workload:<20} {metric:<18} {len(p):>5} {cell(p):>34} "
                  f"{cell(c):>34} {wins:>5.2f}  "
                  f"{stats.verdict(p, c, m['better'], m['bound'])}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = load_spec()
    sets = [load_runs(d) for d in sys.argv[1:]]
    if len(sets) == 1:
        summarize(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    main()
