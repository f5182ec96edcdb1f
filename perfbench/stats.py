"""Arithmetic of the perfbench benchmark.

Everything the benchmark reports is computed here from the raw samples the
runner prints, so the rules can be tested on their own
(perfbench/tests/test_stats.py):

- medians, quartiles and the tail-percentile rule (a percentile is only
  reported when at least ten samples lie beyond it);
- operator self time from the inclusive per-operator times of a pipeline;
- span self time (duration minus the part of it covered by child spans);
- the storage.append_growth ratio and the error ratio;
- pooling the records of a run's runner processes (forks), and the
  end-to-end and per-layer metrics of one run;
- the win fraction and verdict rule used by compare.py.
"""

import math
import statistics

TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def tail_percentile(xs, min_beyond=TAIL_MIN_BEYOND, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it, as (p, value); None when even the lowest has too few."""
    n = len(xs)
    for p in candidates:
        if n * (1.0 - p / 100.0) >= min_beyond - 1e-9:
            return p, percentile(xs, p)
    return None


def geomean(values):
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --- operator and span self time ---------------------------------------------

def chain_self_nanos(chain):
    """Self time of each operator of one pipeline, as (name, nanos).

    `chain` is the runner's list of (role, name, inclusive nanos). A
    transform's time includes the downstream transforms it pushed into, so
    its self time is its time minus the next transform's. The last
    transform's time also holds the sink's per-chunk Consume, which the
    engine does not time apart from the sink's Finalize (both are in the
    sink's own time); it is left in, so that Consume time counts twice, once
    in the last transform and once in the sink. Sources, sinks, prepare
    steps and whole-relation operators are already exclusive.
    """
    out = []
    for i, (role, name, nanos) in enumerate(chain):
        own = nanos
        if role == "transform":
            nxt = next((c for c in chain[i + 1:] if c[0] == "transform"), None)
            if nxt is not None:
                own = nanos - nxt[2]
        out.append((name, own))
    return out


OPERATOR_KINDS = (
    ("iterate", ("Iterate", "RecursiveCte")),
    ("table_function", ("TableFunction",)),
    ("join_build", ("HashBuild",)),
    ("join_probe", ("HashJoinProbe",)),
    ("aggregate", ("Aggregate",)),
    ("scan", ("Scan",)),
    ("filter_project", ("Filter", "Project")),
    ("sort_limit", ("Sort", "Limit", "TopN")),
)
OTHER_KIND = "other"


def operator_kind(name):
    head = name.split(" ", 1)[0].split("[", 1)[0]
    for kind, prefixes in OPERATOR_KINDS:
        if head in prefixes:
            return kind
    if head.startswith("P") and head[1:].isdigit():
        return "scan"  # a pipeline reading an earlier pipeline's result
    return OTHER_KIND


def self_seconds_by_kind(chains_by_class):
    """Self time in seconds per operator kind, summed over every pipeline of
    one execution of each statement class."""
    totals = {kind: 0.0 for kind, _ in OPERATOR_KINDS}
    totals[OTHER_KIND] = 0.0
    for pipelines in chains_by_class.values():
        for chain in pipelines:
            for name, nanos in chain_self_nanos(chain):
                totals[operator_kind(name)] += nanos / 1e9
    return totals


def span_self_nanos(spans):
    """Self time per span id: its duration minus the union of its children's
    intervals (clipped to the span)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(lo, c["start_ns"]), min(hi, c["end_ns"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def span_self_by_name(spans):
    """Total self time in seconds per span name."""
    own = span_self_nanos(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]] / 1e9
    return totals


# --- ratios ----------------------------------------------------------------------

def append_growth(write_ms_in_order):
    """Median write latency in the last tenth of the run over the median in
    the first tenth (writes in the order they were sent); 0 when there are no writes."""
    n = len(write_ms_in_order)
    if n == 0:
        return 0.0
    tenth = max(1, n // 10)
    first = median(write_ms_in_order[:tenth])
    last = median(write_ms_in_order[-tenth:])
    return last / first if first > 0 else 0.0


def error_ratio(attempted, failed=0, shed=0, wrong=0):
    """(failed + shed + wrong answers) / attempted."""
    if attempted <= 0:
        return 1.0
    return (failed + shed + wrong) / attempted


def ratio(num, den):
    return num / den if den else 0.0


# --- metrics of one run ----------------------------------------------------------

def pool(recs):
    """One record from the records of a run's forks: samples concatenated,
    counts summed, checks and-ed; sizes are the first fork's, with the
    rounds summed and the number of forks added."""
    out = dict(recs[0])
    out["sizes"] = dict(recs[0]["sizes"], forks=len(recs))
    if "rounds" in out["sizes"]:
        out["sizes"]["rounds"] = sum(r["sizes"]["rounds"] for r in recs)
    out["checks"] = {k: all(r["checks"].get(k, False) for r in recs)
                     for k in recs[0]["checks"]}
    out["errors"] = [e for r in recs for e in r["errors"]]
    for key in ("attempted", "failed", "shed", "wrong"):
        if key in out:
            out[key] = sum(r[key] for r in recs)
    if "latency_ms" in out:
        out["setup_s"] = [x for r in recs for x in r["setup_s"]]
        out["latency_ms"] = {}
        for r in recs:
            for cls, xs in r["latency_ms"].items():
                out["latency_ms"].setdefault(cls, []).extend(xs)
    return out


def end_to_end(recs):
    """The benchmark's end-to-end metrics from the untraced runner records of
    one run, one per fork. setup_s is the median of all the run's set-ups; a
    statement time is the mean over the forks of each fork's median, so that
    it averages over per-process states (PageRank runs in one of two speeds
    per process); throughput is all completed statements over all timed wall
    time; peak RSS is the largest."""
    def class_time(cls):
        return statistics.fmean(median(r["latency_ms"][cls]) for r in recs
                                if r["latency_ms"].get(cls))

    classes = sorted({c for r in recs for c, xs in r["latency_ms"].items() if xs})
    completed = sum(len(xs) for r in recs for xs in r["latency_ms"].values())
    return {
        "setup_s": (median([x for r in recs for x in r["setup_s"]]), "s"),
        "stmts_per_s": (ratio(completed, sum(r["wall_s"] for r in recs)), "1/s"),
        "class_median_ms": (geomean(class_time(c) for c in classes), "ms"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in recs) / 1024.0, "MB"),
    }


def class_details(rec):
    """Per statement class: median and tail, each with its sample count, in
    the unit the class is read in (s for analytics, ms for the server)."""
    rows = []
    in_seconds = rec["workload"] != "server_mixed"
    for cls in sorted(rec["latency_ms"]):
        xs = rec["latency_ms"][cls]
        if not xs:
            continue
        scale, unit = (1e-3, "s") if in_seconds else (1.0, "ms")
        rows.append((f"{cls}_{unit}", median(xs) * scale, unit, len(xs)))
        tail = tail_percentile(xs)
        name = f"{cls}_p{{}}_{unit}"
        if tail is None:
            rows.append((name.format(90), None, unit, len(xs)))
        else:
            p, v = tail
            rows.append((name.format(f"{p:g}".replace(".", "_")), v * scale,
                         unit, len(xs)))
    return rows


def _med(samples, key):
    xs = samples.get(key)
    return median(xs) if xs else 0.0


def per_layer(tr):
    """The benchmark's per-layer metrics from one traced runner record."""
    s, c = tr["samples"], tr["counters"]
    classes = sorted(k.split("/", 1)[1] for k in s
                     if k.startswith("staged_traced_ms/"))

    def by_class(metric):
        return geomean(_med(s, f"{metric}/{cls}") for cls in classes)

    def count(metric):
        return sum(c.get(f"{metric}/{cls}", 0) for cls in classes)

    m = {}
    for metric in ("sql.parse_ms", "sql.bind_ms", "sql.optimize_ms",
                   "exec.lower_ms", "exec.verify_ms", "exec.execute_ms"):
        m[metric] = (by_class(metric), "ms")
    kinds = self_seconds_by_kind(tr["chains"])
    for kind, secs in kinds.items():
        m[f"exec.self_s.{kind}"] = (secs, "s")
    iterations = count("exec.iterations")
    m["exec.iterations"] = (iterations, "count")
    loop_s = kinds["iterate"] + kinds["table_function"]
    m["exec.iteration_ms"] = (ratio(loop_s * 1e3, iterations), "ms")
    m["exec.materialized_tuples"] = (count("exec.materialized_tuples"), "count")
    m["exec.peak_bound_tuples"] = (
        max([c.get(f"exec.peak_bound_tuples/{cls}", 0) for cls in classes] or [0]),
        "count")
    m["exec.recycled_joins"] = (count("exec.recycled_joins"), "count")
    m["exec.iterate_vs_operator"] = (
        ratio(_med(s, "core.execute_ms/pagerank") / 1e3,
              _med(s, "core.pagerank_operator_s")), "ratio")
    m["core.execute_ms"] = (by_class("core.execute_ms"), "ms")
    m["core.plan_cache_hit_ratio"] = (ratio(
        c.get("status.plan_cache_hits", 0),
        c.get("status.plan_cache_hits", 0) + c.get("status.plan_cache_misses", 0)),
        "ratio")
    m["core.ht_recycle_hit_ratio"] = (ratio(
        c.get("status.ht_cache_hits", 0),
        c.get("status.ht_cache_hits", 0) + c.get("status.ht_cache_misses", 0)),
        "ratio")
    for algo in ("kmeans", "pagerank", "nb"):
        m[f"analytics.{algo}_s"] = (_med(s, f"analytics.{algo}_s"), "s")
    m["analytics.kmeans_gb_per_s"] = (
        ratio(c.get("kmeans_bytes", 0) / 1e9, _med(s, "analytics.kmeans_s")), "GB/s")
    m["analytics.pagerank_edges_per_s"] = (
        ratio(c.get("pagerank_edge_visits", 0), _med(s, "analytics.pagerank_s")),
        "1/s")
    for algo in ("kmeans", "pagerank", "nb"):
        m[f"util.{algo}_speedup"] = (ratio(_med(s, f"analytics.{algo}_serial_s"),
                                           _med(s, f"analytics.{algo}_s")), "ratio")
    m["graph.csr_build_s"] = (_med(s, "graph.csr_build_s"), "s")
    wire = 0.0
    if s.get("client_ms/read"):
        wire = _med(s, "client_ms/read") - _med(s, "core.execute_ms/read")
    m["server.wire_ms"] = (wire, "ms")
    for k in ("admitted", "shed", "errors"):
        m[f"server.{k}"] = (c.get(f"server.{k}", 0), "count")
    m["storage.wal_bytes_per_user_byte"] = (
        ratio(c.get("wal_bytes_logged", 0), c.get("user_bytes_inserted", 0)), "ratio")
    m["storage.checkpoints"] = (c.get("status.auto_checkpoint_count", 0), "count")
    m["storage.checkpoint_s"] = (_med(s, "storage.checkpoint_s"), "s")
    m["storage.append_growth"] = (append_growth(s.get("write_in_order_ms", [])),
                                  "ratio")
    m["storage.bytes_per_row"] = (
        ratio(c.get("catalog_bytes", 0), c.get("catalog_rows", 0)), "B")
    m["contenders.matlab_kmeans_s"] = (_med(s, "contenders.matlab_kmeans_s"), "s")
    m["contenders.matlab_pagerank_s"] = (_med(s, "contenders.matlab_pagerank_s"), "s")
    m["trace.overhead_ratio"] = (geomean(
        ratio(_med(s, f"staged_traced_ms/{cls}"), _med(s, f"core.execute_ms/{cls}"))
        for cls in classes), "ratio")
    return m


# --- comparing two result sets -----------------------------------------------------

def win_fraction(parent, change, better):
    """Share of pairs (parent[i], change[i]) the change wins; ties count for
    neither side."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    if better == "lower":
        wins = sum(1 for p, c in pairs if c < p)
    else:
        wins = sum(1 for p, c in pairs if c > p)
    return wins / len(pairs)


MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    """improved / regressed / unchanged / unresolved, by the rule: a gain
    needs at least ten pairs, a win in nine tenths of them, and a median
    difference larger than the parent's own inter-quartile distance; a
    regression is a median worse than the parent's by more than `bound`;
    when the parent's spread is wider than the bound the result is
    unresolved, unless every change run beats every parent run."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved"
    parent, change = parent[:n], change[:n]
    p1, pm, p3 = quartiles(parent)
    cm = median(change)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (cm - pm)
    if win_fraction(parent, change, better) >= WIN_SHARE and gain > (p3 - p1):
        return "improved"
    if -gain > bound * abs(pm):
        return "regressed"
    if (p3 - p1) > bound * abs(pm):
        beats_all = (max(change) < min(parent) if better == "lower"
                     else min(change) > max(parent))
        return "unchanged" if beats_all else "unresolved"
    return "unchanged"
