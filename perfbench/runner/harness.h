/// \file harness.h
/// Shared plumbing of the perfbench runner: a minimal JSON writer, the
/// in-memory span recorder of the traced run, result comparison with a
/// float tolerance, and the hand-staged statement path that calls every
/// layer's public entry point (parse, bind, optimize, lower, verify,
/// execute) one by one.
///
/// The runner only measures and checks; every statistic over the raw
/// samples it prints (medians, percentiles, ratios, self times) is computed
/// by perfbench/stats.py, which has its own tests.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "exec/physical_plan.h"
#include "storage/table.h"
#include "util/mutex.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// Returns freed heap memory to the system (malloc_trim) and resets this
/// process's resident-set high-water mark to its current size, so that the
/// peak measured afterwards belongs to what runs afterwards. False when the
/// kernel refused the reset.
bool ResetPeakRss();

/// Resident-set high-water mark of this process since the last
/// ResetPeakRss(), in kilobytes (VmHWM in /proc/self/status).
double PeakRssKb();

// --- JSON -------------------------------------------------------------------

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
std::string JsonArray(const std::vector<double>& values);

/// Insertion-ordered JSON object writer; values are pre-rendered JSON.
class JsonObject {
 public:
  void Raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }
  void Num(const std::string& key, double v) { Raw(key, JsonNumber(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, JsonString(v));
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Array(const std::string& key, const std::vector<double>& v) {
    Raw(key, JsonArray(v));
  }
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- run records --------------------------------------------------------------

/// What every runner record carries: the workload, its seed and generated
/// sizes, named correctness checks and the first few failure messages.
struct Record {
  std::string workload;
  uint64_t seed = 0;
  std::map<std::string, double> sizes;  ///< generated counts, clients, ...
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> errors;

  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void NoteError(const std::string& what);
  /// Adds the common fields to `o`.
  void RenderCommon(JsonObject* o) const;
};

/// Everything one untraced run reports: per-class latency samples of the
/// successful statements and the outcome counters.
struct RunRecord : Record {
  std::vector<double> setup_s;  ///< one entry per repeated set-up
  std::map<std::string, std::vector<double>> latency_ms;  ///< by class
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< statements that returned an error
  uint64_t shed = 0;    ///< statements refused by admission control
  uint64_t wrong = 0;   ///< statements whose answer failed its check
  double wall_s = 0;    ///< timed phase, first statement to last reply
  double peak_rss_kb = 0;  ///< PeakRssKb() at the end of the timed phase

  std::string Render() const;
};

// --- spans ------------------------------------------------------------------

/// One traced interval. `parent` is the index of the enclosing span in the
/// recorder (-1 for a root); spans of one statement share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t request = 0;
};

/// Records spans in memory (thread-safe) and writes them out once at the
/// end. Each thread keeps its own stack of open spans, so spans opened on a
/// thread nest under that thread's innermost open span.
class SpanRecorder {
 public:
  int64_t Open(const std::string& name, int64_t request);
  void Close(int64_t id);
  std::vector<Span> Snapshot() const;
  /// Writes the spans as a JSON array of objects.
  bool WriteJson(const std::string& path) const;

 private:
  mutable soda::Mutex mu_;
  std::vector<Span> spans_ SODA_GUARDED_BY(mu_);
};

/// RAII span; a null recorder makes it a no-op (the untraced load).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int64_t request)
      : rec_(rec), id_(rec ? rec->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

// --- result checks -------------------------------------------------------------

/// Cell-by-cell equality; numeric cells may differ by `tol` relative to
/// max(1, |a|). Row order must match.
bool SameTable(const soda::Table& a, const soda::Table& b, double tol);

/// First column (integer key) -> second column (numeric value).
std::map<int64_t, double> KeyedValues(const soda::Table& t);

/// True when every key present in both maps agrees within `tol` (absolute)
/// and at least `min_common` keys are shared.
bool SameKeyedValues(const std::map<int64_t, double>& a,
                     const std::map<int64_t, double>& b, double tol,
                     size_t min_common);

/// Copy of `t` without its first column (the generated id / label column).
soda::TablePtr DropFirstColumn(const soda::Table& t);

// --- hand-staged statement path -----------------------------------------------

/// One physical operator of a pipeline: (role, name, inclusive nanoseconds),
/// role one of "prepare", "op", "source", "transform", "sink".
using ChainEntry = std::tuple<std::string, std::string, uint64_t>;
using Chain = std::vector<ChainEntry>;

/// Per-layer times (ms) and counters of one staged SELECT.
struct StagedResult {
  double parse_ms = 0, bind_ms = 0, optimize_ms = 0;
  double lower_ms = 0, verify_ms = 0, execute_ms = 0;
  soda::ExecStats stats;
  std::vector<Chain> chains;  ///< one per pipeline of the executed plan
  soda::TablePtr table;
};

/// Runs one SELECT through ParseStatement, Binder::BindSelectStatement,
/// OptimizePlan, LowerPlan, VerifyPlan and PhysicalPlan::Execute against
/// the engine's catalog and join hash-table recycler, timing each call and
/// (with a recorder) recording one span per layer under a statement span.
soda::Status RunStaged(soda::Engine& engine, const std::string& sql,
                       SpanRecorder* rec, int64_t request, StagedResult* out);

/// What a traced run reports: raw per-layer samples keyed
/// "<metric>/<statement class>" or "<metric>", counters, and the operator
/// chains of one staged execution per statement class.
struct TraceRecord : Record {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<Chain>> chains;  ///< by class
  std::string spans_file;

  /// Adds the per-layer times and counters of one staged execution.
  void AddStaged(const std::string& cls, const StagedResult& s);
  std::string Render() const;
};

/// Times `fn` (which returns false on failure) `reps` times, each under a
/// span named after `key` without its unit suffix; appends the seconds to
/// `tr.samples[key]`.
template <typename Fn>
void TimeCalls(TraceRecord& tr, SpanRecorder& spans, int64_t& request,
               const std::string& key, int reps, Fn&& fn) {
  const std::string span_name = key.substr(0, key.rfind("_s"));
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(&spans, span_name, ++request);
    const int64_t t0 = NowNs();
    const bool ok = fn();
    tr.samples[key].push_back(MsSince(t0) / 1e3);
    if (!ok) {
      tr.Check(key, false);
      tr.NoteError(key + " failed");
    }
  }
}

/// The `soda_status()` counters of an engine, as metric -> value.
std::map<std::string, int64_t> EngineStatus(soda::Engine& engine);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
