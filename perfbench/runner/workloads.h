/// \file workloads.h
/// Entry points of the three perfbench workloads.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

/// Set-ups per run; the median is reported as setup_s.
constexpr int kSetupReps = 15;
/// Repetitions of each layer call in the traced run.
constexpr int kTraceReps = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the run: the amount of work is a fixed function of this
  /// budget, so a faster build does the same work in less time.
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for durable engines (removed after the run).
  std::string tmp_dir = ".bench_tmp";
  /// Where the traced run writes its spans.
  std::string spans_path = "spans.json";
};

/// operator_analytics (iterate = false) and iterate_analytics (true).
int RunAnalytics(const Options& opt, bool iterate);

/// server_mixed.
int RunServerMixed(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
