/// perfbench_runner: runs one perfbench workload and prints its raw samples
/// as one JSON object on stdout. perfbench/run.py builds and calls it, and
/// turns the samples into the benchmark's metrics.
///
///   perfbench_runner --workload <name> --seed <n> --seconds <s>
///                    [--trace 0|1] [--tmp-dir <dir>] [--spans <file>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"


int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--tmp-dir") {
      opt.tmp_dir = v;
    } else if (arg == "--spans") {
      opt.spans_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }
  if (opt.workload == "operator_analytics") {
    return perfbench::RunAnalytics(opt, /*iterate=*/false);
  }
  if (opt.workload == "iterate_analytics") {
    return perfbench::RunAnalytics(opt, /*iterate=*/true);
  }
  if (opt.workload == "server_mixed") return perfbench::RunServerMixed(opt);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               opt.workload.c_str());
  return 2;
}
