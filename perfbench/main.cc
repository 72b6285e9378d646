// Copyright 2026 The gkmeans Authors.
// gkbench — one workload of the repository benchmark in one process.
//
//   gkbench <batch_cluster|stream_ingest|serve_mixed> --seed N
//           [--seconds S] [--trace [--overhead]] --work-dir DIR
//
// Prints a human-readable report (every metric with its unit, operation
// tallies per kind, failed checks) and, as the last line, one JSON object
// {"correct", "attempted", "failed", "ops", "metrics"}. perfbench/run.py
// builds this binary, runs it and reduces that line to the metrics
// BENCHMARK.json names. Exit code 0 whenever a result was printed (a
// failed check shows as "correct": false), 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "gkbench: %s\nusage: gkbench <batch_cluster|stream_ingest|"
               "serve_mixed> --seed N [--seconds S] [--trace [--overhead]] "
               "--work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing workload");
  perfbench::Args args;
  args.workload = argv[1];
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--seed") {
      const char* v = value();
      if (v == nullptr) return Usage("--seed needs a value");
      char* end = nullptr;
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return Usage("--seed must be a number");
      have_seed = true;
    } else if (a == "--seconds") {
      const char* v = value();
      if (v == nullptr) return Usage("--seconds needs a value");
      args.seconds = std::atof(v);
      if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--overhead") {
      args.overhead = true;
    } else if (a == "--work-dir") {
      const char* v = value();
      if (v == nullptr) return Usage("--work-dir needs a value");
      args.work_dir = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (args.work_dir.empty()) return Usage("--work-dir is required");

  perfbench::Outcome out;
  if (args.workload == "batch_cluster") {
    perfbench::RunBatchCluster(args, out);
  } else if (args.workload == "stream_ingest") {
    perfbench::RunStreamIngest(args, out);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(args, out);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  const double attempted = static_cast<double>(out.attempted());
  out.Set("failed_frac",
          attempted > 0 ? static_cast<double>(out.failed()) / attempted : 0.0,
          "ratio");
  const std::string title = args.workload + " seed " +
                            std::to_string(args.seed) +
                            (args.trace ? " (traced)" : "");
  std::fputs(out.Text(title).c_str(), stdout);
  std::printf("%s\n", out.Json().c_str());
  return 0;
}
