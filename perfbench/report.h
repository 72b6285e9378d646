// Copyright 2026 The gkmeans Authors.
// Run outcome of one benchmark process: operation tallies per kind,
// output-check results, named metrics with units, and the one-line JSON
// result run.py reads (always the last line of standard output).

#ifndef GKM_PERFBENCH_REPORT_H_
#define GKM_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Outcome {
 public:
  /// Counts one operation of `kind` (a program call or an RPC); `ok` is
  /// false for a refusal, a transport error, or an output that failed a
  /// check.
  void Op(const std::string& kind, bool ok);

  /// Records an output check given its verdict (empty = passed, else the
  /// violation). A failed check rejects the run (correct = false) and
  /// counts as a failed operation of kind "check.<name>". Returns whether
  /// it passed.
  bool Check(const std::string& name, const std::string& violation);

  /// Adds (or replaces) a metric.
  void Set(const std::string& name, double value, const std::string& unit);
  /// A free-form line for the human-readable report.
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  /// Human-readable report: per-kind tallies, failed checks, notes and
  /// every metric with its unit.
  std::string Text(const std::string& title) const;

  /// Result line {"correct", "attempted", "failed", "ops", "metrics"}
  /// with every metric; perfbench/run.py keeps the ones BENCHMARK.json
  /// names.
  std::string Json() const;

 private:
  struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Tally> ops_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;  // failed checks, with violations
};

/// JSON number text with full precision (17 significant digits); non-finite
/// values become null.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // GKM_PERFBENCH_REPORT_H_
