// Copyright 2026 The gkmeans Authors.
// The benchmark's own trace: spans it records around each of its calls
// into a layer of the library (name, layer, start, end, parent, request
// id), kept in memory and written out at the end of a traced pass. Self
// times per layer come from the span tree: a span's duration minus the
// durations of its children. Nothing here reaches into the library; spans
// derived from what the library already reports (e.g. the share of a
// window spent in the sharded graph's insert, from the src/obs registry)
// are added with AddChild.
//
// A disabled recorder (untraced runs) records nothing and costs one
// branch per call.

#ifndef GKM_PERFBENCH_SPANS_H_
#define GKM_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds of the benchmark's own clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string layer;         ///< module path, e.g. "core/graph_builder"
  std::string name;          ///< call, e.g. "BuildKnnGraph"
  std::uint64_t request = 0; ///< request id (0 when not per-request)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the calling thread's innermost open span; returns
  /// its id (0 when disabled).
  std::uint64_t Begin(const std::string& layer, const std::string& name,
                      std::uint64_t request = 0);
  /// Closes span `id` (must be the calling thread's innermost open span).
  void End(std::uint64_t id);

  /// Adds a finished child of `parent` whose duration the library
  /// reported rather than the benchmark timed; it is placed at the start
  /// of the parent.
  void AddChild(std::uint64_t parent, const std::string& layer,
                const std::string& name, double seconds);

  /// Self seconds per layer over the closed spans in trees whose root
  /// span has layer `root_layer` (the root's own layer included).
  std::map<std::string, double> SelfSecondsByLayer(
      const std::string& root_layer) const;
  /// Summed duration of the spans of `layer`.
  double LayerSeconds(const std::string& layer) const;
  /// Share of the root spans' time (layer `root_layer`) that the layers
  /// below them explain: 1 - root self time / root duration.
  double Coverage(const std::string& root_layer) const;

  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  // id -> index in spans_
  std::uint64_t next_id_ = 1;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& layer,
             const std::string& name, std::uint64_t request = 0)
      : rec_(rec), id_(rec.Begin(layer, name, request)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

}  // namespace perfbench

#endif  // GKM_PERFBENCH_SPANS_H_
