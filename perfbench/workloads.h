// Copyright 2026 The gkmeans Authors.
// The three workloads of the repository benchmark and the helpers they
// share: run arguments, seeded input generation, process resource usage,
// src/obs registry deltas and brute-force recall.

#ifndef GKM_PERFBENCH_WORKLOADS_H_
#define GKM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/top_k.h"
#include "obs/metrics.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measured-phase budget (untraced runs)
  bool trace = false;      ///< traced pass: per-layer metrics
  bool overhead = false;   ///< traced pass also times one untraced rep
  std::string work_dir;    ///< scratch files (inside the checkout)
};

/// Untraced runs set the end-to-end metrics; traced passes set the
/// per-layer ones. Both run every output check.
void RunBatchCluster(const Args& args, Outcome& out);
void RunStreamIngest(const Args& args, Outcome& out);
void RunServeMixed(const Args& args, Outcome& out);

// ---- inputs ---------------------------------------------------------------

/// A Gaussian mixture whose components (centers, spreads, weights) are
/// fixed per workload, so every seed draws a fresh sample of the same
/// distribution: seeds change the data, not its difficulty.
struct MixtureSpec {
  std::size_t dim = 32;
  std::size_t modes = 64;
  double zipf_s = 0.8;
  double center_spread = 10.0;
  double cluster_spread = 1.0;
  double spread_jitter = 0.5;
  double noise_fraction = 0.02;
  std::uint64_t shape_seed = 7;  ///< fixes the components
  bool sift_like = false;        ///< shift/clamp/round like SIFT bins
};

/// Draws `n` rows of `spec` from stream `seed` (`salt` separates the
/// corpus, probes and queries of one seed).
gkm::Matrix SampleMixture(const MixtureSpec& spec, std::size_t n,
                          std::uint64_t seed, std::uint64_t salt);

/// Rows [begin, begin + count) of `m`.
gkm::Matrix Rows(const gkm::Matrix& m, std::size_t begin, std::size_t count);

// ---- measurement helpers --------------------------------------------------

/// Seconds since an arbitrary origin on the benchmark's clock.
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// Peak resident set of this process (MB).
double PeakRssMb();
/// User + system CPU seconds of this process (all threads).
double CpuSeconds();
/// Hardware threads (at least 1).
std::size_t Cores();

/// Sets op_p50_ms (median) and op_tail_ms from per-operation times:
/// op_tail_ms is p90 when at least ten samples lie beyond it, else the
/// median. Notes the highest percentile with ten samples beyond it and the
/// sample count.
void SetOpTimes(Outcome& out, const std::vector<double>& ms);

/// Notes the self time of every layer under the root spans of `root`.
void NoteSelfTimes(Outcome& out, const SpanRecorder& rec,
                   const std::string& root);

/// Registry scrape with lookups that default to zero.
struct Scrape {
  gkm::obs::RegistrySnapshot snap;
  static Scrape Now();
  std::int64_t Counter(const std::string& name) const;
  gkm::obs::HistogramData Histogram(const std::string& name) const;
};

/// `after - before` for a histogram (bucket-wise; counts and sums).
gkm::obs::HistogramData HistogramDelta(const gkm::obs::HistogramData& after,
                                       const gkm::obs::HistogramData& before);

/// Exact top-`k` neighbors (row index, squared distance) of every query
/// row against `base`, sorted by (dist, id).
std::vector<std::vector<gkm::Neighbor>> ExactTopK(const gkm::Matrix& base,
                                                  const gkm::Matrix& queries,
                                                  std::size_t k);

/// |found ∩ truth| / |truth| over ids, averaged over queries.
double RecallAt(const std::vector<std::vector<std::uint32_t>>& found,
                const std::vector<std::vector<gkm::Neighbor>>& truth);

/// Recall by distance, for answers whose ids the benchmark cannot map to
/// rows: a returned neighbor counts when its distance is within the true
/// k-th distance (relative slack 1e-4 for summation order).
double RecallByDistance(const std::vector<std::vector<gkm::Neighbor>>& found,
                        const std::vector<std::vector<gkm::Neighbor>>& truth);

}  // namespace perfbench

#endif  // GKM_PERFBENCH_WORKLOADS_H_
