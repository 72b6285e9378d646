// Copyright 2026 The gkmeans Authors.
// Output checks of the three workloads. Each returns an empty string when
// the program's output is right and a description of the first violation
// otherwise; the workloads hand the verdict to Outcome::Check, so a
// failed check both counts in `failed` and rejects the run.

#ifndef GKM_PERFBENCH_CHECKS_H_
#define GKM_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/top_k.h"
#include "serve/protocol.h"

namespace perfbench {

// ---- batch_cluster --------------------------------------------------------

/// Every label lies in [0, k) and there is one label per row.
std::string CheckLabels(const std::vector<std::uint32_t>& labels,
                        std::size_t rows, std::size_t k);

/// The distortion the program reported equals the one recomputed from its
/// labels with eval/ (relative tolerance `rel_tol` for summation order).
std::string CheckDistortion(double reported, double recomputed,
                            double rel_tol = 1e-6);

/// Repeated runs of one seed report bit-identical values.
std::string CheckIdentical(const std::vector<double>& values);

// ---- stream_ingest --------------------------------------------------------

/// Sum of WindowStats.points equals the rows fed.
std::string CheckWindowPoints(std::uint64_t sum_window_points,
                              std::uint64_t rows_fed);

/// Live points equal the rows fed (the stream removes nothing).
std::string CheckAlive(std::uint64_t points_alive, std::uint64_t rows_fed);

/// One assigned id per row fed, all distinct.
std::string CheckIdsUnique(const std::vector<std::uint32_t>& ids,
                           std::uint64_t rows_fed);

// ---- serve_mixed ----------------------------------------------------------

/// What the load generator saw accepted or refused.
struct ClientTally {
  std::uint64_t searches = 0;    ///< queries answered
  std::uint64_t inserts = 0;     ///< insert windows answered
  std::uint64_t removed = 0;     ///< removal ids answered as removed
  std::uint64_t refused = 0;     ///< OVERLOADED answers of any kind
};

/// Client tallies equal the server's own counters: nothing dropped.
std::string CheckTallies(const ClientTally& client,
                         const gkm::serve::StatsResponse& server);

/// One removal answer: one flag per id asked, each 0 (not live, e.g. a
/// stale id) or 1 (was live, now removed).
std::string CheckRemoveAnswer(const std::vector<std::uint8_t>& removed,
                              std::size_t asked);

/// One search answer: at most `topk` entries, ids distinct and accepted by
/// `id_ok` (known or live ids), sorted by (dist, id).
std::string CheckSearchResult(
    const std::vector<gkm::Neighbor>& result, std::size_t topk,
    const std::function<bool(std::uint32_t)>& id_ok);

}  // namespace perfbench

#endif  // GKM_PERFBENCH_CHECKS_H_
