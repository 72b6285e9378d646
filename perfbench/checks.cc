// Copyright 2026 The gkmeans Authors.

#include "checks.h"

#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

namespace {

std::string Fmt(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

std::string CheckLabels(const std::vector<std::uint32_t>& labels,
                        std::size_t rows, std::size_t k) {
  if (labels.size() != rows) {
    return std::to_string(labels.size()) + " labels for " +
           std::to_string(rows) + " rows";
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= k) {
      return "row " + std::to_string(i) + " has label " +
             std::to_string(labels[i]) + " >= k=" + std::to_string(k);
    }
  }
  return "";
}

std::string CheckDistortion(double reported, double recomputed,
                            double rel_tol) {
  const double scale = std::max(std::fabs(reported), std::fabs(recomputed));
  if (!std::isfinite(reported) || !std::isfinite(recomputed) ||
      std::fabs(reported - recomputed) > rel_tol * scale) {
    return Fmt("reported %.17g, recomputed %.17g", reported, recomputed);
  }
  return "";
}

std::string CheckIdentical(const std::vector<double>& values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] != values[0]) {
      return Fmt("run 0 gave %.17g, a repeat gave %.17g", values[0],
                 values[i]);
    }
  }
  return "";
}

std::string CheckWindowPoints(std::uint64_t sum_window_points,
                              std::uint64_t rows_fed) {
  if (sum_window_points != rows_fed) {
    return "windows report " + std::to_string(sum_window_points) +
           " points, " + std::to_string(rows_fed) + " rows fed";
  }
  return "";
}

std::string CheckAlive(std::uint64_t points_alive, std::uint64_t rows_fed) {
  if (points_alive != rows_fed) {
    return std::to_string(points_alive) + " points alive, " +
           std::to_string(rows_fed) + " rows fed";
  }
  return "";
}

std::string CheckIdsUnique(const std::vector<std::uint32_t>& ids,
                           std::uint64_t rows_fed) {
  if (ids.size() != rows_fed) {
    return std::to_string(ids.size()) + " ids assigned for " +
           std::to_string(rows_fed) + " rows";
  }
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(ids.size());
  for (std::uint32_t id : ids) {
    if (!seen.insert(id).second) {
      return "id " + std::to_string(id) + " assigned twice";
    }
  }
  return "";
}

std::string CheckTallies(const ClientTally& client,
                         const gkm::serve::StatsResponse& server) {
  auto mismatch = [](const char* what, std::uint64_t c, std::uint64_t s) {
    return std::string(what) + ": client " + std::to_string(c) +
           ", server " + std::to_string(s);
  };
  if (client.searches != server.searches) {
    return mismatch("searches", client.searches, server.searches);
  }
  if (client.inserts != server.inserts) {
    return mismatch("inserts", client.inserts, server.inserts);
  }
  if (client.removed != server.removes) {
    return mismatch("removes", client.removed, server.removes);
  }
  if (client.refused != server.overloaded) {
    return mismatch("refusals", client.refused, server.overloaded);
  }
  return "";
}

std::string CheckRemoveAnswer(const std::vector<std::uint8_t>& removed,
                              std::size_t asked) {
  if (removed.size() != asked) {
    return std::to_string(removed.size()) + " removal flags for " +
           std::to_string(asked) + " ids";
  }
  for (std::size_t i = 0; i < removed.size(); ++i) {
    if (removed[i] > 1) {
      return "removal flag " + std::to_string(i) + " is " +
             std::to_string(removed[i]);
    }
  }
  return "";
}

std::string CheckSearchResult(
    const std::vector<gkm::Neighbor>& result, std::size_t topk,
    const std::function<bool(std::uint32_t)>& id_ok) {
  if (result.size() > topk) {
    return std::to_string(result.size()) + " results for top-" +
           std::to_string(topk);
  }
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t i = 0; i < result.size(); ++i) {
    const gkm::Neighbor& r = result[i];
    if (!std::isfinite(r.dist) || r.dist < 0.0f) {
      return "result " + std::to_string(i) + " has distance " +
             std::to_string(r.dist);
    }
    if (!id_ok(r.id)) {
      return "result id " + std::to_string(r.id) + " is not a live point";
    }
    if (!seen.insert(r.id).second) {
      return "result id " + std::to_string(r.id) + " repeated";
    }
    if (i > 0 && !(result[i - 1] < r)) {
      return "results not sorted by (dist, id) at position " +
             std::to_string(i);
    }
  }
  return "";
}

}  // namespace perfbench
