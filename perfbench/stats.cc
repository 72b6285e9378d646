// Copyright 2026 The gkmeans Authors.

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// 1-based nearest rank of percentile p among n samples.
std::size_t NearestRank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  return v[NearestRank(p, v.size()) - 1];
}

TailPick PickTailPercentile(const std::vector<double>& samples,
                            std::size_t min_beyond,
                            const std::vector<double>& candidates) {
  TailPick pick;
  pick.samples = samples.size();
  if (samples.empty()) {
    pick.value = kNaN;
    return pick;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> order = candidates;
  std::sort(order.rbegin(), order.rend());
  for (double p : order) {
    const std::size_t rank = NearestRank(p, sorted.size());
    const std::size_t beyond = sorted.size() - rank;
    if (beyond >= min_beyond) {
      pick.percentile = p;
      pick.value = sorted[rank - 1];
      pick.beyond = beyond;
      return pick;
    }
  }
  pick.percentile = 50.0;
  pick.value = Median(sorted);
  pick.beyond = sorted.size() / 2;
  return pick;
}

void OpenLoopLane::Record(double due, double sent, double done, bool ok) {
  lateness_.push_back(std::max(0.0, sent - due));
  if (ok) {
    latencies_.push_back(done - due);
  } else {
    latencies_.push_back(std::numeric_limits<double>::infinity());
    ++failed_;
  }
}

OpenLoopLane SimulateLane(const std::vector<double>& due,
                          const std::vector<double>& service) {
  OpenLoopLane lane;
  double now = 0.0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const double sent = OpenLoopLane::SendTime(due[i], now);
    const double done = sent + std::fabs(service[i]);
    lane.Record(due[i], sent, done, service[i] >= 0.0);
    now = done;
  }
  return lane;
}

RungVerdict JudgeRung(const RungObservation& obs, const RungLimits& limits) {
  RungVerdict v;
  v.samples = obs.latencies.size();
  if (obs.latencies.empty()) {
    v.reason = "no samples";
    return v;
  }
  v.p99 = Percentile(obs.latencies, 99.0);
  v.late_p99 = obs.lateness.empty() ? 0.0 : Percentile(obs.lateness, 99.0);
  v.depth_growth = Mean(obs.depth_second_half) - Mean(obs.depth_first_half);
  char buf[160];
  if (!(v.p99 <= limits.p99_limit)) {
    std::snprintf(buf, sizeof(buf), "p99 %.0f > limit %.0f", v.p99,
                  limits.p99_limit);
    v.reason = buf;
  } else if (!(v.late_p99 <= limits.late_p99_limit)) {
    std::snprintf(buf, sizeof(buf), "generator late p99 %.0f > limit %.0f",
                  v.late_p99, limits.late_p99_limit);
    v.reason = buf;
  } else if (v.depth_growth > limits.depth_growth_limit) {
    std::snprintf(buf, sizeof(buf), "queue depth grew by %.1f",
                  v.depth_growth);
    v.reason = buf;
  }
  v.accepted = v.reason.empty();
  return v;
}

double SustainedRate(const std::vector<double>& rates,
                     const std::vector<RungVerdict>& verdicts) {
  double best = 0.0;
  for (std::size_t i = 0; i < rates.size() && i < verdicts.size(); ++i) {
    if (!verdicts[i].accepted) break;
    best = rates[i];
  }
  return best;
}

double Ratio::value() const { return den > 0.0 ? num / den : kNaN; }

std::string Ratio::Format() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s = %.4f (%s %.6g %s / %s %.6g %s)",
                name.c_str(), value(), num_name.c_str(), num, unit.c_str(),
                den_name.c_str(), den, unit.c_str());
  return buf;
}

}  // namespace perfbench
