// Copyright 2026 The gkmeans Authors.
// Statistics used by the benchmark: order statistics with an
// explicit sample-count rule, open-loop (due-time) latency accounting for
// the load generator, the acceptance rule of one offered-rate rung, and
// derived ratios that always travel with their two bases.
//
// Everything here is pure (no clocks, no I/O) so perfbench/selftest.cc can
// drive it with hand-made inputs.

#ifndef GKM_PERFBENCH_STATS_H_
#define GKM_PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); NaN when
/// empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 100]: the value of rank
/// ceil(p/100 * n) (1-based) of the sorted samples; NaN when empty.
double Percentile(std::vector<double> v, double p);

/// A tail percentile chosen for the data it rests on.
struct TailPick {
  double percentile = 0.0;  ///< chosen p (e.g. 99)
  double value = 0.0;       ///< nearest-rank value at p
  std::size_t samples = 0;  ///< total samples
  std::size_t beyond = 0;   ///< samples strictly above the rank of p
};

/// Picks the highest percentile of `candidates` (any order) that still has
/// at least `min_beyond` samples ranked beyond it, so a reported tail is
/// never read off a handful of points. Falls back to Median() when no
/// candidate qualifies (`beyond` then says how thin it is).
TailPick PickTailPercentile(const std::vector<double>& samples,
                            std::size_t min_beyond = 10,
                            const std::vector<double>& candidates = {
                                99.9, 99.0, 90.0, 50.0});

/// Open-loop request accounting for one synchronous connection. Requests
/// have a due time drawn from the arrival process; a request that cannot
/// be sent at its due time (the previous one is still outstanding) is sent
/// late, and its latency is still measured from the due time — so a
/// stalled request charges every request queued behind it instead of
/// silently thinning the offered load (coordinated omission).
class OpenLoopLane {
 public:
  /// When the next request may go out: its due time, or `now` if behind.
  static double SendTime(double due, double now) {
    return due > now ? due : now;
  }

  /// Records one finished request (times in one unit, e.g. microseconds).
  /// A failed request (refused, transport error, or an output that failed
  /// a check) is recorded with infinite latency: it misses any limit.
  void Record(double due, double sent, double done, bool ok);

  /// Latency from due time per request, in record order.
  const std::vector<double>& latencies() const { return latencies_; }
  /// How late each request was sent (sent - due, >= 0).
  const std::vector<double>& lateness() const { return lateness_; }
  std::size_t failed() const { return failed_; }

 private:
  std::vector<double> latencies_;
  std::vector<double> lateness_;
  std::size_t failed_ = 0;
};

/// Simulates one synchronous lane over fixed service times with the
/// OpenLoopLane send rule (the load generator's schedule, minus the
/// network). `service[i] < 0` marks request i as failed after |service|.
OpenLoopLane SimulateLane(const std::vector<double>& due,
                          const std::vector<double>& service);

/// Limits one offered-rate rung must meet to count toward the sustained
/// rate.
struct RungLimits {
  double p99_limit = 0.0;           ///< latency-from-due p99 bound
  double late_p99_limit = 0.0;      ///< generator lateness p99 bound
  double depth_growth_limit = 0.0;  ///< allowed rise of mean queue depth
};

/// What was observed while one rung ran.
struct RungObservation {
  double offered_rate = 0.0;                ///< requests per second
  std::vector<double> latencies;            ///< from due time; inf = failed
  std::vector<double> lateness;             ///< sent - due
  std::vector<double> depth_first_half;     ///< queue-depth samples
  std::vector<double> depth_second_half;
};

struct RungVerdict {
  bool accepted = false;
  double p99 = 0.0;
  double late_p99 = 0.0;
  double depth_growth = 0.0;
  std::size_t samples = 0;
  std::string reason;  ///< empty when accepted
};

/// Judges one rung: p99 within the latency limit (failed requests count
/// as misses), the generator on schedule, and the queue depth not
/// growing between the rung's two halves. A rung with no samples fails.
RungVerdict JudgeRung(const RungObservation& obs, const RungLimits& limits);

/// Highest offered rate of an ascending ladder whose rung and every lower
/// rung were accepted (0 when the first rung fails).
double SustainedRate(const std::vector<double>& rates,
                     const std::vector<RungVerdict>& verdicts);

/// A derived ratio with its bases, so no ratio is printed without the two
/// numbers it came from.
struct Ratio {
  std::string name;
  std::string num_name;
  double num = 0.0;
  std::string den_name;
  double den = 0.0;
  std::string unit;  ///< unit shared by both bases

  /// num / den; NaN when the base is not positive.
  double value() const;
  /// "name = v (num_name n unit / den_name d unit)".
  std::string Format() const;
};

}  // namespace perfbench

#endif  // GKM_PERFBENCH_STATS_H_
