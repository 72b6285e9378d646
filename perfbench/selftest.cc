// Copyright 2026 The gkmeans Authors.
// Self-test of the benchmark's own statistics and output checks. Each
// output check is fed a right and a wrong result; a wrong one must reject
// the run ("correct": false in the result line). Run with
// `python3 perfbench/run.py --selftest` (exit 0 when every case holds).

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "checks.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;
int g_cases = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    ++g_cases;                                                           \
    if (!(cond)) {                                                       \
      ++g_failures;                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,   \
                   #cond);                                               \
    }                                                                    \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  TailPick p = PickTailPercentile(v);
  EXPECT(p.percentile == 99.0);  // p99.9 would leave only 1 sample beyond
  EXPECT(p.value == 990.0);
  EXPECT(p.samples == 1000);
  EXPECT(p.beyond == 10);

  v.resize(100);
  p = PickTailPercentile(v);
  EXPECT(p.percentile == 90.0);
  EXPECT(p.value == 90.0);
  EXPECT(p.beyond == 10);

  v.resize(5);
  p = PickTailPercentile(v);
  EXPECT(p.percentile == 50.0);  // nothing qualifies: median, flagged thin
  EXPECT(p.value == 3.0);
  EXPECT(p.samples == 5);
  EXPECT(p.beyond == 2);
  // Two samples: the median fallback agrees with Median().
  p = PickTailPercentile({8.0, 10.0}, 10, {90.0});
  EXPECT(p.percentile == 50.0);
  EXPECT(p.value == 9.0);

  EXPECT(std::isnan(PickTailPercentile({}).value));
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 2, 3}) == 2.5);
  EXPECT(Percentile({5, 1, 4, 2, 3}, 50) == 3.0);
  EXPECT(Percentile({5, 1, 4, 2, 3}, 100) == 5.0);
}

void TestDueTimeLatency() {
  // Requests due every 1 ms, each served in 0.1 ms, except request 1
  // which stalls for 5 ms.
  const std::vector<double> due = {0, 1, 2, 3, 4, 10};
  const std::vector<double> service = {0.1, 5, 0.1, 0.1, 0.1, 0.1};
  const OpenLoopLane lane = SimulateLane(due, service);
  const std::vector<double>& lat = lane.latencies();
  EXPECT(Near(lat[0], 0.1));
  EXPECT(Near(lat[1], 5.0));
  // Request 2 could only go out at 6 ms: it is charged from its due time.
  EXPECT(Near(lat[2], 4.1));
  EXPECT(Near(lat[3], 3.2));
  EXPECT(Near(lat[4], 2.3));
  EXPECT(Near(lat[5], 0.1));  // the lane caught up
  EXPECT(Near(lane.lateness()[2], 4.0));
  EXPECT(Near(lane.lateness()[0], 0.0));

  // A failed request never meets a limit.
  const OpenLoopLane failed = SimulateLane({0, 1}, {0.1, -0.2});
  EXPECT(failed.failed() == 1);
  EXPECT(std::isinf(failed.latencies()[1]));
  EXPECT(OpenLoopLane::SendTime(5, 3) == 5);
  EXPECT(OpenLoopLane::SendTime(5, 7) == 7);
}

RungObservation SteadyRung(double latency, double late) {
  RungObservation o;
  o.offered_rate = 1000;
  o.latencies.assign(1000, latency);
  o.lateness.assign(1000, late);
  o.depth_first_half.assign(10, 1.0);
  o.depth_second_half.assign(10, 1.0);
  return o;
}

void TestRungAcceptance() {
  const RungLimits limits{5000.0, 2000.0, 4.0};
  EXPECT(JudgeRung(SteadyRung(800, 50), limits).accepted);

  RungVerdict v = JudgeRung(SteadyRung(6000, 50), limits);
  EXPECT(!v.accepted);
  EXPECT(v.reason.find("p99") != std::string::npos);

  v = JudgeRung(SteadyRung(800, 3000), limits);
  EXPECT(!v.accepted);
  EXPECT(v.reason.find("late") != std::string::npos);

  RungObservation growing = SteadyRung(800, 50);
  growing.depth_second_half.assign(10, 9.0);
  v = JudgeRung(growing, limits);
  EXPECT(!v.accepted);
  EXPECT(Near(v.depth_growth, 8.0));

  // 2% refused searches: they count as misses and sink the p99.
  RungObservation refused = SteadyRung(800, 50);
  for (int i = 0; i < 20; ++i) {
    refused.latencies[i] = std::numeric_limits<double>::infinity();
  }
  EXPECT(!JudgeRung(refused, limits).accepted);
  EXPECT(!JudgeRung(RungObservation(), limits).accepted);

  const std::vector<double> rates = {500, 1000, 1500, 2000};
  const RungVerdict ok = JudgeRung(SteadyRung(800, 50), limits);
  const RungVerdict bad = JudgeRung(SteadyRung(9000, 50), limits);
  EXPECT(SustainedRate(rates, {ok, ok, bad, ok}) == 1000);
  EXPECT(SustainedRate(rates, {ok, ok, ok, ok}) == 2000);
  EXPECT(SustainedRate(rates, {bad, ok, ok, ok}) == 0);
}

void TestRatio() {
  const Ratio r{"gk_vs_lloyd", "gk_total_s", 7.5, "lloyd.total_s", 10.0, "s"};
  EXPECT(Near(r.value(), 0.75));
  const std::string text = r.Format();
  EXPECT(text.find("gk_vs_lloyd = 0.7500") == 0);
  EXPECT(text.find("gk_total_s 7.5 s") != std::string::npos);
  EXPECT(text.find("lloyd.total_s 10 s") != std::string::npos);
  const Ratio zero{"x", "a", 1.0, "b", 0.0, "count"};
  EXPECT(std::isnan(zero.value()));
  EXPECT(zero.Format().find("b 0 count") != std::string::npos);
}

// Feeds one check verdict through an Outcome and returns the result line.
std::string RunWith(const std::string& name, const std::string& verdict) {
  Outcome out;
  out.Op("work", true);
  out.Check(name, verdict);
  out.Set("m", 1.0, "s");
  return out.Json();
}

bool Rejected(const std::string& json) {
  return json.find("\"correct\": false") != std::string::npos &&
         json.find("\"failed\": 1") != std::string::npos;
}

bool Accepted(const std::string& json) {
  return json.find("\"correct\": true") != std::string::npos &&
         json.find("\"failed\": 0") != std::string::npos;
}

void TestChecksCanFail() {
  // batch_cluster
  EXPECT(Accepted(RunWith("labels", CheckLabels({0, 1, 2}, 3, 3))));
  EXPECT(Rejected(RunWith("labels", CheckLabels({0, 3, 2}, 3, 3))));
  EXPECT(Rejected(RunWith("labels", CheckLabels({0, 1}, 3, 3))));
  EXPECT(Accepted(RunWith("distortion", CheckDistortion(100.0, 100.00000001))));
  EXPECT(Rejected(RunWith("distortion", CheckDistortion(100.0, 100.1))));
  EXPECT(Rejected(RunWith("distortion", CheckDistortion(NAN, NAN))));
  EXPECT(Accepted(RunWith("repeatable", CheckIdentical({1.5, 1.5, 1.5}))));
  const double next = std::nextafter(1.5, 2.0);
  EXPECT(Rejected(RunWith("repeatable", CheckIdentical({1.5, 1.5, next}))));

  // stream_ingest
  EXPECT(Accepted(RunWith("window_points", CheckWindowPoints(1000, 1000))));
  EXPECT(Rejected(RunWith("window_points", CheckWindowPoints(999, 1000))));
  EXPECT(Accepted(RunWith("alive", CheckAlive(1000, 1000))));
  EXPECT(Rejected(RunWith("alive", CheckAlive(1001, 1000))));
  EXPECT(Accepted(RunWith("ids", CheckIdsUnique({4, 1, 7}, 3))));
  EXPECT(Rejected(RunWith("ids", CheckIdsUnique({4, 1, 4}, 3))));
  EXPECT(Rejected(RunWith("ids", CheckIdsUnique({4, 1}, 3))));

  // serve_mixed
  gkm::serve::StatsResponse server;
  server.searches = 10;
  server.inserts = 3;
  server.removes = 20;
  server.overloaded = 1;
  const ClientTally match{10, 3, 20, 1};
  EXPECT(Accepted(RunWith("tallies", CheckTallies(match, server))));
  ClientTally dropped = match;
  dropped.searches = 9;  // a query the server counted, the client never saw
  EXPECT(Rejected(RunWith("tallies", CheckTallies(dropped, server))));
  ClientTally silent = match;
  silent.refused = 0;
  EXPECT(Rejected(RunWith("tallies", CheckTallies(silent, server))));

  EXPECT(Accepted(RunWith("remove", CheckRemoveAnswer({1, 0, 1}, 3))));
  EXPECT(Rejected(RunWith("remove", CheckRemoveAnswer({1, 0}, 3))));
  EXPECT(Rejected(RunWith("remove", CheckRemoveAnswer({1, 2, 1}, 3))));

  auto live = [](std::uint32_t id) { return id != 13; };
  const std::vector<gkm::Neighbor> good = {{5, 1.0f}, {2, 2.0f}, {3, 2.0f}};
  EXPECT(Accepted(RunWith("result", CheckSearchResult(good, 3, live))));
  EXPECT(Rejected(RunWith("result", CheckSearchResult(good, 2, live))));
  const std::vector<gkm::Neighbor> unsorted = {{5, 2.0f}, {2, 1.0f}};
  EXPECT(Rejected(RunWith("result", CheckSearchResult(unsorted, 10, live))));
  const std::vector<gkm::Neighbor> tie_order = {{3, 2.0f}, {2, 2.0f}};
  EXPECT(Rejected(RunWith("result", CheckSearchResult(tie_order, 10, live))));
  const std::vector<gkm::Neighbor> dead = {{13, 1.0f}};
  EXPECT(Rejected(RunWith("result", CheckSearchResult(dead, 10, live))));
  const std::vector<gkm::Neighbor> dup = {{5, 1.0f}, {5, 1.0f}};
  EXPECT(Rejected(RunWith("result", CheckSearchResult(dup, 10, live))));
}

void TestOutcome() {
  Outcome out;
  out.Op("Search", true);
  out.Op("Search", false);
  out.Op("Insert", true);
  EXPECT(out.attempted() == 3);
  EXPECT(out.failed() == 1);
  EXPECT(out.correct());  // a refusal is a failure, not a wrong output
  out.Set("latency_ms", 1.25, "ms");
  const std::string json = out.Json();
  EXPECT(json.find("\"Search\": [2, 1]") != std::string::npos);
  EXPECT(json.find("\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}") !=
         std::string::npos);
  EXPECT(JsonNumber(std::numeric_limits<double>::infinity()) == "null");
  EXPECT(JsonNumber(0.1) == "0.10000000000000001");
}

void TestSpans() {
  SpanRecorder rec(true);
  std::uint64_t root_id = 0;
  {
    ScopedSpan root(rec, "workload", "run");
    root_id = root.id();
    {
      ScopedSpan a(rec, "layer/a", "call");
      rec.AddChild(a.id(), "layer/b", "reported", 0.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const std::vector<Span> spans = rec.spans();
  EXPECT(spans.size() == 3);
  EXPECT(spans[1].parent == root_id);
  const auto self = rec.SelfSecondsByLayer("workload");
  EXPECT(self.at("layer/a") >= 0.019);
  EXPECT(self.at("workload") < self.at("layer/a"));
  const double cov = rec.Coverage("workload");
  EXPECT(cov > 0.9 && cov <= 1.0);

  SpanRecorder off(false);
  { ScopedSpan s(off, "x", "y"); }
  EXPECT(off.spans().empty());
}

}  // namespace

int main() {
  TestTailPercentile();
  TestDueTimeLatency();
  TestRungAcceptance();
  TestRatio();
  TestChecksCanFail();
  TestOutcome();
  TestSpans();
  std::printf("perfbench selftest: %d/%d checks passed\n",
              g_cases - g_failures, g_cases);
  return g_failures == 0 ? 0 : 1;
}
