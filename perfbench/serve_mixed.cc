// Copyright 2026 The gkmeans Authors.
// Workload serve_mixed: the GKMP daemon (serve::Server, hosted in this
// process, reached over loopback TCP) with routed placement, S=4 shards,
// one read replica per shard, 4 search workers, journaling on and the
// default BatchPolicy. The corpus (d=32 GMM) is seeded over GKMP during
// set-up; set-up (Server::Start + seeding) runs three times and reports
// the median.
//
// Measured phase, on at most one thread and connection per core:
//  * queries — open loop, seeded Poisson arrivals, top-10, on up to 3
//    connections, stepping through a ladder of fixed offered rates.
//    Latency counts from each query's due time (see stats.h).
//  * ingest — 1 connection alternating 50-row inserts and 10-id removals
//    at a fixed rate; the op count is fixed by the seed and the time
//    budget, and refused ops are retried, so the accepted-op sequence and
//    the final model are a function of the seed.
// After the phase: held-out probes over GKMP against brute force on the
// live points, the client-vs-server tally check, shutdown, and the final
// model's distortion read back from the daemon's shutdown checkpoint.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.h"
#include "common/rng.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "stream/checkpoint.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gkm::serve::Client;

constexpr std::size_t kDim = 32;
constexpr std::uint32_t kTopK = 10;
constexpr std::size_t kShards = 4;
constexpr std::size_t kSeedRows = 20000;
constexpr std::size_t kSeedWindow = 500;
constexpr std::size_t kInsertRows = 50;
constexpr std::size_t kRemoveIds = 10;
constexpr double kIngestOpsPerS = 20.0;  // inserts and removals alternate
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kProbes = 500;
constexpr std::size_t kQueryPool = 4096;
constexpr std::size_t kMaxQueryLanes = 3;
constexpr double kStatsSampleS = 0.005;
// Offered query rates (1/s, all query connections together), ascending
// and doubling, so the sustained rate moves by whole rungs only when
// capacity really changes; no rung sits within 25% of the three lanes'
// capacity at the time of writing (3.5-4k/s), where a rung would pass or
// fail on noise. The reference rung, where search_p50/p99 are read, is
// the second and gets kReferenceShare of the time budget; the others
// split the rest.
const std::vector<double> kLadder = {600, 1200, 2400, 4800, 9600, 19200};
constexpr std::size_t kReferenceRung = 1;
constexpr double kReferenceShare = 0.4;
// A rung holds while p99 (from due time) and generator lateness p99 stay
// within 100 ms and the search queue does not grow: a saturation test,
// not a latency target (search_p99_us tracks latency at the reference).
const RungLimits kLimits{100000.0, 100000.0, 4.0};
// A lane that falls this far behind abandons the rest of its rung: the
// skipped arrivals count as misses and the next rung starts on time.
constexpr double kAbandonS = 0.25;

struct Rung {
  std::size_t ladder = 0;  // index into kLadder
  double seconds = 0.0;
};

std::vector<Rung> Plan(double seconds) {
  std::vector<Rung> plan;
  const double other = seconds * (1.0 - kReferenceShare) /
                       static_cast<double>(kLadder.size() - 1);
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    plan.push_back(
        Rung{i, i == kReferenceRung ? seconds * kReferenceShare : other});
  }
  return plan;
}

MixtureSpec GmmSpec() {
  MixtureSpec s;
  s.dim = kDim;
  s.modes = 32;
  s.shape_seed = 32;
  return s;
}

gkm::serve::ServerOptions Options(const Args& args) {
  gkm::serve::ServerOptions o;
  o.dim = kDim;
  o.params.k = 32;
  o.params.kappa = 16;
  o.params.graph.kappa = 16;
  o.params.graph.shards = kShards;
  o.params.graph.seed = args.seed;
  o.params.routed_placement = true;
  o.params.read_replicas = 1;
  o.params.seed = args.seed;
  o.search_workers = 4;
  o.checkpoint_base = args.work_dir + "/serve.base";
  o.checkpoint_journal = args.work_dir + "/serve.journal";
  return o;
}

void RemoveFiles(const gkm::serve::ServerOptions& o) {
  std::remove(o.checkpoint_base.c_str());
  std::remove(o.checkpoint_journal.c_str());
}

// The benchmark's copy of every row it inserted, in insert order. Rows are
// tracked by insert order, not by global id: the daemon re-numbers a row
// when routed placement migrates it to its home shard, so an id is only
// known to name a row right after the insert that returned it.
struct Mirror {
  std::vector<std::vector<float>> row;
  std::vector<std::uint8_t> alive;

  std::size_t Add(const float* x) {
    row.emplace_back(x, x + kDim);
    alive.push_back(1);
    return row.size() - 1;
  }
};

struct DepthSample {
  double t = 0.0;
  double search = 0.0;
  double ingest = 0.0;
};

// Everything one measured phase produced.
struct Phase {
  std::vector<std::vector<OpenLoopLane>> rungs;  // [rung][lane]
  std::vector<std::pair<double, double>> rung_window;
  OpenLoopLane inserts;
  OpenLoopLane removes;
  std::vector<DepthSample> depth;
  std::uint64_t search_sent = 0;
  std::uint64_t search_ok = 0;
  std::uint64_t abandoned = 0;  // arrivals a lane too far behind skipped
  std::uint64_t refused_search = 0;
  std::uint64_t refused_ingest = 0;  // insert/remove attempts, retried
  std::uint64_t inserts_ok = 0;
  std::uint64_t removed = 0;
  std::uint64_t remove_ids = 0;    // ids named by removals
  std::uint64_t remove_stale = 0;  // of those, answered 0 (already stale)
  std::vector<std::string> violations;  // failed result checks
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Harness {
 public:
  Harness(const Args& args, Outcome& out)
      : args_(args), out_(out), opts_(Options(args)) {
    queries_ = SampleMixture(GmmSpec(), kQueryPool, args.seed, 2);
    lanes_ = std::clamp<std::size_t>(Cores() - 1, 1, kMaxQueryLanes);
  }

  // Server::Start + seeding over GKMP; returns the seconds it took.
  double SetUp() {
    RemoveFiles(opts_);
    mirror_ = Mirror();
    tally_ = ClientTally();
    seed_ids_.clear();
    const gkm::Matrix corpus =
        SampleMixture(GmmSpec(), kSeedRows, args_.seed, 0);
    const double t0 = NowS();
    std::string error;
    server_ = gkm::serve::Server::Start(opts_, &error);
    if (server_ == nullptr) Fail("Server::Start: " + error);
    client_ = Client::Connect(server_->port(), &error);
    if (client_ == nullptr) Fail("connect: " + error);
    for (std::size_t b = 0; b < kSeedRows; b += kSeedWindow) {
      const gkm::Matrix w = Rows(corpus, b, kSeedWindow);
      const std::vector<std::uint32_t> ids = Insert(*client_, w, nullptr);
      seed_ids_.insert(seed_ids_.end(), ids.begin(), ids.end());
    }
    return NowS() - t0;
  }

  void TearDown() {
    client_.reset();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
  }

  // One measured phase over the rungs of `plan`, back to back, with the
  // ingest lane running alongside.
  Phase Run(const std::vector<Rung>& plan, SpanRecorder& rec) {
    Phase ph;
    const double t0 = NowS() + 0.05;
    double end = t0;
    for (const Rung& r : plan) {
      ph.rung_window.emplace_back(end, end + r.seconds);
      end += r.seconds;
    }
    ph.rungs.assign(plan.size(), std::vector<OpenLoopLane>(lanes_));
    const std::size_t ingest_ops =
        static_cast<std::size_t>(std::llround(kIngestOpsPerS * (end - t0)));
    const double cpu0 = CpuSeconds();
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      threads.emplace_back([&, lane] {
        QueryLane(lane, plan, ph, rec);
      });
    }
    threads.emplace_back([&] { IngestLane(t0, ingest_ops, ph, rec); });
    for (std::thread& t : threads) t.join();
    ph.wall_s = NowS() - t0;
    ph.cpu_s = CpuSeconds() - cpu0;
    for (const std::string& v : ph.violations) out_.Check("serve.result", v);
    for (std::uint64_t i = 0; i < ph.search_sent; ++i) {
      out_.Op("Search", i < ph.search_ok);
    }
    for (double lat : ph.inserts.latencies()) {
      out_.Op("Insert", std::isfinite(lat));
    }
    for (double lat : ph.removes.latencies()) {
      out_.Op("Remove", std::isfinite(lat));
    }
    for (std::uint64_t i = 0; i < ph.refused_ingest; ++i) {
      out_.Op("IngestRefused", false);
    }
    tally_.searches += ph.search_ok;
    tally_.inserts += ph.inserts_ok;
    tally_.removed += ph.removed;
    tally_.refused += ph.refused_search + ph.refused_ingest;
    return ph;
  }

  // Held-out probes over GKMP once the phase is over; returns recall@10
  // against brute force over the live rows. `answers` gets the results.
  double Probe(std::vector<std::vector<gkm::Neighbor>>* answers) {
    const gkm::Matrix probes = SampleMixture(GmmSpec(), kProbes, args_.seed, 1);
    std::size_t live = 0;
    for (std::uint8_t a : mirror_.alive) live += a;
    gkm::Matrix base(live, kDim);
    for (std::size_t r = 0, i = 0; r < mirror_.row.size(); ++r) {
      if (mirror_.alive[r]) {
        std::copy(mirror_.row[r].begin(), mirror_.row[r].end(), base.Row(i++));
      }
    }
    answers->assign(kProbes, {});
    for (std::size_t q = 0; q < kProbes; ++q) {
      const bool ok = client_->Search(probes.Row(q), kDim, kTopK,
                                      &(*answers)[q]) == Client::Status::kOk;
      out_.Op("Search", ok);
      if (ok) ++tally_.searches;
    }
    live_rows_ = live;
    return RecallByDistance(*answers, ExactTopK(base, probes, kTopK));
  }

  // Checks the probe answers against the daemon's shutdown checkpoint: at
  // most top-k ids, each live, sorted by (dist, id), and as many of them
  // as there were live points to find. Also measures how many of the ids
  // the seeding inserts returned still name the row they were given for.
  void CheckProbes(const gkm::StreamingGkMeans& model,
                   const std::vector<std::vector<gkm::Neighbor>>& answers) {
    auto live = [&](std::uint32_t id) {
      return id < model.points_seen() && model.graph().IsAlive(id);
    };
    for (const auto& a : answers) {
      out_.Check("serve.probe_result", CheckSearchResult(a, kTopK, live));
    }
    out_.Check("serve.points_alive",
               CheckAlive(model.points_alive(), live_rows_));
    std::size_t stale = 0;
    for (std::size_t r = 0; r < seed_ids_.size(); ++r) {
      const std::uint32_t id = seed_ids_[r];
      stale += !live(id) ||
               !std::equal(mirror_.row[r].begin(), mirror_.row[r].end(),
                           model.graph().Point(id));
    }
    stale_id_frac_ = static_cast<double>(stale) /
                     static_cast<double>(seed_ids_.size());
  }
  double stale_id_frac() const { return stale_id_frac_; }

  void CheckTallies() {
    out_.Check("serve.tallies",
               perfbench::CheckTallies(tally_, server_->Stats()));
  }

  const gkm::serve::ServerOptions& options() const { return opts_; }

  // Pre-generated ingest rows and removal picks for the measured phases.
  void PrepareIngest(std::size_t ops) {
    ingest_rows_ = SampleMixture(GmmSpec(), (ops / 2 + 1) * kInsertRows,
                                 args_.seed, 3);
    next_row_ = 0;
    remove_rng_ = gkm::Rng(args_.seed ^ 0x7e30);
    pick_.resize(kInsertRows);
    for (std::size_t i = 0; i < kInsertRows; ++i) pick_[i] = i;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) {
    std::fprintf(stderr, "serve_mixed: %s\n", why.c_str());
    std::exit(2);
  }

  // Inserts `w` until accepted; returns the assigned ids and mirrors them.
  std::vector<std::uint32_t> Insert(Client& c, const gkm::Matrix& w,
                                    Phase* ph) {
    std::vector<std::uint32_t> ids;
    for (;;) {
      const Client::Status st = c.Insert(w, &ids);
      if (ph == nullptr) out_.Op("Insert", st == Client::Status::kOk);
      if (st == Client::Status::kOk) break;
      if (st == Client::Status::kTransport) Fail("insert: transport error");
      if (ph != nullptr) {
        ++ph->refused_ingest;
      } else {
        ++tally_.refused;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (ph == nullptr) ++tally_.inserts;
    const std::string why = CheckIdsUnique(ids, w.rows());
    if (ph == nullptr) {
      out_.Check("serve.insert_ids", why);
    } else if (!why.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      ph->violations.push_back(why);  // checked after the phase
    }
    last_rows_.clear();
    for (std::size_t r = 0; r < w.rows(); ++r) {
      last_rows_.push_back(mirror_.Add(w.Row(r)));
    }
    return ids;
  }

  void QueryLane(std::size_t lane, const std::vector<Rung>& plan, Phase& ph,
                 SpanRecorder& rec) {
    std::string error;
    std::unique_ptr<Client> c = Client::Connect(server_->port(), &error);
    if (c == nullptr) Fail("connect: " + error);
    gkm::Rng rng(args_.seed * 1000003 + lane + 1);
    std::uint64_t sent_count = 0, ok_count = 0, refused = 0, n = 0;
    std::uint64_t request = static_cast<std::uint64_t>(lane) << 40;
    std::vector<gkm::Neighbor> res;
    // Under concurrent ingest no id can be called live or dead from the
    // client side; ids are checked against the model on the probes.
    auto id_ok = [](std::uint32_t) { return true; };
    std::vector<std::string> violations;
    const std::uint64_t root = rec.Begin("serve_mixed", "query_lane");
    std::uint64_t abandoned = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const double lane_rate =
          kLadder[plan[i].ladder] / static_cast<double>(lanes_);
      auto [begin, end] = ph.rung_window[i];
      double due = begin;
      bool behind = false;
      for (;;) {
        due += -std::log(1.0 - rng.UniformDouble()) / lane_rate;
        if (due >= end) break;
        behind = behind || NowS() - due > kAbandonS;
        if (behind) {  // never sent: a miss, not a failed operation
          ph.rungs[i][lane].Record(due * 1e6, due * 1e6,
                                   std::numeric_limits<double>::infinity(),
                                   true);
          ++abandoned;
          continue;
        }
        const double send_at = OpenLoopLane::SendTime(due, NowS());
        if (send_at > NowS()) {
          ScopedSpan wait(rec, "loadgen", "WaitDue");
          // Sleep, never spin: a spinning generator steals the cores the
          // daemon's threads need. Oversleep counts as lateness.
          std::this_thread::sleep_for(
              std::chrono::duration<double>(send_at - NowS()));
        }
        const double sent = NowS();
        ++sent_count;
        const float* q = queries_.Row((lane * 1361 + n++) % kQueryPool);
        Client::Status st = Client::Status::kOk;
        {
          ScopedSpan call(rec, "serve/client", "Search", ++request);
          st = c->Search(q, kDim, kTopK, &res);
        }
        const double done = NowS();
        bool ok = st == Client::Status::kOk;
        if (ok) {
          const std::string why = CheckSearchResult(res, kTopK, id_ok);
          if (!why.empty()) {
            violations.push_back(why);
            ok = false;
          } else {
            ++ok_count;
          }
        } else if (st == Client::Status::kRefused) {
          ++refused;
        } else {
          Fail("search: transport error");
        }
        ph.rungs[i][lane].Record(due * 1e6, sent * 1e6, done * 1e6, ok);
      }
    }
    rec.End(root);
    std::lock_guard<std::mutex> lock(mu_);
    ph.search_sent += sent_count;
    ph.search_ok += ok_count;
    ph.refused_search += refused;
    ph.abandoned += abandoned;
    ph.violations.insert(ph.violations.end(), violations.begin(),
                         violations.end());
  }

  void IngestLane(double t0, std::size_t ops, Phase& ph, SpanRecorder& rec) {
    std::string error;
    std::unique_ptr<Client> c = Client::Connect(server_->port(), &error);
    if (c == nullptr) Fail("connect: " + error);
    const std::uint64_t root = rec.Begin("serve_mixed", "ingest_lane");
    double last_sample = 0.0;
    auto sample = [&] {
      const gkm::serve::StatsResponse s = server_->Stats();
      ph.depth.push_back(DepthSample{NowS(), double(s.search_queue_depth),
                                     double(s.ingest_queue_depth)});
      last_sample = NowS();
    };
    std::vector<std::uint8_t> removed;
    for (std::size_t i = 0; i < ops; ++i) {
      const double due = t0 + static_cast<double>(i) / kIngestOpsPerS;
      {
        ScopedSpan wait(rec, "loadgen", "WaitDue");
        while (NowS() < due) {
          if (NowS() - last_sample >= kStatsSampleS) sample();
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::clamp<long>(long((due - NowS()) * 1e6), 0, 1000)));
        }
      }
      const double sent = NowS();
      if (i % 2 == 0) {
        const gkm::Matrix w = Rows(ingest_rows_, next_row_, kInsertRows);
        next_row_ += kInsertRows;
        {
          ScopedSpan call(rec, "serve/client", "Insert");
          last_ids_ = Insert(*c, w, &ph);
        }
        ph.inserts.Record(due * 1e6, sent * 1e6, NowS() * 1e6,
                          last_ids_.size() == kInsertRows);
        ++ph.inserts_ok;
      } else {
        // Removals name ids the previous insert just returned (the ids
        // most likely to still name their rows, see Mirror).
        remove_rng_.Shuffle(pick_);
        std::vector<std::uint32_t> ids;
        std::vector<std::size_t> rows;
        for (std::size_t k = 0; k < kRemoveIds; ++k) {
          ids.push_back(last_ids_[pick_[k]]);
          rows.push_back(last_rows_[pick_[k]]);
        }
        Client::Status st = Client::Status::kOk;
        for (;;) {
          ScopedSpan call(rec, "serve/client", "Remove");
          st = c->Remove(ids, &removed);
          if (st != Client::Status::kRefused) break;
          ++ph.refused_ingest;
        }
        if (st == Client::Status::kTransport) Fail("remove: transport error");
        // An id the insert just returned may already be stale: the same
        // window's migration sweep can move a fresh row to its home shard
        // under a new id, and kRemove answers 0 for a stale id by design.
        // So a 0 is counted, not failed; the row stays live in the mirror,
        // and the points_alive check after the run rejects any answer
        // that disagrees with what the daemon really removed.
        const std::string why = CheckRemoveAnswer(removed, ids.size());
        const bool ok = why.empty();
        for (std::size_t r = 0; ok && r < removed.size(); ++r) {
          if (removed[r] == 1) {
            mirror_.alive[rows[r]] = 0;
            ++ph.removed;
          } else {
            ++ph.remove_stale;
          }
        }
        ph.remove_ids += ids.size();
        if (!ok) {
          std::lock_guard<std::mutex> lock(mu_);
          ph.violations.push_back(why);
        }
        ph.removes.Record(due * 1e6, sent * 1e6, NowS() * 1e6, ok);
      }
    }
    rec.End(root);
  }

  const Args& args_;
  Outcome& out_;
  std::mutex mu_;  // guards the Phase fields lanes share (violations, tallies)
  gkm::serve::ServerOptions opts_;
  gkm::Matrix queries_;
  std::size_t lanes_ = 1;
  std::unique_ptr<gkm::serve::Server> server_;
  std::unique_ptr<Client> client_;
  Mirror mirror_;
  ClientTally tally_;
  std::vector<std::uint32_t> seed_ids_;
  gkm::Matrix ingest_rows_;
  std::size_t next_row_ = 0;
  gkm::Rng remove_rng_;
  std::vector<std::size_t> pick_;
  std::vector<std::uint32_t> last_ids_;   // ids of the latest insert
  std::vector<std::size_t> last_rows_;    // their mirror rows
  std::size_t live_rows_ = 0;
  double stale_id_frac_ = 0.0;
};

std::vector<double> Merge(const std::vector<OpenLoopLane>& lanes,
                          bool lateness) {
  std::vector<double> all;
  for (const OpenLoopLane& l : lanes) {
    const auto& v = lateness ? l.lateness() : l.latencies();
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

// Judges every rung of `ph`, run from `plan`.
std::vector<RungVerdict> Judge(const Phase& ph, const std::vector<Rung>& plan,
                               Outcome& out) {
  std::vector<RungVerdict> verdicts;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    RungObservation o;
    o.offered_rate = kLadder[plan[i].ladder];
    o.latencies = Merge(ph.rungs[i], false);
    o.lateness = Merge(ph.rungs[i], true);
    const auto [begin, end] = ph.rung_window[i];
    const double mid = 0.5 * (begin + end);
    for (const DepthSample& s : ph.depth) {
      if (s.t >= begin && s.t < mid) o.depth_first_half.push_back(s.search);
      if (s.t >= mid && s.t < end) o.depth_second_half.push_back(s.search);
    }
    verdicts.push_back(JudgeRung(o, kLimits));
    const RungVerdict& v = verdicts.back();
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "rung %6.0f/s: %5zu queries p99 %8.0f us late p99 %7.0f us "
                  "depth %+5.1f %s%s",
                  o.offered_rate, v.samples, v.p99, v.late_p99,
                  v.depth_growth, v.accepted ? "ok" : "REJECTED ",
                  v.reason.c_str());
    out.Note(buf);
  }
  out.Note("serve.remove_stale = " + std::to_string(ph.remove_stale) +
           " of " + std::to_string(ph.remove_ids) +
           " removal ids answered 0 (moved to a new id by the window that "
           "inserted them)");
  if (ph.abandoned > 0) {
    out.Note(std::to_string(ph.abandoned) +
             " arrivals skipped by lanes more than " +
             std::to_string(kAbandonS) + " s behind (counted as misses)");
  }
  return verdicts;
}

void RunUntraced(const Args& args, Outcome& out) {
  Harness h(args, out);
  std::vector<double> setup;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    setup.push_back(h.SetUp());
    if (r + 1 < kSetupReps) h.TearDown();
  }
  const std::vector<Rung> plan = Plan(args.seconds);
  h.PrepareIngest(static_cast<std::size_t>(kIngestOpsPerS * args.seconds) + 2);
  SpanRecorder untraced(false);
  const Phase ph = h.Run(plan, untraced);
  const std::vector<RungVerdict> verdicts = Judge(ph, plan, out);

  std::vector<std::vector<gkm::Neighbor>> answers;
  const double recall = h.Probe(&answers);
  h.CheckTallies();
  const gkm::serve::ServerOptions opts = h.options();
  h.TearDown();
  const gkm::StreamingGkMeans model =
      gkm::LoadStreamCheckpoint(opts.checkpoint_base);
  RemoveFiles(opts);
  h.CheckProbes(model, answers);
  out.Note("serve.stale_id_frac = " + std::to_string(h.stale_id_frac()) +
           " (seeded ids that no longer name their row)");

  const std::vector<double> ref = Merge(ph.rungs[kReferenceRung], false);
  const TailPick tail = PickTailPercentile(ref, 10, {99.0});
  const double qps = SustainedRate(kLadder, verdicts);
  out.Set("setup_s", Median(setup), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> ms;
  for (double us : ref) ms.push_back(us * 1e-3);
  SetOpTimes(out, ms);
  out.Set("throughput_per_s", qps, "1/s");
  out.Set("distortion", model.Distortion(), "dist2");
  out.Set("recall_at_10", recall, "ratio");
  out.Set("search_p50_us", Median(ref), "us");
  out.Set("search_p90_us", Percentile(ref, 90), "us");
  out.Set("search_p99_us", tail.value, "us");
  out.Set("search_max_qps", qps, "1/s");
  out.Set("insert_p50_us", Percentile(ph.inserts.latencies(), 50), "us");
  out.Set("insert_p90_us", Percentile(ph.inserts.latencies(), 90), "us");
}

// Encode + decode of one top-10 search request and its response (us).
double CodecMicros(const gkm::Matrix& probes, Outcome& out) {
  constexpr std::size_t kIters = 2000;
  std::vector<double> us;
  gkm::serve::SearchResponse resp;
  resp.results.assign(1, {});
  for (std::uint32_t i = 0; i < kTopK; ++i) {
    resp.results[0].push_back(gkm::Neighbor{i * 7, 0.5f * i});
  }
  bool ok = true;
  for (std::size_t it = 0; it < kIters; ++it) {
    const float* q = probes.Row(it % probes.rows());
    const double t0 = NowS();
    std::vector<std::uint8_t> bytes;
    gkm::serve::AppendFrame(bytes,
                            gkm::serve::MakeSearchRequest(it, kTopK, q, kDim));
    gkm::serve::AppendFrame(bytes,
                            gkm::serve::MakeSearchResponse(it, false, resp));
    gkm::serve::FrameParser parser;
    parser.Feed(bytes.data(), bytes.size());
    gkm::serve::Frame req_f, resp_f;
    gkm::serve::SearchRequest req;
    gkm::serve::SearchResponse got;
    ok &= parser.Next(&req_f) == gkm::serve::FrameParser::Status::kFrame;
    ok &= parser.Next(&resp_f) == gkm::serve::FrameParser::Status::kFrame;
    ok &= gkm::serve::DecodeSearchRequest(req_f, &req) == nullptr;
    ok &= gkm::serve::DecodeSearchResponse(resp_f, &got) == nullptr;
    us.push_back((NowS() - t0) * 1e6);
    ok &= got.results == resp.results;
  }
  out.Op("codec", ok);
  return Median(us);
}

void RunTraced(const Args& args, Outcome& out) {
  Harness h(args, out);
  h.SetUp();
  const std::vector<Rung> plan = Plan(args.seconds);
  const double ref_s = 2.0;
  h.PrepareIngest(static_cast<std::size_t>(
                      kIngestOpsPerS * (args.seconds + ref_s)) + 4);
  double untraced_p50 = 0.0;
  if (args.overhead) {
    SpanRecorder untraced(false);
    const Phase pre = h.Run({Rung{kReferenceRung, ref_s}}, untraced);
    untraced_p50 = Median(Merge(pre.rungs[0], false));
  }

  SpanRecorder rec(true);
  const Scrape before = Scrape::Now();
  const Phase ph = h.Run(plan, rec);
  const Scrape after = Scrape::Now();
  const std::vector<RungVerdict> verdicts = Judge(ph, plan, out);
  std::vector<std::vector<gkm::Neighbor>> answers;
  h.Probe(&answers);
  h.CheckTallies();
  const gkm::serve::ServerOptions opts = h.options();
  h.TearDown();

  // In-process search on the model the daemon checkpointed at shutdown.
  gkm::StreamingGkMeans model =
      gkm::LoadStreamCheckpoint(opts.checkpoint_base);
  RemoveFiles(opts);
  h.CheckProbes(model, answers);
  out.Set("serve.stale_id_frac", h.stale_id_frac(), "ratio");
  model.PublishReadState();
  const gkm::Matrix probes = SampleMixture(GmmSpec(), kProbes, args.seed, 1);
  std::vector<double> inproc_us;
  gkm::SearchScratch scratch;
  bool same = true;
  for (std::size_t q = 0; q < kProbes; ++q) {
    const gkm::Matrix one = Rows(probes, q, 1);
    ScopedSpan s(rec, "stream/sharded_online_knn_graph",
                 "SearchKnnBatchReplica");
    const double t0 = NowS();
    const auto res = model.graph().SearchKnnBatchReplica(one, kTopK, scratch);
    inproc_us.push_back((NowS() - t0) * 1e6);
    same &= res.size() == 1 && res[0] == answers[q];
  }
  out.Check("serve.replay_matches_daemon",
            same ? "" : "in-process search on the checkpointed model differs "
                        "from the daemon's answers");

  auto delta = [&](const std::string& name) {
    return static_cast<double>(after.Counter(name) - before.Counter(name));
  };
  const std::vector<double> ref = Merge(ph.rungs[kReferenceRung], false);
  const double client_p50 = Median(ref);
  const double inproc_p50 = Median(inproc_us);
  const Ratio spill{"serve.route.spill_frac", "serve.route.spill",
                    delta("serve.route.spill"), "serve.route.hit",
                    delta("serve.route.hit"), "count"};
  const Ratio replica{"serve.replica.read_frac", "serve.replica.reads",
                      delta("serve.replica.reads"), "searches",
                      delta("serve.search_batch.queries") +
                          delta("serve.replica.reads"),
                      "count"};
  double search_depth = 0.0, ingest_depth = 0.0;
  for (const DepthSample& s : ph.depth) {
    search_depth = std::max(search_depth, s.search);
    ingest_depth = std::max(ingest_depth, s.ingest);
  }
  // Generator lateness on the highest rung that held (the reference rung
  // if none above it did).
  std::size_t top = kReferenceRung;
  for (std::size_t i = 0; i < verdicts.size() && verdicts[i].accepted; ++i) {
    top = i;
  }
  const std::vector<double> late = Merge(ph.rungs[top], true);
  out.Set("search.inproc_p50_us", inproc_p50, "us");
  out.Set("serve.overhead_p50_us", client_p50 - inproc_p50, "us");
  out.Note("serve.overhead_p50_us = client p50 " + std::to_string(client_p50) +
           " us - in-process p50 " + std::to_string(inproc_p50) + " us");
  out.Set("protocol.codec_us", CodecMicros(probes, out), "us");
  out.Set("serve.batcher.batch_rows_p50",
          HistogramDelta(after.Histogram("serve.batcher.batch_rows"),
                         before.Histogram("serve.batcher.batch_rows"))
              .Quantile(0.5),
          "rows");
  out.Set("serve.batcher.flushes", delta("serve.batcher.flushes"), "count");
  out.Set("serve.replica.read_frac", replica.value(), "ratio");
  out.Note(replica.Format());
  out.Set("serve.route.spill_frac", spill.value(), "ratio");
  out.Note(spill.Format());
  out.Set("serve.search_queue_depth_max", search_depth, "count");
  out.Set("serve.ingest_queue_depth_max", ingest_depth, "count");
  out.Set("serve.overloaded", delta("serve.overloaded"), "count");
  out.Set("loadgen.late_p99_us", Percentile(late, 99), "us");
  out.Set("process.cpu_util", ph.cpu_s / ph.wall_s, "ratio");
  out.Set("trace.coverage", rec.Coverage("serve_mixed"), "ratio");
  if (args.overhead) {
    const Ratio oh{"trace.overhead", "traced_p50", client_p50, "untraced_p50",
                   untraced_p50, "us"};
    out.Set("trace.overhead_frac", oh.value() - 1.0, "ratio");
    out.Note(oh.Format());
  }
  NoteSelfTimes(out, rec, "serve_mixed");
  rec.WriteJsonl(args.work_dir + "/spans_serve_mixed.jsonl");
}

}  // namespace

void RunServeMixed(const Args& args, Outcome& out) {
  if (args.trace) {
    RunTraced(args, out);
  } else {
    RunUntraced(args, out);
  }
}

}  // namespace perfbench
