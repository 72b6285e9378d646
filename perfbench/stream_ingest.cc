// Copyright 2026 The gkmeans Authors.
// Workload stream_ingest: StreamingGkMeans::ObserveWindow over a 64-mode
// GMM stream (d=32, 1000-row windows, k=64, κ=16, 16 split/merge ops per
// window) on the SQ8 arena with 4 unrouted shards and one ingest thread
// per core. The stream grows from an empty model to 100k points; it is
// write-only and deterministic at any thread count.
//
// Set-up is model construction, repeated and reported as the median. The
// measured phase streams kSubStreams independent 100k-point sub-streams of
// the seed into fresh models (quality is lumpy per stream — a missed mode
// costs much — so distortion and recall are the mean over sub-streams).
// The traced pass streams the first sub-stream, splits each window into
// the sharded graph insert (from the library's own
// stream.shard.insert_batch span) and the clustering rest, and adds two
// replays of the same windows: graph-only InsertBatch on a pool of the
// same size, and StreamDeltaLog::AppendWindow. With --overhead it streams
// the sub-stream untraced first (after a warm-up pass), and the passes must
// end in the same distortion.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "checks.h"
#include "common/thread_pool.h"
#include "stats.h"
#include "stream/checkpoint.h"
#include "stream/sharded_online_knn_graph.h"
#include "stream/streaming_gkmeans.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kDim = 32;
constexpr std::size_t kN = 100000;
constexpr std::size_t kWindow = 1000;
constexpr std::size_t kProbes = 1000;
constexpr std::size_t kSetupReps = 51;
constexpr std::size_t kSubStreams = 4;
constexpr std::size_t kTopK = 10;

MixtureSpec GmmSpec() {
  MixtureSpec s;
  s.dim = kDim;
  s.modes = 64;
  s.shape_seed = 64;
  return s;
}

// Rows of sub-stream `j` of `seed`, cut into windows.
std::vector<gkm::Matrix> Windows(std::uint64_t seed, std::size_t j) {
  const gkm::Matrix data = SampleMixture(GmmSpec(), kN, seed, 10 + j);
  std::vector<gkm::Matrix> windows;
  for (std::size_t b = 0; b < kN; b += kWindow) {
    windows.push_back(Rows(data, b, std::min(kWindow, kN - b)));
  }
  return windows;
}

gkm::StreamingGkMeansParams Params(std::uint64_t seed) {
  gkm::StreamingGkMeansParams p;
  p.k = 64;
  p.kappa = 16;
  p.graph.kappa = 16;
  p.graph.shards = 4;
  p.graph.storage = gkm::StorageMode::kSq8;
  p.graph.seed = seed;
  p.max_splits_per_window = 16;
  p.ingest_threads = Cores();
  p.seed = seed;
  return p;
}

struct Pass {
  std::vector<double> window_s;
  std::vector<std::uint32_t> ids;  // assigned id per row, row order
  double distortion = 0.0;
};

// Output checks of one finished stream.
void CheckStream(const gkm::StreamingGkMeans& model, const Pass& pass,
                 Outcome& out) {
  std::uint64_t points = 0;
  for (const gkm::WindowStats& ws : model.history()) points += ws.points;
  out.Check("stream.window_points", CheckWindowPoints(points, kN));
  out.Check("stream.points_alive", CheckAlive(model.points_alive(), kN));
  out.Check("stream.ids_unique", CheckIdsUnique(pass.ids, kN));
}

// Feeds every window; with `rec` each ObserveWindow is a span.
Pass Feed(gkm::StreamingGkMeans& model, const std::vector<gkm::Matrix>& windows,
          Outcome& out, SpanRecorder* rec) {
  Pass pass;
  std::vector<std::uint32_t> assigned;
  for (const gkm::Matrix& w : windows) {
    const double t0 = NowS();
    if (rec != nullptr) {
      static auto& insert_us = gkm::obs::MetricsRegistry::Global().GetHistogram(
          "stream.shard.insert_batch_us");
      ScopedSpan s(*rec, "stream/streaming_gkmeans", "ObserveWindow");
      const double before = insert_us.Snapshot().sum;
      model.ObserveWindow(w, &assigned);
      const double after = insert_us.Snapshot().sum;
      rec->AddChild(s.id(), "stream/sharded_online_knn_graph", "InsertBatch",
                    (after - before) * 1e-6);
    } else {
      model.ObserveWindow(w, &assigned);
    }
    pass.window_s.push_back(NowS() - t0);
    out.Op("ObserveWindow", assigned.size() == w.rows());
    pass.ids.insert(pass.ids.end(), assigned.begin(), assigned.end());
  }
  pass.distortion = model.Distortion();
  CheckStream(model, pass, out);
  return pass;
}

// Held-out probes through the model's search against brute force over the
// stream (every point is live; unrouted shards never renumber a row).
double ProbeRecall(const gkm::StreamingGkMeans& model,
                   const std::vector<gkm::Matrix>& windows,
                   const std::vector<std::uint32_t>& ids,
                   const gkm::Matrix& probes) {
  gkm::Matrix data(kN, kDim);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (std::size_t r = 0; r < windows[w].rows(); ++r) {
      data.SetRow(w * kWindow + r, windows[w].Row(r));
    }
  }
  std::vector<std::uint32_t> row_of(model.points_seen(), UINT32_MAX);
  for (std::size_t r = 0; r < ids.size(); ++r) row_of[ids[r]] = r;
  std::vector<std::vector<std::uint32_t>> found(probes.rows());
  for (std::size_t q = 0; q < probes.rows(); ++q) {
    for (const gkm::Neighbor& nb :
         model.graph().SearchKnn(probes.Row(q), kTopK)) {
      found[q].push_back(row_of[nb.id]);
    }
  }
  return RecallAt(found, ExactTopK(data, probes, kTopK));
}

double SumOf(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void RunUntraced(const Args& args, Outcome& out) {
  std::vector<double> setup;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const double t0 = NowS();
    auto model =
        std::make_unique<gkm::StreamingGkMeans>(kDim, Params(args.seed));
    setup.push_back(NowS() - t0);
  }

  const gkm::Matrix probes = SampleMixture(GmmSpec(), kProbes, args.seed, 1);
  std::vector<double> window_s;
  double distortion = 0.0;
  double recall = 0.0;
  for (std::size_t j = 0; j < kSubStreams; ++j) {
    const std::vector<gkm::Matrix> windows = Windows(args.seed, j);
    gkm::StreamingGkMeans model(kDim, Params(args.seed * kSubStreams + j));
    const Pass pass = Feed(model, windows, out, nullptr);
    window_s.insert(window_s.end(), pass.window_s.begin(), pass.window_s.end());
    distortion += pass.distortion / kSubStreams;
    recall += ProbeRecall(model, windows, pass.ids, probes) / kSubStreams;
  }

  const double pts_per_s = kSubStreams * kN / SumOf(window_s);
  out.Set("setup_s", Median(setup), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> ms;
  for (double w : window_s) ms.push_back(w * 1e3);
  SetOpTimes(out, ms);
  out.Set("throughput_per_s", pts_per_s, "1/s");
  out.Set("distortion", distortion, "dist2");
  out.Set("recall_at_10", recall, "ratio");
  out.Set("ingest_pts_per_s", pts_per_s, "1/s");
  out.Set("window_p50_ms", Percentile(ms, 50), "ms");
  out.Set("window_p90_ms", Percentile(ms, 90), "ms");
}

void RunTraced(const Args& args, Outcome& out) {
  const std::vector<gkm::Matrix> windows = Windows(args.seed, 0);
  const gkm::StreamingGkMeansParams params = Params(args.seed * kSubStreams);
  double untraced_s = 0.0;
  double untraced_distortion = 0.0;
  if (args.overhead) {
    // The first pass in a process pays page faults and pool start-up; it
    // warms up, the second is the untraced reference.
    for (int rep = 0; rep < 2; ++rep) {
      gkm::StreamingGkMeans model(kDim, params);
      const Pass pass = Feed(model, windows, out, nullptr);
      untraced_s = SumOf(pass.window_s);
      untraced_distortion = pass.distortion;
    }
  }

  SpanRecorder rec(true);
  const Scrape before = Scrape::Now();
  gkm::StreamingGkMeans model(kDim, params);
  const double cpu0 = CpuSeconds();
  const double wall0 = NowS();
  Pass pass;
  {
    ScopedSpan root(rec, "stream_ingest", "stream");
    pass = Feed(model, windows, out, &rec);
  }
  const double wall = NowS() - wall0;
  const double cpu = CpuSeconds() - cpu0;
  const Scrape after = Scrape::Now();
  if (args.overhead) {
    out.Check("stream.repeatable",
              CheckIdentical({untraced_distortion, pass.distortion}));
  }

  std::size_t touched = 0, moves = 0, split_merges = 0;
  for (const gkm::WindowStats& ws : model.history()) {
    touched += ws.touched;
    moves += ws.moves;
    split_merges += ws.split_merges;
  }
  auto hist_s = [&](const std::string& name) {
    return HistogramDelta(after.Histogram(name), before.Histogram(name)).sum *
           1e-6;
  };
  const double window_total = SumOf(pass.window_s);
  const double insert_total = hist_s("stream.shard.insert_batch_us");
  out.Set("stream.ingest.walk_s", hist_s("stream.ingest.walk_us"), "s");
  out.Set("stream.ingest.commit_s", hist_s("stream.ingest.commit_us"), "s");
  out.Set("stream.sq8.requantize_rows",
          static_cast<double>(after.Counter("stream.sq8.requantize.rows") -
                              before.Counter("stream.sq8.requantize.rows")),
          "count");
  out.Set("streaming_gkmeans.cluster_s", window_total - insert_total, "s");
  out.Set("streaming_gkmeans.touched", static_cast<double>(touched), "count");
  out.Set("streaming_gkmeans.moves", static_cast<double>(moves), "count");
  out.Set("streaming_gkmeans.split_merges", static_cast<double>(split_merges),
          "count");
  const Ratio move_rate{"streaming_gkmeans.move_rate", "moves",
                        static_cast<double>(moves), "touched",
                        static_cast<double>(touched), "count"};
  out.Set("streaming_gkmeans.move_rate", move_rate.value(), "ratio");
  out.Note(move_rate.Format());
  out.Set("process.cpu_util", cpu / wall, "ratio");
  out.Set("trace.coverage", rec.Coverage("stream_ingest"), "ratio");
  if (args.overhead) {
    const Ratio oh{"trace.overhead", "traced_s", window_total, "untraced_s",
                   untraced_s, "s"};
    out.Set("trace.overhead_frac", oh.value() - 1.0, "ratio");
    out.Note(oh.Format());
  }

  // Graph-only replay of the same windows on a pool of the same size.
  {
    gkm::ShardedOnlineKnnGraph graph(kDim, params.graph);
    gkm::ThreadPool pool(params.ingest_threads);
    double secs = 0.0;
    for (const gkm::Matrix& w : windows) {
      ScopedSpan s(rec, "stream/sharded_online_knn_graph", "InsertBatch");
      const double t0 = NowS();
      graph.InsertBatch(w, &pool);
      secs += NowS() - t0;
    }
    out.Op("InsertBatch", graph.num_alive() == kN);
    out.Set("online_graph.insert_pts_per_s", kN / secs, "1/s");
  }

  // Journal appends of the same windows (what the daemon's ingest worker
  // does before applying each one).
  {
    const std::string base = args.work_dir + "/stream_journal.base";
    const std::string delta = args.work_dir + "/stream_journal.delta";
    std::vector<double> append_us;
    double bytes = 0.0;
    {
      gkm::StreamDeltaLog log(base, delta, gkm::StreamingGkMeans(kDim, params));
      const double header = static_cast<double>(log.journal_bytes());
      for (const gkm::Matrix& w : windows) {
        ScopedSpan s(rec, "stream/checkpoint", "AppendWindow");
        const double t0 = NowS();
        log.AppendWindow(w);
        append_us.push_back((NowS() - t0) * 1e6);
      }
      bytes = static_cast<double>(log.journal_bytes()) - header;
      out.Op("AppendWindow", log.replay_windows() == windows.size());
    }
    std::remove(base.c_str());
    std::remove(delta.c_str());
    out.Set("checkpoint.journal_append_us", Median(append_us), "us");
    out.Set("checkpoint.journal_bytes_per_window",
            bytes / static_cast<double>(windows.size()), "bytes");
  }
  NoteSelfTimes(out, rec, "stream_ingest");
  rec.WriteJsonl(args.work_dir + "/spans_stream_ingest.jsonl");
}

}  // namespace

void RunStreamIngest(const Args& args, Outcome& out) {
  if (args.trace) {
    RunTraced(args, out);
  } else {
    RunUntraced(args, out);
  }
}

}  // namespace perfbench
