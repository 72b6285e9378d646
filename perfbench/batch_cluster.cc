// Copyright 2026 The gkmeans Authors.
// Workload batch_cluster: the paper's pipeline, GkMeansCluster (Alg. 3
// graph + Alg. 2 clustering), on SIFT-like data (n=50k, d=128, k=1000)
// with the Fig. 5 parameters (κ=20, ξ=50, τ=8, 30 iterations).
//
// Set-up is loading the corpus through dataset/io (ReadFvecs), repeated
// and reported as the median. The measured phase repeats GkMeansCluster
// until the time budget is spent; every repeat must report the same
// distortion. The traced pass calls the two stages separately (the same
// two calls GkMeansCluster makes) and runs Lloyd on the same data and k as
// the reference.

#include <algorithm>
#include <cstdio>

#include "checks.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "dataset/io.h"
#include "eval/metrics.h"
#include "kmeans/lloyd.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kN = 50000;
constexpr std::size_t kDim = 128;
constexpr std::size_t kK = 1000;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kRecallSamples = 500;
constexpr std::size_t kRecallAt = 10;

MixtureSpec SiftSpec() {
  MixtureSpec s;
  s.dim = kDim;
  s.modes = kN / 400;
  s.zipf_s = 0.9;
  s.center_spread = 24.0;
  s.cluster_spread = 11.0;
  s.noise_fraction = 0.03;
  s.shape_seed = 128;
  s.sift_like = true;
  return s;
}

gkm::PipelineParams Params(std::uint64_t seed) {
  gkm::PipelineParams p;
  p.k = kK;
  p.graph.kappa = 20;
  p.graph.xi = 50;
  p.graph.tau = 8;
  p.graph.seed = seed;
  p.clustering.kappa = 20;
  p.clustering.max_iters = 30;
  p.clustering.seed = seed;
  return p;
}

// Recall@10 of the graph's lists over sampled nodes, against brute force.
double GraphRecall(const gkm::Matrix& data, const gkm::KnnGraph& graph,
                   std::uint64_t seed) {
  gkm::Rng rng(seed ^ 0x5eed);
  const std::vector<std::uint32_t> nodes =
      rng.SampleDistinct(data.rows(), kRecallSamples);
  gkm::Matrix queries(nodes.size(), data.cols());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::copy(data.Row(nodes[i]), data.Row(nodes[i]) + data.cols(),
              queries.Row(i));
  }
  std::vector<std::vector<gkm::Neighbor>> truth =
      ExactTopK(data, queries, kRecallAt + 1);
  std::vector<std::vector<std::uint32_t>> found(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto& t = truth[i];
    auto self = std::find_if(t.begin(), t.end(), [&](const gkm::Neighbor& nb) {
      return nb.id == nodes[i];
    });
    t.erase(self != t.end() ? self : t.end() - 1);
    for (const gkm::Neighbor& nb : graph.SortedNeighbors(nodes[i])) {
      if (found[i].size() == kRecallAt) break;
      found[i].push_back(nb.id);
    }
  }
  return RecallAt(found, truth);
}

// Runs the output checks on one clustering; returns whether all held.
bool CheckClustering(const gkm::Matrix& data, const gkm::ClusteringResult& r,
                     Outcome& out) {
  if (!out.Check("batch.labels", CheckLabels(r.assignments, kN, kK))) {
    return false;
  }
  const double recomputed = gkm::AverageDistortion(data, r.assignments, kK);
  return out.Check("batch.distortion_recomputed",
                   CheckDistortion(r.distortion, recomputed));
}

void RunUntraced(const Args& args, const gkm::Matrix& data, Outcome& out) {
  // Set-up: load the corpus through the library's reader.
  const std::string path = args.work_dir + "/batch_corpus.fvecs";
  gkm::WriteFvecs(path, data);
  std::vector<double> setup;
  gkm::Matrix corpus;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const double t0 = NowS();
    corpus = gkm::ReadFvecs(path);
    setup.push_back(NowS() - t0);
    out.Op("ReadFvecs", corpus.rows() == kN && corpus.cols() == kDim);
  }
  std::remove(path.c_str());

  const gkm::PipelineParams params = Params(args.seed);
  std::vector<double> secs;
  std::vector<double> distortions;
  gkm::PipelineResult last;
  const double start = NowS();
  do {
    const double t0 = NowS();
    last = gkm::GkMeansCluster(corpus, params);
    secs.push_back(NowS() - t0);
    distortions.push_back(last.clustering.distortion);
    out.Op("GkMeansCluster", CheckClustering(corpus, last.clustering, out));
  } while (NowS() - start < args.seconds);
  out.Check("batch.repeatable", CheckIdentical(distortions));

  const double batch_s = Median(secs);
  const double recall = GraphRecall(corpus, last.graph, args.seed);
  out.Set("setup_s", Median(setup), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> ms;
  for (double s : secs) ms.push_back(s * 1e3);
  SetOpTimes(out, ms);
  out.Set("throughput_per_s", static_cast<double>(kN) / batch_s, "1/s");
  out.Set("distortion", distortions.front(), "dist2");
  out.Set("recall_at_10", recall, "ratio");
  out.Set("batch_s", batch_s, "s");
}

void RunTraced(const Args& args, const gkm::Matrix& data, Outcome& out) {
  const gkm::PipelineParams params = Params(args.seed);
  double untraced_s = 0.0;
  double untraced_distortion = 0.0;
  if (args.overhead) {
    const double t0 = NowS();
    const gkm::PipelineResult r = gkm::GkMeansCluster(data, params);
    untraced_s = NowS() - t0;
    untraced_distortion = r.clustering.distortion;
    out.Op("GkMeansCluster", CheckClustering(data, r.clustering, out));
  }

  SpanRecorder rec(true);
  gkm::GraphBuildStats stats;
  gkm::KnnGraph graph;
  gkm::ClusteringResult res;
  const double cpu0 = CpuSeconds();
  const double wall0 = NowS();
  {
    ScopedSpan root(rec, "batch_cluster", "GkMeansCluster");
    {
      ScopedSpan s(rec, "core/graph_builder", "BuildKnnGraph");
      graph = gkm::BuildKnnGraph(data, params.graph, &stats);
    }
    {
      ScopedSpan s(rec, "core/gk_means", "GkMeansWithGraph");
      gkm::GkMeansParams cp = params.clustering;
      cp.k = params.k;
      res = gkm::GkMeansWithGraph(data, graph, cp);
      rec.AddChild(s.id(), "kmeans/two_means_tree", "TwoMeansTree",
                   res.init_seconds);
    }
  }
  const double wall = NowS() - wall0;
  const double cpu = CpuSeconds() - cpu0;
  out.Op("GkMeansWithGraph", CheckClustering(data, res, out));
  if (args.overhead) {
    out.Check("batch.staged_matches_pipeline",
              CheckIdentical({untraced_distortion, res.distortion}));
  }

  gkm::ClusteringResult lloyd;
  {
    ScopedSpan s(rec, "kmeans/lloyd", "LloydKMeans");
    gkm::LloydParams lp;
    lp.k = kK;
    lp.max_iters = 30;
    lp.seed = args.seed;
    lloyd = gkm::LloydKMeans(data, lp);
  }
  out.Op("LloydKMeans",
         out.Check("lloyd.labels", CheckLabels(lloyd.assignments, kN, kK)));

  std::vector<double> rounds;
  for (std::size_t i = 0; i < stats.round_seconds.size(); ++i) {
    rounds.push_back(stats.round_seconds[i] -
                     (i == 0 ? 0.0 : stats.round_seconds[i - 1]));
  }
  std::size_t updates = 0;
  for (std::size_t u : stats.round_updates) updates += u;
  std::size_t moves = 0;
  for (const gkm::IterStat& it : res.trace) moves += it.moves;

  const double build_s = rec.LayerSeconds("core/graph_builder");
  const double gk_s = build_s + rec.LayerSeconds("core/gk_means");
  const double lloyd_s = rec.LayerSeconds("kmeans/lloyd");
  out.Set("graph_builder.build_s", build_s, "s");
  out.Set("graph_builder.round_p50_s", Median(rounds), "s");
  out.Set("graph_builder.updates", static_cast<double>(updates), "count");
  out.Set("graph_builder.recall_at_10", GraphRecall(data, graph, args.seed),
          "ratio");
  out.Set("gk_means.init_s", res.init_seconds, "s");
  out.Set("gk_means.iter_s", res.iter_seconds, "s");
  out.Set("gk_means.moves", static_cast<double>(moves), "count");
  out.Set("lloyd.total_s", lloyd_s, "s");
  out.Set("lloyd.distortion", lloyd.distortion, "dist2");
  const Ratio vs{"gk_vs_lloyd", "gk_total_s", gk_s, "lloyd.total_s", lloyd_s,
                 "s"};
  out.Set("gk_vs_lloyd", vs.value(), "ratio");
  out.Note(vs.Format());
  const Ratio dist{"gk_vs_lloyd.distortion", "gk.distortion", res.distortion,
                   "lloyd.distortion", lloyd.distortion, "dist2"};
  out.Note(dist.Format());
  out.Set("process.cpu_util", cpu / wall, "ratio");
  out.Set("trace.coverage", rec.Coverage("batch_cluster"), "ratio");
  if (args.overhead) {
    const Ratio oh{"trace.overhead", "traced_s", wall, "untraced_s",
                   untraced_s, "s"};
    out.Set("trace.overhead_frac", oh.value() - 1.0, "ratio");
    out.Note(oh.Format());
  }
  NoteSelfTimes(out, rec, "batch_cluster");
  rec.WriteJsonl(args.work_dir + "/spans_batch_cluster.jsonl");
}

}  // namespace

void RunBatchCluster(const Args& args, Outcome& out) {
  const gkm::Matrix data = SampleMixture(SiftSpec(), kN, args.seed, 0);
  if (args.trace) {
    RunTraced(args, data, out);
  } else {
    RunUntraced(args, data, out);
  }
}

}  // namespace perfbench
