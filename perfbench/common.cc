// Copyright 2026 The gkmeans Authors.
// Helpers shared by the workloads (see workloads.h).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

gkm::Matrix SampleMixture(const MixtureSpec& spec, std::size_t n,
                          std::uint64_t seed, std::uint64_t salt) {
  // Components from the fixed shape seed.
  gkm::Rng shape(spec.shape_seed);
  gkm::Matrix centers(spec.modes, spec.dim);
  std::vector<double> scale(spec.modes);
  for (std::size_t m = 0; m < spec.modes; ++m) {
    for (std::size_t j = 0; j < spec.dim; ++j) {
      centers.Row(m)[j] =
          static_cast<float>(shape.Gaussian() * spec.center_spread);
    }
    scale[m] = spec.cluster_spread *
               (1.0 + spec.spread_jitter * (2.0 * shape.UniformDouble() - 1.0));
  }
  std::vector<double> dim_scale(spec.dim);
  for (double& s : dim_scale) s = 0.5 + shape.UniformDouble();
  std::vector<double> cdf(spec.modes);
  double total = 0.0;
  for (std::size_t m = 0; m < spec.modes; ++m) {
    total += 1.0 / std::pow(static_cast<double>(m + 1), spec.zipf_s);
    cdf[m] = total;
  }
  for (double& c : cdf) c /= total;

  // Samples from the run seed.
  gkm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
               1);
  gkm::Matrix out(n, spec.dim);
  for (std::size_t i = 0; i < n; ++i) {
    float* x = out.Row(i);
    if (rng.UniformDouble() < spec.noise_fraction) {
      for (std::size_t j = 0; j < spec.dim; ++j) {
        x[j] = static_cast<float>(rng.Gaussian() * spec.center_spread * 1.2);
      }
    } else {
      const double u = rng.UniformDouble();
      const std::size_t m = std::min<std::size_t>(
          spec.modes - 1,
          static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                   cdf.begin()));
      const float* c = centers.Row(m);
      for (std::size_t j = 0; j < spec.dim; ++j) {
        x[j] = c[j] + static_cast<float>(rng.Gaussian() * scale[m] *
                                         dim_scale[j]);
      }
    }
    if (spec.sift_like) {
      for (std::size_t j = 0; j < spec.dim; ++j) {
        x[j] = std::round(std::clamp(x[j] + 60.0f, 0.0f, 255.0f));
      }
    }
  }
  return out;
}

gkm::Matrix Rows(const gkm::Matrix& m, std::size_t begin, std::size_t count) {
  gkm::Matrix out(count, m.cols());
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(m.Row(begin + i), m.Row(begin + i) + m.cols(), out.Row(i));
  }
  return out;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::size_t Cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void SetOpTimes(Outcome& out, const std::vector<double>& ms) {
  const TailPick p90 = PickTailPercentile(ms, 10, {90.0});
  const TailPick top = PickTailPercentile(ms);
  out.Set("op_p50_ms", Median(ms), "ms");
  out.Set("op_tail_ms", p90.value, "ms");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "op time: median %.4g ms, tail p%g %.4g ms, p%g %.4g ms "
                "(%zu samples, %zu beyond)",
                Median(ms), p90.percentile, p90.value, top.percentile,
                top.value, top.samples, top.beyond);
  out.Note(buf);
}

void NoteSelfTimes(Outcome& out, const SpanRecorder& rec,
                   const std::string& root) {
  char buf[160];
  for (const auto& [layer, secs] : rec.SelfSecondsByLayer(root)) {
    std::snprintf(buf, sizeof(buf), "self time %-36s %10.4f s", layer.c_str(),
                  secs);
    out.Note(buf);
  }
}

Scrape Scrape::Now() {
  Scrape s;
  s.snap = gkm::obs::MetricsRegistry::Global().Snapshot();
  return s;
}

std::int64_t Scrape::Counter(const std::string& name) const {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

gkm::obs::HistogramData Scrape::Histogram(const std::string& name) const {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return h;
  }
  gkm::obs::HistogramData empty;
  empty.buckets.assign(gkm::obs::Histogram::kNumBuckets, 0);
  return empty;
}

gkm::obs::HistogramData HistogramDelta(const gkm::obs::HistogramData& after,
                                       const gkm::obs::HistogramData& before) {
  gkm::obs::HistogramData d = after;
  d.buckets.resize(gkm::obs::Histogram::kNumBuckets, 0);
  for (std::size_t i = 0; i < before.buckets.size() && i < d.buckets.size();
       ++i) {
    d.buckets[i] -= std::min(d.buckets[i], before.buckets[i]);
  }
  d.count = after.count - std::min(after.count, before.count);
  d.sum = after.sum - before.sum;
  return d;
}

std::vector<std::vector<gkm::Neighbor>> ExactTopK(const gkm::Matrix& base,
                                                  const gkm::Matrix& queries,
                                                  std::size_t k) {
  std::vector<std::vector<gkm::Neighbor>> out(queries.rows());
  const std::size_t d = base.cols();
  auto work = [&](std::size_t first, std::size_t stride) {
    std::vector<gkm::Neighbor> best;
    for (std::size_t q = first; q < queries.rows(); q += stride) {
      const float* x = queries.Row(q);
      best.clear();
      for (std::size_t i = 0; i < base.rows(); ++i) {
        const float* y = base.Row(i);
        float dist = 0.0f;
        for (std::size_t j = 0; j < d; ++j) {
          const float t = x[j] - y[j];
          dist += t * t;
        }
        const gkm::Neighbor nb{static_cast<std::uint32_t>(i), dist};
        if (best.size() < k) {
          best.push_back(nb);
          std::push_heap(best.begin(), best.end());
        } else if (nb < best.front()) {
          std::pop_heap(best.begin(), best.end());
          best.back() = nb;
          std::push_heap(best.begin(), best.end());
        }
      }
      std::sort_heap(best.begin(), best.end());
      out[q] = best;
    }
  };
  const std::size_t threads = std::min<std::size_t>(Cores(), 8);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work, t, threads);
  for (std::thread& t : pool) t.join();
  return out;
}

double RecallAt(const std::vector<std::vector<std::uint32_t>>& found,
                const std::vector<std::vector<gkm::Neighbor>>& truth) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    if (truth[q].empty()) continue;
    std::size_t hit = 0;
    for (const gkm::Neighbor& t : truth[q]) {
      if (std::find(found[q].begin(), found[q].end(), t.id) != found[q].end()) {
        ++hit;
      }
    }
    sum += static_cast<double>(hit) / static_cast<double>(truth[q].size());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double RecallByDistance(const std::vector<std::vector<gkm::Neighbor>>& found,
                        const std::vector<std::vector<gkm::Neighbor>>& truth) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    if (truth[q].empty()) continue;
    const double kth = truth[q].back().dist;
    std::size_t hit = 0;
    for (const gkm::Neighbor& nb : found[q]) {
      if (nb.dist <= kth * (1.0 + 1e-4) + 1e-6) ++hit;
    }
    sum += static_cast<double>(std::min(hit, truth[q].size())) /
           static_cast<double>(truth[q].size());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

}  // namespace perfbench
