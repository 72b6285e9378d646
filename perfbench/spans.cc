// Copyright 2026 The gkmeans Authors.

#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {

// Innermost open span per thread (one recorder is live at a time).
thread_local std::vector<std::uint64_t> t_stack;

}  // namespace

std::uint64_t SpanRecorder::Begin(const std::string& layer,
                                  const std::string& name,
                                  std::uint64_t request) {
  if (!enabled_) return 0;
  Span s;
  s.parent = t_stack.empty() ? 0 : t_stack.back();
  s.layer = layer;
  s.name = name;
  s.request = request;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.id = next_id_++;
    open_[s.id] = spans_.size();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    t_stack.push_back(spans_.back().id);
  }
  return t_stack.back();
}

void SpanRecorder::End(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

void SpanRecorder::AddChild(std::uint64_t parent, const std::string& layer,
                            const std::string& name, double seconds) {
  if (!enabled_ || parent == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t start = 0;
  for (const Span& p : spans_) {
    if (p.id == parent) start = p.start_ns;
  }
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.start_ns = start;
  s.end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  for (const Span& s : spans_) {
    if (s.end_ns != 0) closed.push_back(s);
  }
  return closed;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer(
    const std::string& root_layer) const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, const Span*> by_id;
  std::map<std::uint64_t, double> child_ns;
  for (const Span& s : all) {
    by_id[s.id] = &s;
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    const Span* root = &s;
    while (root->parent != 0 && by_id.count(root->parent) != 0) {
      root = by_id[root->parent];
    }
    if (root->parent != 0 || root->layer != root_layer) continue;
    self[s.layer] +=
        (static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id]) * 1e-9;
  }
  return self;
}

double SpanRecorder::LayerSeconds(const std::string& layer) const {
  double total = 0.0;
  for (const Span& s : spans()) {
    if (s.layer == layer) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total * 1e-9;
}

double SpanRecorder::Coverage(const std::string& root_layer) const {
  double root_s = 0.0;
  for (const Span& s : spans()) {
    if (s.parent == 0 && s.layer == root_layer) {
      root_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  if (root_s <= 0.0) return 0.0;
  return 1.0 - SelfSecondsByLayer(root_layer)[root_layer] / root_s;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"layer\": \"%s\", "
                 "\"name\": \"%s\", \"request\": %llu, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.layer.c_str(),
                 s.name.c_str(), static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
