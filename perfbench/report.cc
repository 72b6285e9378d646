// Copyright 2026 The gkmeans Authors.

#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Outcome::Op(const std::string& kind, bool ok) {
  Tally& t = ops_[kind];
  ++t.attempted;
  if (!ok) ++t.failed;
}

bool Outcome::Check(const std::string& name, const std::string& violation) {
  const bool ok = violation.empty();
  Op("check." + name, ok);
  if (!ok) {
    failures_.push_back(name + ": " + violation);
  }
  return ok;
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::uint64_t Outcome::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, t] : ops_) n += t.attempted;
  return n;
}

std::uint64_t Outcome::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, t] : ops_) n += t.failed;
  return n;
}

std::string Outcome::Text(const std::string& title) const {
  std::string out = "== " + title + " ==\n";
  char buf[256];
  out += "operations (attempted / failed):\n";
  for (const auto& [kind, t] : ops_) {
    std::snprintf(buf, sizeof(buf), "  %-36s %10llu / %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(t.attempted),
                  static_cast<unsigned long long>(t.failed));
    out += buf;
  }
  for (const std::string& f : failures_) out += "  CHECK FAILED " + f + "\n";
  for (const std::string& n : notes_) out += "  " + n + "\n";
  out += "metrics:\n";
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-40s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Outcome::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"ops\": {";
  bool first = true;
  for (const auto& [kind, t] : ops_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + kind + "\": [" + std::to_string(t.attempted) + ", " +
           std::to_string(t.failed) + "]";
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
