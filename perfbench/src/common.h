// Shared helpers of the perfbench runner: clocks, exact quantiles, FNV
// digests, and the metric sink the runner serializes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, the same rule as numpy's default). NaN for no samples.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// 64-bit FNV-1a over raw bytes; order-sensitive.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void Add(const T& value) {
    Bytes(&value, sizeof(value));
  }
  template <class T>
  void AddSpan(std::span<const T> values) {
    Add<uint64_t>(values.size());
    Bytes(values.data(), values.size_bytes());
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Digest of a graph's forward CSR (node count, offsets, targets and
/// probability bit patterns). Computed here rather than borrowed from the
/// library so the churn check does not depend on any one module's digest.
inline uint64_t GraphDigest(const asti::DirectedGraph& graph) {
  Digest d;
  d.Add<uint64_t>(graph.NumNodes());
  d.AddSpan(graph.OutOffsets());
  d.AddSpan(graph.OutTargets());
  d.AddSpan(graph.OutProbs());
  return d.value();
}

inline std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// One reported number. `samples` is the count of raw observations behind
/// it (0 when it is a single measurement or an exact count).
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

/// JSON string escaping for the few free-text fields the runner writes.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number; JSON has no NaN/Inf, so those become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
