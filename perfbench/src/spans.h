// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent span, request id). Spans are recorded
// only around calls the benchmark itself makes into the library's public
// API; nothing inside src/ is instrumented. A disabled recorder (the
// untraced run) never reads the clock and never allocates.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = -1;   // -1 = root
  int64_t request = -1;  // -1 = not tied to a request
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  double Now() const { return SecondsSince(epoch_); }
  int64_t NextId() { return next_id_.fetch_add(1); }

  void Record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Copy of every recorded span, sorted by start time.
  std::vector<SpanRecord> Spans() const;

  /// Writes one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mutex_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// Scoped span: records [construction, destruction) under `name`. No-op on a
/// null or disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t parent = -1,
             int64_t request = -1)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr) {
    if (recorder_ == nullptr) return;
    span_.name = std::move(name);
    span_.parent = parent;
    span_.request = request;
    span_.id = recorder_->NextId();
    span_.start = recorder_->Now();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end = recorder_->Now();
    recorder_->Record(std::move(span_));
  }

  /// This span's id (parent for nested spans); -1 when not recording.
  int64_t id() const { return recorder_ != nullptr ? span_.id : -1; }

 private:
  SpanRecorder* recorder_;
  SpanRecord span_;
};

/// Per-name totals over a span set: count, summed duration, and summed self
/// time (duration minus the part of the interval covered by children).
struct SpanTotals {
  size_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
  std::vector<double> durations;
};

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
