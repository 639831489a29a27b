#include "spans.h"

#include <fstream>
#include <unordered_map>

namespace perfbench {

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::vector<SpanRecord> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = spans_;
  }
  std::sort(copy.begin(), copy.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return copy;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : Spans()) {
    out << "{\"name\":" << JsonString(s.name) << ",\"start_s\":" << JsonNumber(s.start)
        << ",\"end_s\":" << JsonNumber(s.end) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<double, double>> covered;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const double lo = std::max(c->start, s.start);
        const double hi = std::min(c->end, s.end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double child_time = 0.0;
    double cursor = s.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, cursor);
      if (hi > from) {
        child_time += hi - from;
        cursor = hi;
      }
    }
    SpanTotals& t = totals[s.name];
    const double duration = s.end - s.start;
    ++t.count;
    t.total_seconds += duration;
    t.self_seconds += duration - child_time;
    t.durations.push_back(duration);
  }
  return totals;
}

}  // namespace perfbench
