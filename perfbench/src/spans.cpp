#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

[[nodiscard]] double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

std::vector<double> SpanLog::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ns_between(s.start, s.end));
  }
  return out;
}

std::map<std::string, double> SpanLog::self_ns() const {
  std::unordered_map<std::uint64_t, const Span*> roots;
  for (const Span& s : spans_) {
    if (s.root) roots[s.event] = &s;
  }
  std::map<std::string, double> self;
  std::unordered_map<const Span*, double> covered;
  for (const Span& s : spans_) {
    if (s.root) continue;
    self[s.name] += ns_between(s.start, s.end);
    const auto parent = roots.find(s.event);
    if (parent == roots.end()) continue;
    const Clock::time_point lo = std::max(s.start, parent->second->start);
    const Clock::time_point hi = std::min(s.end, parent->second->end);
    if (lo < hi) covered[parent->second] += ns_between(lo, hi);
  }
  for (const auto& [event, root] : roots) {
    static_cast<void>(event);
    self[kEvent] += ns_between(root->start, root->end) - covered[root];
  }
  return self;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  char line[256];
  for (const Span& s : spans_) {
    const int n = std::snprintf(
        line, sizeof line,
        "{\"name\": \"%s\", \"start_ns\": %.0f, \"end_ns\": %.0f, "
        "\"event\": %llu, \"parent\": %s}\n",
        s.name, ns_between(origin, s.start), ns_between(origin, s.end),
        static_cast<unsigned long long>(s.event),
        s.root ? "null" : "\"event\"");
    out.write(line, std::min<std::streamsize>(n, sizeof line - 1));
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
