#pragma once

/// \file spans.hpp
/// In-memory span log of the traced run. Every replayed library call is
/// one span (name, start, end, parent event); the spans stay in memory
/// while the run measures and are written out once at the end.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t event;  ///< parent event ordinal (1-based)
    bool root;            ///< the event span itself
  };

  /// Name of the per-event root span; every other span is its child.
  static constexpr const char* kEvent = "event";

  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t event) {
    spans_.push_back(
        Span{name, start, end, event, std::string_view(name) == kEvent});
  }

  /// A parent-event id unique across every run logged here.
  [[nodiscard]] std::uint64_t new_event() noexcept { return ++events_; }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Durations in nanoseconds of every span called \p name.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;

  /// Self time in nanoseconds summed per span name: a span's duration minus
  /// the part of it its child spans (same event, not root) cover.
  [[nodiscard]] std::map<std::string, double> self_ns() const;

  /// Writes one JSON object per span; returns false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t events_ = 0;
};

/// Runs \p body and records it as one span of \p event.
template <typename Body>
void timed_span(SpanLog& log, const char* name, std::uint64_t event,
                Body&& body) {
  const Clock::time_point start = Clock::now();
  body();
  log.add(name, start, Clock::now(), event);
}

}  // namespace perfbench
