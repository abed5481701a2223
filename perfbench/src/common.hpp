#pragma once

/// \file common.hpp
/// Small shared pieces of the benchmark driver: clocks, order statistics,
/// the metric record printed in the result line, and the output checks
/// every timed simulation must pass.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "workload/job.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of \p values; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the operations it checked and the
/// metrics it measured.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation, failed unless \p ok; the first few
  /// failures name their check \p what on stderr.
  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::fprintf(stderr, "check failed: %s\n", what);
  }
};

/// FNV-1a digest of a run's observable output: every job outcome plus the
/// event and decision counters. Equal digests mean byte-identical results.
[[nodiscard]] std::uint64_t outcome_digest(
    const dynp::core::SimulationResult& result);

/// The per-run output contract: the schedule is physically valid
/// (`metrics::validate_outcomes`), every job completed, and each job caused
/// exactly one submit and one finish event.
[[nodiscard]] bool run_is_valid(const dynp::workload::JobSet& set,
                                const dynp::core::SimulationResult& result);

/// Peak resident set size of this process in megabytes.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
