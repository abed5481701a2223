#pragma once

/// \file workloads.hpp
/// The benchmark workloads. Each builds its inputs from the seed
/// (timed as set-up), then either measures the end-to-end metrics with
/// tracing off, or runs once traced and reports the per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;     ///< tiny inputs: every code path in seconds
  std::string work_dir;   ///< scratch files (SWF trace, sweep cache, spans)
};

/// Workload names in the order `BENCHMARK.json` lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws `std::invalid_argument` for an unknown name
/// and `std::runtime_error` when its inputs cannot be built.
[[nodiscard]] RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
