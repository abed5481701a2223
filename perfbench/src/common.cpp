#include "common.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "metrics/validate.hpp"
#include "util/fnv.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// Streams fixed-size chunks of raw field bytes through FNV-1a and chains
/// the chunk hashes, so a million-job digest needs no million-job buffer.
class ChunkedDigest {
 public:
  template <typename T>
  void put(const T& value) {
    if (used_ + sizeof(T) > buffer_.size()) flush();
    std::memcpy(buffer_.data() + used_, &value, sizeof(T));
    used_ += sizeof(T);
  }

  [[nodiscard]] std::uint64_t finish() {
    flush();
    return dynp::util::fnv1a64(chain_);
  }

 private:
  void flush() {
    const std::uint64_t h =
        dynp::util::fnv1a64(std::string_view(buffer_.data(), used_));
    chain_.append(reinterpret_cast<const char*>(&h), sizeof h);
    used_ = 0;
  }

  std::array<char, 1 << 16> buffer_{};
  std::size_t used_ = 0;
  std::string chain_;
};

}  // namespace

std::uint64_t outcome_digest(const dynp::core::SimulationResult& result) {
  ChunkedDigest digest;
  for (const dynp::metrics::JobOutcome& o : result.outcomes) {
    digest.put(o.id);
    digest.put(o.submit);
    digest.put(o.start);
    digest.put(o.end);
    digest.put(o.width);
    digest.put(o.actual_runtime);
  }
  digest.put(result.events);
  digest.put(result.decisions);
  digest.put(result.switches);
  return digest.finish();
}

bool run_is_valid(const dynp::workload::JobSet& set,
                  const dynp::core::SimulationResult& result) {
  return result.outcomes.size() == set.size() &&
         result.faults.jobs_completed == set.size() &&
         result.events == 2 * static_cast<std::uint64_t>(set.size()) &&
         dynp::metrics::validate_outcomes(set, result.outcomes).ok();
}

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across exec, so that
  // would report the launching process's peak when it was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
