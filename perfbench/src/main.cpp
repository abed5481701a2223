/// perfbench_driver — runs one benchmark workload and prints its result.
///
///   perfbench_driver --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> --work-dir <dir> [--smoke]
///                    [--git-sha <sha>] [--source-digest <hex>]
///
/// Output: a provenance line, a human-readable summary, and as the last
/// line one JSON object {"correct", "attempted", "failed", "metrics"}.
/// `--trace 0` measures the end-to-end metrics with every instrument off;
/// `--trace 1` is the separate traced run that reports the per-layer
/// metrics. `perfbench/run.py` builds this driver and is the entry point.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "obs/instruments.hpp"
#include "workloads.hpp"

#if !defined(PERFBENCH_COMPILER)
#define PERFBENCH_COMPILER "unknown"
#endif
#if !defined(PERFBENCH_BUILD_TYPE)
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// First line of \p path starting with \p prefix, after its ':' (or the
/// whole first line when \p prefix is empty); "unreadable" when absent.
[[nodiscard]] std::string read_field(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (prefix.empty()) return line;
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      std::size_t from = colon == std::string::npos ? line.size() : colon + 1;
      while (from < line.size() && line[from] == ' ') ++from;
      return line.substr(from);
    }
  }
  return "unreadable";
}

void print_provenance(const RunOptions& o, const std::string& git_sha,
                      const std::string& source_digest) {
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"smoke\": %s, \"git_sha\": %s, \"source_digest\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"obs_hooks\": %s, "
      "\"cpu_model\": %s, \"nproc\": %u, \"governor\": %s}}\n",
      json_string(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
      o.smoke ? "true" : "false", json_string(git_sha).c_str(),
      json_string(source_digest).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      dynp::obs::kEnabled ? "true" : "false",
      json_string(read_field("/proc/cpuinfo", "model name")).c_str(),
      std::thread::hardware_concurrency(),
      json_string(read_field(
                      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                      ""))
          .c_str());
}

void print_result(const RunReport& report) {
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("summary:\n");
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %16.6g fraction (%llu of %llu checked operations)\n",
              "failed_frac", failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::string line = "{\"correct\": ";
  line += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i != 0) line += ", ";
    line += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --work-dir "
               "<dir> [--smoke] [--git-sha <sha>] [--source-digest <hex>]\n",
               problem);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (options.workload.empty() || options.work_dir.empty()) {
    usage("--workload and --work-dir are required");
  }
  try {
    print_provenance(options, git_sha, source_digest);
    const RunReport report = perfbench::run_workload(options);
    print_result(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
