#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "core/simulation.hpp"
#include "exp/experiment.hpp"
#include "exp/orchestrator.hpp"
#include "exp/point_cache.hpp"
#include "obs/obs.hpp"
#include "replay.hpp"
#include "sim/event_queue.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"

namespace perfbench {

using namespace dynp;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

/// Input sizes of one workload at full and at smoke scale.
struct Shape {
  std::size_t sets;         ///< job sets (sweep: ensemble sets per trace)
  std::size_t jobs;         ///< jobs per set
  std::size_t setup_reps;   ///< set-up repetitions (median reported)
  std::size_t replay_sets;  ///< sets the traced run replays
  std::uint64_t replay_events;  ///< sampled events per replayed set
};

[[nodiscard]] Shape shape_of(const std::string& workload, bool smoke) {
  if (workload == "replan_kth_dynp") {
    return smoke ? Shape{2, 150, 3, 1, 1000} : Shape{64, 500, 15, 2, 1000};
  }
  if (workload == "guarantee_kth_dynp") {
    return smoke ? Shape{2, 150, 3, 1, 1000} : Shape{64, 200, 15, 2, 400};
  }
  if (workload == "resumable_sweep") {
    return smoke ? Shape{2, 60, 3, 1, 1000} : Shape{16, 150, 15, 1, 4000};
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

/// KTH at the paper's shrinking factor 0.5 under dynP with the paper's
/// SJF-preferred decider.
constexpr double kKthFactor = 0.5;
/// Snapshot interval (events) of every sweep cell.
constexpr std::uint64_t kSweepCheckpointEvery = 200;

// ---------------------------------------------------------------------------
// Simulation workloads: inputs and timed runs
// ---------------------------------------------------------------------------

struct SimInputs {
  std::vector<workload::JobSet> sets;
  core::SimulationConfig config;
  double generate_s = 0;  ///< job generation inside the set-up
};

[[nodiscard]] std::size_t total_jobs(const SimInputs& in) {
  std::size_t n = 0;
  for (const workload::JobSet& set : in.sets) n += set.size();
  return n;
}

[[nodiscard]] SimInputs build_kth_dynp(core::PlannerSemantics semantics,
                                       const Shape& shape,
                                       std::uint64_t seed) {
  SimInputs in;
  const Clock::time_point t0 = Clock::now();
  std::vector<workload::JobSet> raw = workload::generate_ensemble(
      workload::kth_model(), shape.sets, shape.jobs, seed);
  in.generate_s = seconds_between(t0, Clock::now());
  for (const workload::JobSet& set : raw) {
    in.sets.push_back(set.with_shrinking_factor(kKthFactor));
  }
  in.config = core::dynp_config(exp::sjf_preferred_decider());
  in.config.semantics = semantics;
  return in;
}

/// Builds the inputs `shape.setup_reps` times and reports the median
/// set-up time; returns the last build.
[[nodiscard]] SimInputs timed_setup(const std::function<SimInputs()>& build,
                                    std::size_t reps, double& setup_s) {
  std::vector<double> times;
  SimInputs in;
  for (std::size_t r = 0; r < reps; ++r) {
    in = SimInputs{};  // free the previous build before timing the next
    const Clock::time_point t0 = Clock::now();
    in = build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  setup_s = median(times);
  return in;
}

/// Simulates every set repeatedly for about \p seconds. Each run is checked
/// (valid schedule, every job done, digest equal to the set's first run);
/// throughput is total events over the sum of per-set best times (host
/// interference only ever adds time, so the fastest repetition is the
/// steadiest estimate of the code's own cost).
[[nodiscard]] double timed_simulations(const SimInputs& in, double seconds,
                                       RunReport& report) {
  const std::size_t n = in.sets.size();
  std::vector<std::vector<double>> times(n);
  std::vector<std::uint64_t> digests(n);
  std::uint64_t events = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const Clock::time_point rep_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      const core::SimulationResult r = core::simulate(in.sets[i], in.config);
      times[i].push_back(seconds_between(t0, Clock::now()));
      const std::uint64_t digest = outcome_digest(r);
      if (rep == 0) {
        digests[i] = digest;
        events += r.events;
      }
      report.check(run_is_valid(in.sets[i], r) && digest == digests[i],
                   "run output invalid or differs between repetitions");
    }
    const Clock::time_point now = Clock::now();
    if (seconds_between(start, now) + seconds_between(rep_start, now) >
        seconds) {
      break;
    }
  }
  double busy = 0;
  for (const std::vector<double>& t : times) busy += quantile(t, 0.0);
  return static_cast<double>(events) / busy;
}

// ---------------------------------------------------------------------------
// Traced run: existing instruments wired from outside, plus the replay
// ---------------------------------------------------------------------------

/// Sums fields of the tracer's JSONL scheduling-event records as they
/// stream through, so a million-event trace is never stored.
class RecordTally final : public std::streambuf {
 public:
  std::uint64_t jobs_placed = 0;
  std::uint64_t jobs_replayed = 0;
  std::vector<double> segments;  ///< profile segments per event

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const char* end = s + n;
    while (s < end) {
      const char* nl = static_cast<const char*>(
          std::memchr(s, '\n', static_cast<std::size_t>(end - s)));
      if (nl == nullptr) {
        line_.append(s, end);
        break;
      }
      line_.append(s, nl);
      end_line();
      s = nl + 1;
    }
    return n;
  }

 private:
  void end_line() {
    std::uint64_t value = 0;
    if (field(line_, "\"jobs_placed\": ", value)) jobs_placed += value;
    if (field(line_, "\"jobs_replayed\": ", value)) jobs_replayed += value;
    if (field(line_, "\"profile_segments\": ", value)) {
      segments.push_back(static_cast<double>(value));
    }
    line_.clear();
  }

  [[nodiscard]] static bool field(const std::string& line, const char* key,
                                  std::uint64_t& value) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return false;
    value = std::strtoull(line.c_str() + at + std::char_traits<char>::length(key),
                          nullptr, 10);
    return true;
  }

  std::string line_;
};

/// Registry, phase profiler and event tracer of one traced pass (members
/// in construction order; the tracer flushes into the tally on
/// destruction).
struct Instruments {
  obs::Registry registry;
  obs::PhaseProfiler profiler{registry};
  RecordTally tally;
  std::ostream stream{&tally};
  obs::Tracer tracer{stream, obs::TraceFormat::kJsonl};

  [[nodiscard]] double phase_sum(obs::Phase phase) {
    return phase_histogram(phase).sum();
  }
  [[nodiscard]] obs::Histogram& phase_histogram(obs::Phase phase) {
    return registry.histogram(
        std::string("phase.") + obs::phase_name(phase) + "_us",
        obs::default_latency_edges_us());
  }
};

[[nodiscard]] double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// ns per push/pop of the workload's own calendar through
/// `sim::EventQueue`: every submit up front, each finish pushed once its
/// job's start time has been reached, as the simulation schedules them.
[[nodiscard]] double calendar_ns_per_op(const workload::JobSet& set,
                                        const core::SimulationResult& run) {
  std::vector<metrics::JobOutcome> by_start = run.outcomes;
  std::sort(by_start.begin(), by_start.end(),
            [](const metrics::JobOutcome& a, const metrics::JobOutcome& b) {
              return a.start < b.start || (a.start == b.start && a.id < b.id);
            });
  std::vector<double> per_op;
  for (int rep = 0; rep < 3; ++rep) {
    sim::EventQueue queue;
    std::uint64_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    for (const workload::Job& job : set.jobs()) {
      queue.push(job.submit, sim::EventKind::kSubmit, job.id);
      ++ops;
    }
    std::size_t next = 0;
    while (!queue.empty()) {
      const sim::Event e = queue.pop();
      ++ops;
      while (next < by_start.size() && by_start[next].start <= e.time) {
        queue.push(by_start[next].end, sim::EventKind::kFinish,
                   by_start[next].id);
        ++next;
        ++ops;
      }
    }
    per_op.push_back(std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count() /
                     static_cast<double>(ops));
  }
  return median(per_op);
}

/// Median seconds of reading \p set back from an SWF file.
[[nodiscard]] double swf_read_seconds(const workload::JobSet& set,
                                      const std::string& work_dir) {
  const std::string path = (fs::path(work_dir) / "probe.swf").string();
  if (!workload::write_swf_file(path, set)) {
    throw std::runtime_error("cannot write " + path);
  }
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const workload::SwfParseResult parsed =
        workload::read_swf_file(path, set.machine());
    times.push_back(seconds_between(t0, Clock::now()));
    if (parsed.set.size() != set.size()) {
      throw std::runtime_error("SWF read-back lost jobs");
    }
  }
  std::error_code ec;
  fs::remove(path, ec);
  return median(times);
}

/// The traced run over \p sets: alternating untraced and instrumented
/// passes (the zero-interference check and the trace overhead), then one
/// replayed pass over the first `shape.replay_sets` sets.
void traced_simulations(const std::vector<workload::JobSet>& sets,
                        const core::SimulationConfig& config,
                        const Shape& shape, const std::string& span_path,
                        RunReport& report) {
  const std::size_t n = sets.size();
  std::vector<double> plain(n, 1e300);
  std::vector<double> traced(n, 1e300);
  std::vector<std::uint64_t> digests(n);
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;
  std::uint64_t switches = 0;
  core::SimulationResult first_run;
  std::unique_ptr<Instruments> inst;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      core::SimulationResult r = core::simulate(sets[i], config);
      plain[i] = std::min(plain[i], seconds_between(t0, Clock::now()));
      digests[i] = outcome_digest(r);
      report.check(run_is_valid(sets[i], r), "untraced run output invalid");
      if (round == 0) events += r.events;
      if (round == 0 && i == 0) first_run = std::move(r);
    }
    inst.reset();  // the previous pass's tracer flushes first
    inst = std::make_unique<Instruments>();
    core::SimulationConfig wired = config;
    wired.instruments.registry = &inst->registry;
    wired.instruments.profiler = &inst->profiler;
    wired.instruments.tracer = &inst->tracer;
    decisions = switches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      const core::SimulationResult r = core::simulate(sets[i], wired);
      traced[i] = std::min(traced[i], seconds_between(t0, Clock::now()));
      report.check(run_is_valid(sets[i], r) && outcome_digest(r) == digests[i],
                   "traced run differs from the untraced run");
      decisions += r.decisions;
      switches += r.switches;
    }
  }
  inst->tracer.close();

  double plain_s = 0;
  double traced_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    plain_s += plain[i];
    traced_s += traced[i];
  }
  const double event_us = inst->phase_sum(obs::Phase::kEvent);
  const double plan_us = inst->phase_sum(obs::Phase::kPlanFull) +
                         inst->phase_sum(obs::Phase::kPlanIncremental);
  obs::Histogram& event_hist = inst->phase_histogram(obs::Phase::kEvent);

  SpanLog spans;
  for (std::size_t i = 0; i < std::min(shape.replay_sets, n); ++i) {
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, 2 * sets[i].size() / shape.replay_events);
    ReplayObserver replay(sets[i], config, stride, spans);
    core::SimulationConfig observed = config;
    observed.observer = &replay;
    const core::SimulationResult r = core::simulate(sets[i], observed);
    report.check(outcome_digest(r) == digests[i],
                 "observed run differs from the untraced run");
    report.attempted += replay.checked();
    report.failed += replay.mismatched();
    if (replay.mismatched() != 0) {
      std::fprintf(stderr, "check failed: %llu replayed operations differ "
                           "from their oracle\n",
                   static_cast<unsigned long long>(replay.mismatched()));
    }
  }
  const auto p50_us = [&spans](const char* name) {
    return median(spans.durations_ns(name)) / 1000.0;
  };
  const auto p50_ns = [&spans](const char* name) {
    return median(spans.durations_ns(name));
  };

  report.add("rms.plan_share", ratio(plan_us, event_us), "fraction");
  report.add("rms.plan_into_us_p50", p50_us("rms.plan_into"), "us");
  report.add("rms.plan_into_us_p99",
             quantile(spans.durations_ns("rms.plan_into"), 0.99) / 1000.0,
             "us");
  report.add("rms.base_profile_us", p50_us("rms.base_profile"), "us");
  report.add("rms.profile_copy_us", p50_us("rms.profile_copy"), "us");
  report.add("rms.jobs_placed", static_cast<double>(inst->tally.jobs_placed),
             "count");
  report.add("rms.jobs_replayed",
             static_cast<double>(inst->tally.jobs_replayed), "count");
  report.add("rms.earliest_start_ns", p50_ns("rms.earliest_start"), "ns");
  report.add("rms.place_ns", p50_ns("rms.place"), "ns");
  report.add("rms.segments_p50", median(inst->tally.segments), "count");
  report.add("rms.segments_max", quantile(inst->tally.segments, 1.0), "count");
  report.add("core.compress_share",
             ratio(inst->phase_sum(obs::Phase::kCompress), event_us),
             "fraction");
  report.add("core.event_p50_us", event_hist.quantile(0.5), "us");
  report.add("core.event_p99_us", event_hist.quantile(0.99), "us");
  report.add("core.commit_share",
             ratio(inst->phase_sum(obs::Phase::kCommit), event_us),
             "fraction");
  report.add("core.trace_overhead_frac",
             1.0 - ratio(static_cast<double>(events) / traced_s,
                         static_cast<double>(events) / plain_s),
             "fraction");
  report.add("core.decide_ns", p50_ns("core.decide"), "ns");
  report.add("core.decisions", static_cast<double>(decisions), "count");
  report.add("core.switches", static_cast<double>(switches), "count");
  report.add("policies.order_us", p50_us("policies.order"), "us");
  report.add("policies.queue_insert_share",
             ratio(inst->phase_sum(obs::Phase::kQueueInsert), event_us),
             "fraction");
  report.add("metrics.preview_us", p50_us("metrics.preview"), "us");
  report.add("sim.queue_ns_per_op", calendar_ns_per_op(sets[0], first_run),
             "ns");

  std::printf("span self time over %zu spans (written to %s):\n",
              spans.size(), span_path.c_str());
  for (const auto& [name, ns] : spans.self_ns()) {
    std::printf("  %-20s %12.3f ms\n", name.c_str(), ns / 1e6);
  }
  if (!spans.write_jsonl(span_path)) {
    throw std::runtime_error("cannot write " + span_path);
  }
}

/// Fills the exp/ckpt metrics with zeros on workloads that bypass them.
void add_bypassed_sweep_layers(RunReport& report) {
  const std::pair<const char*, const char*> bypassed[] = {
      {"exp.cells_per_s", "1/s"},           {"exp.stolen_cells", "count"},
      {"exp.cache_store_us", "us"},         {"exp.cache_load_us", "us"},
      {"exp.cache_hit_rate", "fraction"},   {"exp.repeat_mismatch_points", "count"},
      {"ckpt.write_us", "us"},              {"ckpt.bytes_per_snapshot", "B"}};
  for (const auto& [name, unit] : bypassed) report.add(name, 0.0, unit);
}

[[nodiscard]] std::string span_path(const RunOptions& o) {
  return (fs::path(o.work_dir) /
          ("spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".jsonl"))
      .string();
}

RunReport run_simulation_workload(const RunOptions& o, const Shape& shape) {
  const core::PlannerSemantics semantics =
      o.workload == "replan_kth_dynp" ? core::PlannerSemantics::kReplan
                                      : core::PlannerSemantics::kGuarantee;
  const std::function<SimInputs()> build = [&] {
    return build_kth_dynp(semantics, shape, o.seed);
  };
  RunReport report;
  double setup_s = 0;
  const SimInputs in = timed_setup(build, shape.setup_reps, setup_s);
  if (!o.trace) {
    const double eps = timed_simulations(in, o.seconds, report);
    report.add("events_per_s", eps, "1/s");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }
  traced_simulations(in.sets, in.config, shape, span_path(o), report);
  report.add("workload.generate_jobs_per_s",
             static_cast<double>(total_jobs(in)) / in.generate_s, "1/s");
  report.add("workload.swf_read_jobs_per_s",
             static_cast<double>(in.sets[0].size()) /
                 swf_read_seconds(in.sets[0], o.work_dir),
             "1/s");
  add_bypassed_sweep_layers(report);
  return report;
}

// ---------------------------------------------------------------------------
// The resumable sweep
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<core::SimulationConfig> sweep_configs() {
  return {core::static_config(policies::PolicyKind::kFcfs),
          core::static_config(policies::PolicyKind::kSjf),
          core::dynp_config(core::make_advanced_decider()),
          core::dynp_config(exp::sjf_preferred_decider())};
}

[[nodiscard]] bool same_point(const exp::CombinedPoint& x,
                              const exp::CombinedPoint& y) {
  return x.sldwa == y.sldwa && x.utilization == y.utilization &&
         x.avg_bounded_slowdown == y.avg_bounded_slowdown &&
         x.avg_response == y.avg_response && x.switches == y.switches &&
         x.decisions == y.decisions && x.sldwa_stddev == y.sldwa_stddev &&
         x.util_stddev == y.util_stddev && x.sldwa_per_set == y.sldwa_per_set &&
         x.util_per_set == y.util_per_set;
}

struct SweepPass {
  exp::SweepGrid grid;
  exp::SweepStats stats;
  double seconds = 0;
};

[[nodiscard]] SweepPass run_pass(exp::SweepOrchestrator& orchestrator) {
  SweepPass pass;
  const Clock::time_point t0 = Clock::now();
  pass.grid = orchestrator.run_grid(exp::paper_shrinking_factors(),
                                    sweep_configs());
  pass.seconds = seconds_between(t0, Clock::now());
  pass.stats = orchestrator.stats();
  return pass;
}

/// Points of \p grid that differ from \p reference.
[[nodiscard]] std::size_t differing_points(const exp::SweepGrid& grid,
                                           const exp::SweepGrid& reference) {
  std::size_t n = 0;
  for (std::size_t p = 0; p < grid.points.size(); ++p) {
    if (!same_point(grid.points[p], reference.points[p])) ++n;
  }
  return n;
}

/// One cold pass into an emptied cache directory, then one warm pass that
/// must load every point bit-identical to the cold one. Returns the cold
/// pass (and the warm one through \p warm_out).
SweepPass cold_then_warm(exp::SweepOrchestrator& orchestrator,
                         RunReport& report, SweepPass* warm_out = nullptr) {
  std::error_code ec;
  fs::remove_all(orchestrator.options().cache_dir, ec);
  SweepPass cold = run_pass(orchestrator);
  SweepPass warm = run_pass(orchestrator);
  const std::size_t points = cold.grid.points.size();
  report.check(cold.stats.cache_misses == points,
               "cold sweep pass hit a cache entry");
  report.check(warm.stats.cache_hits == points,
               "warm sweep pass missed a cache entry");
  for (std::size_t p = 0; p < points; ++p) {
    report.check(same_point(cold.grid.points[p], warm.grid.points[p]),
                 "warm sweep point differs from the cold one");
  }
  if (warm_out != nullptr) *warm_out = std::move(warm);
  return cold;
}

/// Cold passes are expected to repeat bit for bit, but today a sweep
/// worker's recycled `SweepWorkspace` can change a cell's result depending
/// on which cells it ran before (so multi-threaded passes vary). That is a
/// library defect, not a benchmark failure: it is reported on stderr and
/// as the `exp.repeat_mismatch_points` count, and kept out of `failed`.
void warn_unrepeatable(std::size_t points) {
  if (points != 0) {
    std::fprintf(stderr,
                 "warning: %zu sweep points differ between repeated cold "
                 "passes\n",
                 points);
  }
}

RunReport run_sweep_workload(const RunOptions& o, const Shape& shape) {
  const exp::ExperimentScale scale{shape.sets, shape.jobs, o.seed};
  const std::vector<workload::TraceModel> models{workload::kth_model(),
                                                 workload::ctc_model()};
  const std::string work =
      (fs::path(o.work_dir) / ("sweep-" + std::to_string(o.seed))).string();
  exp::OrchestratorOptions options;
  options.threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  options.cache_dir = (fs::path(work) / "cache").string();
  options.checkpoint_every = kSweepCheckpointEvery;
  obs::Registry registry;
  if (o.trace) options.registry = &registry;

  std::vector<double> setup_times;
  std::unique_ptr<exp::SweepOrchestrator> orchestrator;
  for (std::size_t r = 0; r < shape.setup_reps; ++r) {
    orchestrator.reset();
    const Clock::time_point t0 = Clock::now();
    orchestrator =
        std::make_unique<exp::SweepOrchestrator>(models, scale, options);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  const double cell_events = 2.0 * static_cast<double>(shape.jobs);

  RunReport report;
  if (!o.trace) {
    std::vector<double> eps;
    exp::SweepGrid reference;
    std::size_t unrepeatable = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t rep = 0;; ++rep) {
      const Clock::time_point rep_start = Clock::now();
      SweepPass cold = cold_then_warm(*orchestrator, report);
      eps.push_back(static_cast<double>(cold.stats.cells_simulated) *
                    cell_events / cold.seconds);
      if (rep == 0) {
        reference = std::move(cold.grid);
      } else {
        unrepeatable += differing_points(cold.grid, reference);
      }
      const Clock::time_point now = Clock::now();
      if (seconds_between(start, now) + seconds_between(rep_start, now) >
          o.seconds) {
        break;
      }
    }
    warn_unrepeatable(unrepeatable);
    std::error_code ec;
    fs::remove_all(work, ec);
    report.add("events_per_s", median(eps), "1/s");
    report.add("setup_s", median(setup_times), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced: the orchestrator's registry (cache, steal and checkpoint
  // instruments), the cache probed from outside, and one representative
  // cell — the heaviest factor under dynP/SJF-preferred — traced like the
  // simulation workloads.
  SweepPass warm;
  const SweepPass cold = cold_then_warm(*orchestrator, report, &warm);
  const std::size_t unrepeatable =
      differing_points(cold_then_warm(*orchestrator, report).grid, cold.grid);
  warn_unrepeatable(unrepeatable);
  const exp::PointCache probe((fs::path(work) / "probe").string());
  const std::vector<double> factors = exp::paper_shrinking_factors();
  const std::vector<core::SimulationConfig> configs = sweep_configs();
  std::vector<double> store_us;
  std::vector<double> load_us;
  for (std::size_t t = 0; t < models.size(); ++t) {
    for (std::size_t f = 0; f < factors.size(); ++f) {
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::string key = exp::PointCache::key_string(
            models[t], scale, factors[f], configs[c]);
        const exp::CombinedPoint& point = cold.grid.at(t, f, c);
        Clock::time_point t0 = Clock::now();
        probe.store(key, point);
        store_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        t0 = Clock::now();
        const std::optional<exp::CombinedPoint> loaded = probe.load(key);
        load_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        report.check(loaded.has_value() && same_point(*loaded, point),
                     "probe cache load differs from the stored point");
      }
    }
  }
  const std::vector<workload::JobSet> kth = workload::generate_ensemble(
      models[0], 1, shape.jobs, o.seed);
  const std::vector<workload::JobSet> cell{
      kth[0].with_shrinking_factor(factors.back())};
  traced_simulations(cell, configs.back(), shape, span_path(o), report);

  const double points = static_cast<double>(cold.grid.points.size());
  report.add("workload.generate_jobs_per_s",
             static_cast<double>(models.size() * shape.sets * shape.jobs) /
                 median(setup_times),
             "1/s");
  report.add("workload.swf_read_jobs_per_s",
             static_cast<double>(cell[0].size()) /
                 swf_read_seconds(cell[0], o.work_dir),
             "1/s");
  report.add("exp.cells_per_s",
             static_cast<double>(cold.stats.cells_simulated) / cold.seconds,
             "1/s");
  report.add("exp.stolen_cells", static_cast<double>(cold.stats.stolen_tasks),
             "count");
  report.add("exp.cache_store_us", median(store_us), "us");
  report.add("exp.cache_load_us", median(load_us), "us");
  report.add("exp.cache_hit_rate",
             static_cast<double>(warm.stats.cache_hits) / points, "fraction");
  report.add("exp.repeat_mismatch_points", static_cast<double>(unrepeatable),
             "count");
  report.add("ckpt.write_us",
             registry.histogram("ckpt.write_us", obs::exponential_edges(1, 2, 20))
                 .quantile(0.5),
             "us");
  report.add("ckpt.bytes_per_snapshot",
             ratio(static_cast<double>(registry.counter("ckpt.bytes").value()),
                   static_cast<double>(
                       registry.counter("ckpt.snapshots").value())),
             "B");
  std::error_code ec;
  fs::remove_all(work, ec);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "replan_kth_dynp", "guarantee_kth_dynp", "resumable_sweep"};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  const Shape shape = shape_of(options.workload, options.smoke);
  fs::create_directories(options.work_dir);
  return options.workload == "resumable_sweep"
             ? run_sweep_workload(options, shape)
             : run_simulation_workload(options, shape);
}

}  // namespace perfbench
