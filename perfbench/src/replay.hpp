#pragma once

/// \file replay.hpp
/// Outside-in layer timing. A `ReplayObserver` rides along an untimed
/// simulation through the public `core::SimulationObserver` hooks, tracks
/// the running and waiting sets from the lifecycle callbacks, and at every
/// sampled event replays that event's state through the public calls of
/// each layer, one span per call:
///
///   rms.base_profile     Planner::base_profile_into
///   policies.order       policies::order            (per pool policy)
///   rms.profile_copy     ResourceProfile copy       (per pool policy)
///   rms.plan_into        Planner::plan_into         (per pool policy)
///   metrics.preview      metrics::evaluate_preview  (per policy; dynP only)
///   rms.earliest_start   ResourceProfile::earliest_start (arriving job)
///   rms.place            ResourceProfile::place          (arriving job)
///   core.decide          Decider::decide on the captured DecisionInput
///
/// Each replayed schedule is checked against `Planner::plan` on the same
/// input, each replayed decision against the simulation's own choice, and
/// under replan semantics each replayed preview value against the value
/// the simulation scored. Nothing inside the library is instrumented.

#include <cstdint>
#include <vector>

#include "core/simulation.hpp"
#include "rms/planner.hpp"
#include "spans.hpp"

namespace perfbench {

class ReplayObserver final : public dynp::core::SimulationObserver {
 public:
  /// Replays every \p stride-th event of the run of \p config over \p set.
  ReplayObserver(const dynp::workload::JobSet& set,
                 const dynp::core::SimulationConfig& config,
                 std::uint64_t stride, SpanLog& spans);

  void on_job_submitted(dynp::Time now,
                        const dynp::workload::Job& job) override;
  void on_job_started(dynp::Time now, const dynp::workload::Job& job) override;
  void on_job_finished(dynp::Time now, const dynp::workload::Job& job,
                       const dynp::metrics::JobOutcome& outcome) override;
  void on_decision(dynp::Time now, const dynp::core::DecisionInput& input,
                   std::size_t chosen) override;

  /// Replayed operations (plans, probes, decisions, preview values) and
  /// how many of them disagreed with their oracle.
  [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] std::uint64_t mismatched() const noexcept {
    return mismatched_;
  }

 private:
  void replay_event(dynp::Time now, const dynp::workload::Job* arrival);
  void check(bool ok) {
    ++checked_;
    if (!ok) ++mismatched_;
  }

  const dynp::workload::JobSet& set_;
  const dynp::core::SimulationConfig& config_;
  std::uint64_t stride_;
  SpanLog& spans_;

  std::vector<dynp::policies::PolicyKind> policies_;  ///< pool, or static
  bool tuned_;         ///< dynP: candidates are scored and decided
  bool check_values_;  ///< replan dynP: replayed previews must match

  std::vector<dynp::rms::RunningJob> running_;
  std::vector<std::uint32_t> running_slot_;
  std::vector<dynp::JobId> waiting_;
  std::vector<std::uint32_t> waiting_slot_;

  std::uint64_t seen_ = 0;   ///< events of this run so far
  std::uint64_t event_ = 0;  ///< span id of the current sampled event
  bool sampled_ = false;
  dynp::rms::ResourceProfile base_{1};
  dynp::rms::ResourceProfile copy_{1};
  std::vector<std::vector<dynp::JobId>> ordered_;
  std::vector<dynp::rms::PlanScratch> scratch_;
  std::vector<dynp::rms::Schedule> planned_;
  std::vector<double> values_;

  std::uint64_t checked_ = 0;
  std::uint64_t mismatched_ = 0;
};

}  // namespace perfbench
