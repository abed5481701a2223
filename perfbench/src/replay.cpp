#include "replay.hpp"

#include <limits>

#include "metrics/metrics.hpp"
#include "policies/policy.hpp"

namespace perfbench {

using namespace dynp;

namespace {

constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

[[nodiscard]] bool same_schedule(const rms::Schedule& a,
                                 const rms::Schedule& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.entries()[i].id != b.entries()[i].id ||
        a.entries()[i].start != b.entries()[i].start) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReplayObserver::ReplayObserver(const workload::JobSet& set,
                               const core::SimulationConfig& config,
                               std::uint64_t stride, SpanLog& spans)
    : set_(set),
      config_(config),
      stride_(stride == 0 ? 1 : stride),
      spans_(spans),
      tuned_(config.mode == core::SchedulerMode::kDynP),
      check_values_(config.mode == core::SchedulerMode::kDynP &&
                    config.semantics == core::PlannerSemantics::kReplan),
      running_slot_(set.size(), kAbsent),
      waiting_slot_(set.size(), kAbsent) {
  policies_ = tuned_ ? config.pool
                     : std::vector<policies::PolicyKind>{config.static_policy};
  ordered_.resize(policies_.size());
  scratch_.resize(policies_.size());
  planned_.resize(policies_.size());
  values_.assign(policies_.size(), 0.0);
}

void ReplayObserver::on_job_submitted(Time now, const workload::Job& job) {
  waiting_slot_[job.id] = static_cast<std::uint32_t>(waiting_.size());
  waiting_.push_back(job.id);
  replay_event(now, &job);
}

void ReplayObserver::on_job_started(Time now, const workload::Job& job) {
  const std::uint32_t slot = waiting_slot_[job.id];
  waiting_[slot] = waiting_.back();
  waiting_slot_[waiting_[slot]] = slot;
  waiting_.pop_back();
  waiting_slot_[job.id] = kAbsent;

  running_slot_[job.id] = static_cast<std::uint32_t>(running_.size());
  running_.push_back(
      rms::RunningJob{job.id, job.width, now + job.estimated_runtime});
}

void ReplayObserver::on_job_finished(Time now, const workload::Job& job,
                                     const metrics::JobOutcome& /*outcome*/) {
  const std::uint32_t slot = running_slot_[job.id];
  running_[slot] = running_.back();
  running_slot_[running_[slot].id] = slot;
  running_.pop_back();
  running_slot_[job.id] = kAbsent;
  replay_event(now, nullptr);
}

void ReplayObserver::replay_event(Time now, const workload::Job* arrival) {
  sampled_ = ++seen_ % stride_ == 0;
  if (!sampled_) return;
  event_ = spans_.new_event();
  const Clock::time_point event_start = Clock::now();
  const std::uint32_t nodes = set_.machine().nodes;
  const workload::JobTable& table = set_.table();

  timed_span(spans_, "rms.base_profile", event_, [&] {
    rms::Planner::base_profile_into(nodes, now, running_, base_);
  });
  if (waiting_.empty()) {
    spans_.add(SpanLog::kEvent, event_start, Clock::now(), event_);
    return;
  }
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    timed_span(spans_, "policies.order", event_, [&] {
      ordered_[i] = policies::order(policies_[i], waiting_, table);
    });
    timed_span(spans_, "rms.profile_copy", event_, [&] { copy_ = base_; });
    timed_span(spans_, "rms.plan_into", event_, [&] {
      rms::Planner::plan_into(base_, now, ordered_[i], table, scratch_[i],
                              planned_[i]);
    });
    if (tuned_) {
      timed_span(spans_, "metrics.preview", event_, [&] {
        values_[i] = metrics::evaluate_preview(config_.preview, planned_[i],
                                               table, now);
      });
    }
  }
  // Feasibility query and fused query+allocation for one job at this
  // event's own profile shape (copy_ still holds the base profile).
  const JobId probe = arrival != nullptr ? arrival->id : waiting_.front();
  const std::uint32_t width = table.width(probe);
  const Time estimate = table.estimate(probe);
  Time first_fit = 0;
  Time queried = 0;
  Time placed = 0;
  timed_span(spans_, "rms.earliest_start", event_, [&] {
    queried = copy_.earliest_start(now, width, estimate, first_fit);
  });
  timed_span(spans_, "rms.place", event_, [&] {
    placed = copy_.place(now, width, estimate, first_fit);
  });
  spans_.add(SpanLog::kEvent, event_start, Clock::now(), event_);

  // The oracles run after the event span closes, so they cost no self time.
  check(queried == placed);
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    check(same_schedule(planned_[i], rms::Planner::plan(nodes, now, running_,
                                                        ordered_[i], table)));
  }
}

void ReplayObserver::on_decision(Time /*now*/,
                                 const core::DecisionInput& input,
                                 std::size_t chosen) {
  if (!sampled_) return;
  std::size_t picked = 0;
  timed_span(spans_, "core.decide", event_,
             [&] { picked = config_.decider->decide(input); });
  check(picked == chosen);
  if (check_values_) check(values_ == input.values);
}

}  // namespace perfbench
