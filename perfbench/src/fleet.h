// Fleet-policies helpers: a forwarding policy decorator that times and
// counts every callback the fleet engine makes, and bitwise comparisons of
// simulation results.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleetsim/engine.h"
#include "sched/policy.h"

namespace perfbench {

/// What the decorator saw during one run.
struct PolicyCounters {
  double begin_run_s = 0;
  double planned_start_s = 0;
  double select_s = 0;
  double on_job_started_s = 0;
  std::uint64_t planned_start_calls = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t decisions = 0;  // select calls that dispatched a job
  std::uint64_t started_calls = 0;
  std::uint64_t queue_sum = 0;  // queue.size() summed over select calls
  std::uint64_t queue_max = 0;

  double callbacks_s() const {
    return begin_run_s + planned_start_s + select_s + on_job_started_s;
  }
};

/// Forwards every SchedulingPolicy callback to `inner` unchanged, timing
/// each and recording the queue length on each select. The engine cannot
/// tell it from the inner policy: decorated runs are bit-identical.
class TimedPolicy final : public hpcarbon::sched::SchedulingPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<hpcarbon::sched::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void begin_run(const std::vector<hpcarbon::sched::Job>& arrivals,
                 hpcarbon::sched::CarbonBudgetLedger& ledger,
                 const hpcarbon::sched::ClusterView& view) override;
  double planned_start(const hpcarbon::sched::Job& job,
                       const hpcarbon::sched::ClusterView& view) override;
  std::optional<hpcarbon::sched::DispatchDecision> select(
      const std::vector<hpcarbon::sched::PendingJob>& queue,
      const hpcarbon::sched::ClusterView& view) override;
  void on_job_started(const hpcarbon::sched::Job& job, std::size_t site,
                      double carbon_g,
                      const hpcarbon::sched::ClusterView& view) override;

  const PolicyCounters& counters() const { return counters_; }

 private:
  std::unique_ptr<hpcarbon::sched::SchedulingPolicy> inner_;
  PolicyCounters counters_;
};

/// Every field of the two results is bitwise equal.
bool same_metrics(const hpcarbon::sched::ScheduleMetrics& a,
                  const hpcarbon::sched::ScheduleMetrics& b);
bool same_outcomes(const hpcarbon::fleetsim::FleetOutcomes& a,
                   const hpcarbon::fleetsim::FleetOutcomes& b);
/// Digest of every ScheduleMetrics field's bits, for pinning.
std::uint64_t metrics_digest(const hpcarbon::sched::ScheduleMetrics& m);

/// The paper's ERCOT (home) / ESO / CISO trio with `slots` each, epoch
/// June 1.
hpcarbon::fleetsim::FleetEngine make_fleet_engine(int slots);

}  // namespace perfbench
