// A scheduling-policy decorator that makes a stalled engine fail fast.
//
// Every FleetEngine::run in the scheduler suites goes through one, so a
// change that stops the engine from making progress (its clock stuck at
// one tick, or a slot never freed while jobs wait) fails the test that
// hit it at once, instead of spinning until the ctest timeout.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "sched/policy.h"

namespace hpcarbon::testutil {

/// Forwards every callback to the policy it wraps. select() throws once a
/// run has called it 64 times per arrival (plus 4096): an engine that
/// stops making progress calls it forever, and would hang the test or,
/// under a decorator that records every callback, fill memory.
class BoundedPolicy : public sched::SchedulingPolicy {
 public:
  /// Wraps and owns `inner`.
  explicit BoundedPolicy(std::unique_ptr<sched::SchedulingPolicy> inner)
      : owned_(std::move(inner)), inner_(owned_.get()) {}
  /// Wraps `inner`, which the caller keeps (and may read after the run);
  /// it must outlive this decorator.
  explicit BoundedPolicy(sched::SchedulingPolicy& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void begin_run(const std::vector<sched::Job>& arrivals,
                 sched::CarbonBudgetLedger& ledger,
                 const sched::ClusterView& view) override {
    selects_left_ = 64 * arrivals.size() + 4096;
    inner_->begin_run(arrivals, ledger, view);
  }
  double planned_start(const sched::Job& job,
                       const sched::ClusterView& view) override {
    return inner_->planned_start(job, view);
  }
  std::optional<sched::DispatchDecision> select(
      const sched::PendingQueue& queue,
      const sched::ClusterView& view) override {
    if (selects_left_ == 0) {
      throw Error(name() + ": select() called past 64 times per arrival; "
                           "the engine stopped making progress");
    }
    --selects_left_;
    return inner_->select(queue, view);
  }
  void on_job_started(const sched::Job& job, std::size_t site,
                      double carbon_g,
                      const sched::ClusterView& view) override {
    inner_->on_job_started(job, site, carbon_g, view);
  }

 private:
  std::unique_ptr<sched::SchedulingPolicy> owned_;
  sched::SchedulingPolicy* inner_;
  std::size_t selects_left_ = 0;
};

}  // namespace hpcarbon::testutil
