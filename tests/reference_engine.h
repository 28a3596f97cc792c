// Reference scheduling engine: the double-clock event loop that
// fleetsim::FleetEngine replaced, kept as the test oracle.
//
// The library has one scheduling event loop (fleetsim/engine.h). This
// header keeps the loop it replaced, its event logic unchanged, so
// tests/test_fleetsim.cpp can pin FleetEngine bit for bit against an
// independent implementation: kTicksPerHour is a power of two, so on
// tick-aligned workloads this loop walks the same event sequence on exact
// doubles that FleetEngine walks on integer ticks, and evaluates the same
// accounting expressions in the same order. A rewrite of FleetEngine's
// event loop must keep that parity.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/stats.h"
#include "core/time.h"
#include "core/units.h"
#include "op/operational.h"
#include "op/pue.h"
#include "sched/budget.h"
#include "sched/job.h"
#include "sched/metrics.h"
#include "sched/policy.h"

namespace hpcarbon::reference {

/// Per-job outcome, in dispatch order.
struct JobOutcome {
  int job_id = 0;
  std::string site;
  double start_hour = 0;
  double wait_hours = 0;
  Mass carbon;
};

class SchedulingEngine {
 public:
  /// sites[0] is the home site. `epoch` anchors hour 0 of the simulation on
  /// the traces' calendar (UTC). Builds one CarbonIntegrator per site.
  SchedulingEngine(std::vector<sched::Site> sites, HourOfYear epoch,
                   op::PueModel pue = op::PueModel())
      : sites_(std::move(sites)), epoch_(epoch), pue_(pue) {
    HPC_REQUIRE(!sites_.empty(), "need at least one site");
    integrators_.reserve(sites_.size());
    for (const auto& s : sites_) {
      HPC_REQUIRE(s.capacity > 0, "site capacity must be positive");
      integrators_.emplace_back(s.trace_utc, pue_);
    }
  }

  /// Run the event loop under `policy`. An empty workload yields
  /// zero-valued metrics. Optionally returns per-job outcomes (in
  /// dispatch order) and the final budget ledger.
  sched::ScheduleMetrics run(const std::vector<sched::Job>& jobs,
                             sched::SchedulingPolicy& policy,
                             std::vector<JobOutcome>* outcomes = nullptr,
                             sched::CarbonBudgetLedger* ledger_out = nullptr) {
    if (jobs.empty()) {
      if (ledger_out != nullptr) *ledger_out = sched::CarbonBudgetLedger{};
      return sched::ScheduleMetrics{};
    }
    std::vector<sched::Job> arrivals(jobs);
    // Stable: jobs submitted at the same instant keep their input order.
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const sched::Job& a, const sched::Job& b) {
                       return a.submit_hour < b.submit_hour;
                     });

    sched::CarbonBudgetLedger ledger;
    std::vector<int> free_slots;
    for (const auto& s : sites_) free_slots.push_back(s.capacity);

    std::vector<sched::PendingJob> waiting;
    // Each arrival's planned start, by arrival index.
    std::vector<double> planned(arrivals.size());
    std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
        completions;

    sched::ScheduleMetrics metrics;
    std::vector<double> waits;
    double busy_node_hours = 0;
    double makespan = 0;
    double total_grams = 0;
    double transfer_grams = 0;
    double total_kwh = 0;

    std::size_t next_arrival = 0;
    double t = 0;

    // Each site's intensity at t, read afresh whenever the clock moves,
    // with the lookup ClusterView::current_ci stands for.
    std::vector<double> current_ci(sites_.size());
    auto read_ci = [&] {
      for (std::size_t s = 0; s < sites_.size(); ++s) {
        current_ci[s] = sites_[s]
                            .trace_utc.at_hours(epoch_.index() + t)
                            .to_g_per_kwh();
      }
    };
    read_ci();

    const sched::ClusterView view(sites_, arrivals, free_slots, integrators_,
                                  current_ci, ledger, pue_, t, epoch_);

    policy.begin_run(arrivals, ledger, view);

    auto start_job = [&](const sched::Job& j, std::size_t site, double now) {
      --free_slots[site];
      completions.push(Completion{now + j.duration_hours, site});
      const double grams = view.job_carbon_g(site, j.it_power, now,
                                             j.duration_hours);
      const double kwh =
          j.it_power.to_kilowatts() * j.duration_hours * pue_.base();
      double tgrams = 0;
      if (site != 0) {
        ++metrics.remote_dispatches;
        tgrams = sites_[site].transfer_energy.to_kwh() * view.current_ci(site);
        total_kwh += sites_[site].transfer_energy.to_kwh();
      }
      total_grams += grams + tgrams;
      transfer_grams += tgrams;
      total_kwh += kwh;
      busy_node_hours += j.duration_hours;
      makespan = std::max(makespan, now + j.duration_hours);
      const double wait = now - j.submit_hour;
      waits.push_back(wait);
      ledger.charge(j.user, Mass::grams(grams + tgrams));
      if (outcomes != nullptr) {
        outcomes->push_back(JobOutcome{j.id, sites_[site].code, now, wait,
                                       Mass::grams(grams + tgrams)});
      }
      ++metrics.jobs_completed;
      policy.on_job_started(j, site, grams + tgrams, view);
    };

    auto dispatch = [&] {
      while (!waiting.empty()) {
        const auto decision = policy.select(waiting, view);
        if (!decision.has_value()) return;
        HPC_REQUIRE(decision->queue_index < waiting.size() &&
                        decision->site < sites_.size() &&
                        free_slots[decision->site] > 0,
                    "policy returned an invalid dispatch decision");
        const sched::Job& j = view.job(waiting[decision->queue_index]);
        waiting.erase(waiting.begin() +
                      static_cast<std::ptrdiff_t>(decision->queue_index));
        start_job(j, decision->site, t);
      }
    };

    // Event loop: arrivals, completions, hourly ticks, and planned start
    // times. Comparisons are exact: every event time is an input (submit,
    // submit + duration) or a whole hour, and t only takes those values.
    while (next_arrival < arrivals.size() || !completions.empty() ||
           !waiting.empty()) {
      double next_time = std::numeric_limits<double>::infinity();
      if (next_arrival < arrivals.size()) {
        next_time = std::min(next_time, arrivals[next_arrival].submit_hour);
      }
      if (!completions.empty()) {
        next_time = std::min(next_time, completions.top().time);
      }
      if (!waiting.empty()) {
        next_time = std::min(next_time, std::floor(t) + 1.0);  // next tick
        for (const auto& p : waiting) {
          if (planned[p.arrival] > t) {
            next_time = std::min(next_time, planned[p.arrival]);
          }
        }
      }
      HPC_REQUIRE(std::isfinite(next_time), "scheduler deadlock");
      t = std::max(t, next_time);
      read_ci();

      while (!completions.empty() && completions.top().time <= t) {
        ++free_slots[completions.top().site];
        completions.pop();
      }
      while (next_arrival < arrivals.size() &&
             arrivals[next_arrival].submit_hour <= t) {
        planned[next_arrival] =
            policy.planned_start(arrivals[next_arrival], view);
        waiting.push_back(
            sched::PendingJob{static_cast<std::uint32_t>(next_arrival)});
        ++next_arrival;
      }
      dispatch();
    }

    metrics.total_carbon = Mass::grams(total_grams);
    metrics.transfer_carbon = Mass::grams(transfer_grams);
    metrics.total_energy = Energy::kilowatt_hours(total_kwh);
    metrics.mean_wait_hours = stats::mean(waits);
    metrics.p95_wait_hours = stats::quantile(waits, 0.95);
    int capacity_total = 0;
    for (const auto& s : sites_) capacity_total += s.capacity;
    metrics.utilization =
        makespan > 0 ? busy_node_hours / (capacity_total * makespan) : 0.0;
    if (ledger_out != nullptr) *ledger_out = ledger;
    return metrics;
  }

 private:
  struct Completion {
    double time;
    std::size_t site;
    bool operator>(const Completion& o) const { return time > o.time; }
  };

  std::vector<sched::Site> sites_;
  HourOfYear epoch_;
  op::PueModel pue_;
  std::vector<op::CarbonIntegrator> integrators_;  // one per site
};

}  // namespace hpcarbon::reference
