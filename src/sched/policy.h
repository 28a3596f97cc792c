// Pluggable scheduling policies: the strategy layer of the scheduler.
//
// Sec. 4 of the paper sketches a family of carbon-aware scheduling ideas
// (temporal shifting, cross-region dispatch, budget incentives); this module
// turns each into one small class behind a common interface so new policies
// are additions, not edits to a monolithic switch. The pieces:
//
//  * ClusterView        — the read-only window a policy gets on the cluster:
//                         free slots, the queued jobs, O(1) carbon
//                         pricing, each site's current CI as the engine
//                         last read it, the budget ledger, and the
//                         simulation clock.
//  * SchedulingPolicy   — the strategy interface: plan a start on arrival,
//                         pick (job, site) pairs at dispatch time, observe
//                         started jobs.
//  * Policy table       — the built-ins as one constant table, looked up by
//                         name; the CLI and benches enumerate it instead of
//                         hard-coding an enum, so a row added there appears
//                         in `hpcarbon run`, `hpcarbon policies`, and the
//                         ablation bench with no further wiring.
//
// The engine that drives these is fleetsim::FleetEngine (fleetsim/engine.h).
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/units.h"
#include "op/operational.h"
#include "op/pue.h"
#include "sched/budget.h"
#include "sched/job.h"

namespace hpcarbon::sched {

/// Knob bag shared by every built-in policy; each class reads only the
/// fields it documents. Each table row's `make` receives one of these.
struct PolicyConfig {
  /// ThresholdDelay: run when local CI <= threshold…
  double ci_threshold_g_per_kwh = 150.0;
  /// …or when the job has waited this long (also the ForecastDelay search
  /// window and the RenewableCap fairness guard).
  double max_delay_hours = 12.0;
  /// BudgetAware: per-user allocation for the simulated horizon.
  Mass user_budget = Mass::kilograms(200);
  /// ForecastDelay / ForecastNetBenefit: trailing window of the diurnal
  /// template, days.
  int forecast_window_days = 14;
  /// RenewableCap: throttle dispatch while the rolling emission rate over
  /// `burn_window_hours` exceeds this cap.
  double burn_cap_g_per_hour = 8000.0;
  double burn_window_hours = 24.0;
};

/// A queued job: its index into the arrivals vector begin_run received.
/// A policy reads the job through ClusterView::job(entry) and keys any
/// per-arrival state by `arrival`. A struct, not a bare integer, so an
/// arrival index cannot pass for a queue index. Four trivially copyable
/// bytes, so taking an entry out of the queue is one memmove of four
/// bytes per entry behind it.
struct PendingJob {
  std::uint32_t arrival = 0;
};
static_assert(sizeof(PendingJob) == 4);
static_assert(std::is_trivially_copyable_v<PendingJob>);
static_assert(sizeof(Job) == 32);
static_assert(std::is_trivially_copyable_v<Job>);

/// The waiting queue select() reads, in arrival order. A name of its own
/// so the container can change without touching every policy.
using PendingQueue = std::vector<PendingJob>;

/// What a policy hands back from select(): start `queue_index` on `site`.
struct DispatchDecision {
  std::size_t queue_index = 0;
  std::size_t site = 0;
};

/// Read-only window on the engine's cluster state, bound for the duration
/// of one run. Every query is O(1): carbon prices come from per-site
/// prefix sums, and current intensities from a vector the engine keeps.
class ClusterView {
 public:
  /// Bind a view over an engine's per-run state. The view keeps
  /// references, so every argument must outlive the run; `arrivals` is the
  /// vector begin_run receives, `now` is the engine's clock in hours since
  /// `epoch`, read on every now() call, and `current_ci` holds each site's
  /// intensity (g/kWh) at now(), which the engine keeps current whenever a
  /// policy callback can read it. Carbon prices come from each site's
  /// prepared region.
  ClusterView(const std::vector<Site>& sites, const std::vector<Job>& arrivals,
              const std::vector<int>& free_slots,
              const std::vector<double>& current_ci,
              const CarbonBudgetLedger& ledger, const op::PueModel& pue,
              const double& now, HourOfYear epoch)
      : sites_(&sites),
        arrivals_(&arrivals),
        free_slots_(&free_slots),
        current_ci_(&current_ci),
        ledger_(&ledger),
        pue_(&pue),
        now_(&now),
        epoch_(epoch) {}

  /// Current simulation time, global fractional hours since the epoch.
  double now() const { return *now_; }
  HourOfYear epoch() const { return epoch_; }
  /// Hour-of-year (UTC) containing simulation time `t`.
  HourOfYear hour_at(double t) const {
    return epoch_.shifted(static_cast<int>(std::floor(t)));
  }

  std::size_t site_count() const { return sites_->size(); }
  const Site& site(std::size_t i) const { return (*sites_)[i]; }
  int free_slots(std::size_t i) const { return (*free_slots_)[i]; }

  /// The queued job `entry` names, read from the run's arrivals. The
  /// reference is valid until the run returns.
  const Job& job(PendingJob entry) const {
    return (*arrivals_)[entry.arrival];
  }

  /// Carbon intensity (g/kWh) at site i at time now(): the native sample
  /// site(i).region->trace_utc.at_hours(epoch().index() + now()) names,
  /// so 5- and 15-minute imports expose the live sub-hourly sample. The
  /// engine supplies it; the view only reads.
  double current_ci(std::size_t i) const { return (*current_ci_)[i]; }
  /// PUE-weighted grams of CO2 if `it_power` ran at site i over
  /// [start, start + duration) simulation hours. O(1).
  double job_carbon_g(std::size_t i, Power it_power, double start,
                      double duration) const;
  double pue_base() const { return pue_->base(); }

  const CarbonBudgetLedger& ledger() const { return *ledger_; }

  /// Free site with the lowest current carbon intensity, or -1 when every
  /// site is full. Ties resolve deterministically to the LOWEST site index
  /// (so equal-CI sites prefer home, and ablation CSVs are reproducible
  /// run-to-run regardless of policy).
  long lowest_ci_free_site() const;

 private:
  const std::vector<Site>* sites_;
  const std::vector<Job>* arrivals_;
  const std::vector<int>* free_slots_;
  const std::vector<double>* current_ci_;
  const CarbonBudgetLedger* ledger_;
  const op::PueModel* pue_;
  const double* now_;
  HourOfYear epoch_;
};

/// Strategy interface. One instance drives one engine run; policies may
/// keep per-run state (forecasts, rolling windows) between callbacks.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Canonical table name ("greedy-lowest-ci").
  virtual std::string name() const = 0;

  /// Called once before the event loop with the sorted arrivals. The
  /// ledger is the engine's mutable budget ledger, indexed by Job::user
  /// (BudgetAware seeds allocations here); `view` is already bound, with
  /// now() == 0.
  virtual void begin_run(const std::vector<Job>& arrivals,
                         CarbonBudgetLedger& ledger, const ClusterView& view) {
    (void)arrivals;
    (void)ledger;
    (void)view;
  }

  /// Called on arrival: the earliest time the job may start (>= submit).
  /// `job` is an element of the arrivals begin_run received, so a policy
  /// that keeps a plan per arrival finds its index as `&job` minus that
  /// vector's data(). Default: start as soon as possible.
  virtual double planned_start(const Job& job, const ClusterView& view) {
    (void)view;
    return job.submit_hour;
  }

  /// Called whenever cluster state changes (arrival, completion, hourly
  /// tick, planned start, or a preceding dispatch) while the queue is
  /// non-empty. Return the (job, site) to start now, or nullopt to wait.
  ///
  /// Queue contract: `queue` holds the waiting jobs in arrival order, so
  /// submit_hour is non-decreasing along it, and jobs submitted at the
  /// same instant keep their input order (id order for generated
  /// workloads and the jobs CSV). The front job has waited longest. Each
  /// entry holds its arrival index; view.job(entry) is the job.
  virtual std::optional<DispatchDecision> select(const PendingQueue& queue,
                                                 const ClusterView& view) = 0;

  /// Observer: `job` just started on `site` emitting `carbon_g` grams
  /// (compute + transfer). RenewableCap tracks its burn rate here.
  virtual void on_job_started(const Job& job, std::size_t site,
                              double carbon_g, const ClusterView& view) {
    (void)job;
    (void)site;
    (void)carbon_g;
    (void)view;
  }
};

/// One tunable of a policy, surfaced by `hpcarbon policies`.
struct PolicyKnob {
  std::string name;         // PolicyConfig field, e.g. "ci_threshold_g_per_kwh"
  std::string description;  // one line
  double default_value = 0;
};

/// One row of the policy table: names, documentation, and the factory.
struct PolicyDescriptor {
  std::string name;        // canonical, e.g. "greedy-lowest-ci"
  std::string short_name;  // CLI shorthand, e.g. "greedy"
  std::string description;
  std::vector<PolicyKnob> knobs;
  std::unique_ptr<SchedulingPolicy> (*make)(const PolicyConfig&);
};

/// The policy table: every built-in, in the order `hpcarbon policies`,
/// policy_names() and the ablation matrix report, fcfs-local (the
/// baseline) first. Constant, built on first use.
const std::vector<PolicyDescriptor>& registered_policies();

/// The table row named `name_or_short` (canonical or short name), or
/// nullptr when no row has that name.
const PolicyDescriptor* find_policy(std::string_view name_or_short);

/// Factory. Throws hpcarbon::Error for unknown names.
std::unique_ptr<SchedulingPolicy> make_policy(const std::string& name,
                                              const PolicyConfig& cfg = {});

}  // namespace hpcarbon::sched
