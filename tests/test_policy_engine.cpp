// Engine/policy/registry layer tests: the string-keyed registry, the
// engine's guards, and the policies' behaviour on hand-built grids. The
// engine's O(1) prefix-sum carbon must match an hour-stepping
// re-computation of every job's carbon within 1e-9.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/error.h"
#include "fleetsim/engine.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

namespace hpcarbon::sched {
namespace {

using fleetsim::FleetEngine;
using fleetsim::FleetJobs;
using fleetsim::FleetOutcomes;
using fleetsim::hours_of;

grid::CarbonIntensityTrace constant_trace(const std::string& code, double v) {
  return grid::CarbonIntensityTrace(code, kUtc,
                                    std::vector<double>(kHoursPerYear, v));
}

// Square-wave trace: clean at night (hours 0-11), dirty by day (12-23).
grid::CarbonIntensityTrace square_trace(const std::string& code, double lo,
                                        double hi) {
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<size_t>(i)] = (i % 24) < 12 ? lo : hi;
  }
  return grid::CarbonIntensityTrace(code, kUtc, v);
}

std::vector<Site> fig7_sites(int capacity = 32) {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  return {make_site("ERCOT", traces[2], capacity),
          make_site("ESO", traces[0], capacity),
          make_site("CISO", traces[1], capacity)};
}

FleetJobs seeded_jobs() {
  WorkloadParams wp;
  wp.horizon_hours = 24 * 10;
  wp.arrival_rate_per_hour = 2.0;
  wp.seed = 31337;
  return FleetJobs::from_jobs(generate_jobs(wp),
                              generated_user_names(wp.user_count));
}

/// One run of `policy` on a double-hour job list (snapped to the engine's
/// tick grid; every hand-built job below is already on it). The hand-built
/// jobs all belong to user 0.
ScheduleMetrics run(const FleetEngine& engine, const std::vector<Job>& jobs,
                    SchedulingPolicy& policy,
                    FleetOutcomes* outcomes = nullptr) {
  return engine.run(FleetJobs::from_jobs(jobs, {"u0"}), policy, outcomes);
}

// The eight built-ins, in registration order.
constexpr const char* kBuiltins[] = {
    "fcfs-local",     "greedy-lowest-ci", "threshold-delay",
    "budget-aware",   "forecast-delay",   "net-benefit",
    "forecast-net-benefit", "renewable-cap"};

TEST(PolicyRegistry, AllBuiltinsRegistered) {
  // >=: other tests in this binary may register probe policies; the
  // assertions here must hold in any execution order.
  const auto all = registered_policies();
  ASSERT_GE(all.size(), 8u);
  // Built-ins register first, fcfs-local leading (the baseline position
  // the scenario runner relies on).
  EXPECT_EQ(all[0].name, "fcfs-local");
  for (const char* name : kBuiltins) {
    const auto desc = find_policy(name);
    ASSERT_TRUE(desc.has_value()) << name;
    EXPECT_EQ(desc->name, name);
    const auto policy = desc->make(PolicyConfig{});
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), desc->name);
  }
}

TEST(PolicyRegistry, ShortNamesResolveAndUnknownThrows) {
  EXPECT_EQ(find_policy("greedy")->name, "greedy-lowest-ci");
  EXPECT_EQ(find_policy("cap")->name, "renewable-cap");
  EXPECT_FALSE(find_policy("no-such-policy").has_value());
  EXPECT_THROW(make_policy("no-such-policy"), Error);
}

TEST(PolicyRegistry, ReRegisteringReplaces) {
  register_policy({"zz-parity-probe", "zzp", "first", {}, [](const PolicyConfig& cfg) {
                     return make_policy("fcfs-local", cfg);
                   }});
  register_policy({"zz-parity-probe", "zzp", "second", {}, [](const PolicyConfig& cfg) {
                     return make_policy("fcfs-local", cfg);
                   }});
  int count = 0;
  for (const auto& d : registered_policies()) count += d.name == "zz-parity-probe";
  EXPECT_EQ(count, 1);
  EXPECT_EQ(find_policy("zz-parity-probe")->description, "second");
}

// The engine's O(1) prefix-sum carbon must agree with an hour-stepping
// recomputation of every job's compute carbon (the pre-refactor pricing
// loop) within 1e-9 relative — the parity bound the refactor promises.
TEST(PolicyEngine, PrefixSumCarbonMatchesHourSteppingPerJob) {
  const auto sites = fig7_sites();
  const FleetJobs fleet_jobs = seeded_jobs();
  const std::vector<Job> jobs = fleet_jobs.to_jobs();
  const HourOfYear epoch(month_start_hour(5));
  std::map<int, const Job*> by_id;
  for (const auto& j : jobs) by_id[j.id] = &j;

  const op::PueModel pue;  // constant 1.2
  for (const char* name : {"fcfs-local", "greedy-lowest-ci", "net-benefit",
                           "forecast-net-benefit"}) {
    const FleetEngine engine(sites, epoch, pue);
    const auto policy = make_policy(name, PolicyConfig{});
    FleetOutcomes outcomes;
    engine.run(fleet_jobs, *policy, &outcomes);
    ASSERT_EQ(outcomes.size(), jobs.size()) << name;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Job& j = *by_id.at(outcomes.job_id[i]);
      const std::size_t s = outcomes.site[i];
      const double start_hour = hours_of(outcomes.start[i]);
      // Hour-stepping reference (the old interval_carbon_g).
      double grams = 0;
      double remaining = j.duration_hours;
      double cursor = start_hour;
      const double kw = j.it_power.to_kilowatts();
      while (remaining > 1e-12) {
        const double hour_end = std::floor(cursor) + 1.0;
        const double step = std::min(remaining, hour_end - cursor);
        const HourOfYear h =
            epoch.shifted(static_cast<int>(std::floor(cursor)));
        grams += sites[s].trace_utc.at(h).to_g_per_kwh() * kw * step *
                 pue.at(h);
        cursor += step;
        remaining -= step;
      }
      if (s != 0) {
        const HourOfYear h =
            epoch.shifted(static_cast<int>(std::floor(start_hour)));
        grams += sites[s].transfer_energy.to_kwh() *
                 sites[s].trace_utc.at(h).to_g_per_kwh();
      }
      EXPECT_NEAR(outcomes.carbon_g[i], grams, 1e-9 * std::max(1.0, grams))
          << name << " job " << outcomes.job_id[i];
    }
  }
}

TEST(PolicyEngine, EngineEmptyWorkloadYieldsZeroMetrics) {
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 2)};
  const FleetEngine engine(sites, HourOfYear(0));
  for (const auto& desc : registered_policies()) {
    const auto policy = desc.make(PolicyConfig{});
    FleetOutcomes outcomes;
    const auto m = run(engine, {}, *policy, &outcomes);
    EXPECT_EQ(m.jobs_completed, 0) << desc.name;
    EXPECT_DOUBLE_EQ(m.total_carbon.to_grams(), 0.0) << desc.name;
    EXPECT_EQ(outcomes.size(), 0u) << desc.name;
  }
}

TEST(PolicyEngine, RejectsInvalidDispatchDecision) {
  // A buggy policy pointing outside the queue/sites must fail loudly, not
  // corrupt accounting.
  class BrokenPolicy : public SchedulingPolicy {
   public:
    std::string name() const override { return "broken"; }
    std::optional<DispatchDecision> select(const PendingQueue&,
                                           const ClusterView&) override {
      return DispatchDecision{99, 99};
    }
  };
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 2)};
  const FleetEngine engine(sites, HourOfYear(0));
  BrokenPolicy broken;
  Job j;
  j.id = 0;
  j.user = 0;
  j.duration_hours = 1;
  j.it_power = Power::kilowatts(1);
  EXPECT_THROW(run(engine, {j}, broken), Error);
}

TEST(ForecastNetBenefit, RoutesToPredictedCleanerSite) {
  // Home is on a square wave entering its dirty half; remote is constant
  // at the square wave's mean. Instantaneous net-benefit at a clean-hour
  // dispatch sees home cheaper and stays; the forecasting variant prices
  // the whole runtime, sees the dirty half coming, and moves long jobs.
  std::vector<Site> sites = {
      make_site("SQ", square_trace("SQ", 50, 500), 16),
      make_site("FLAT", constant_trace("FLAT", 150.0), 16,
                Energy::kilowatt_hours(0.1))};
  const FleetEngine engine(sites, HourOfYear(60 * 24), op::PueModel(1.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) {
    Job j;
    j.id = i;
    j.user = 0;
    j.submit_hour = 10.0;  // clean now, but the job spans the dirty half
    j.duration_hours = 12.0;
    j.it_power = Power::kilowatts(1.0);
    jobs.push_back(j);
  }
  const auto nb = make_policy("net-benefit", PolicyConfig{});
  const auto fnb = make_policy("forecast-net-benefit", PolicyConfig{});
  const auto m_nb = run(engine, jobs, *nb);
  const auto m_fnb = run(engine, jobs, *fnb);
  // Instantaneous comparison at hour 10: home CI 50 < remote 150 → stays.
  EXPECT_EQ(m_nb.remote_dispatches, 0);
  // Forecast over 12 h: home ~275 vs remote 150 + tiny transfer → moves.
  EXPECT_EQ(m_fnb.remote_dispatches, 4);
  EXPECT_LT(m_fnb.total_carbon.to_grams(), m_nb.total_carbon.to_grams());
}

TEST(RenewableCap, ThrottlesBurnRateWithinWindow) {
  // Constant grid, huge burst of jobs: uncapped FCFS burns everything
  // up-front; the cap spreads starts so no rolling window exceeds the
  // budgeted burn rate (until the fairness guard kicks in, which this
  // workload doesn't reach).
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 64)};
  const FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    Job j;
    j.id = i;
    j.user = 0;
    j.submit_hour = 0.0;
    j.duration_hours = 1.0;
    j.it_power = Power::kilowatts(10.0);  // 1 kWh*10 => 1000 g per job
    jobs.push_back(j);
  }
  PolicyConfig cfg;
  cfg.burn_cap_g_per_hour = 500.0;  // ~5 jobs per 10 h window
  cfg.burn_window_hours = 10.0;
  cfg.max_delay_hours = 1000.0;  // fairness guard out of the way
  const auto cap = make_policy("renewable-cap", cfg);
  FleetOutcomes outcomes;
  const auto m = run(engine, jobs, *cap, &outcomes);
  EXPECT_EQ(m.jobs_completed, 30);
  EXPECT_GT(m.mean_wait_hours, 1.0);  // visibly throttled
  // Verify the invariant directly: carbon started within any rolling
  // window never exceeds cap * window (one job of slack at the boundary:
  // the policy admits while the observed rate is still at or below cap).
  for (std::size_t a = 0; a < outcomes.size(); ++a) {
    const double a_start = hours_of(outcomes.start[a]);
    double window_g = 0;
    for (std::size_t b = 0; b < outcomes.size(); ++b) {
      const double b_start = hours_of(outcomes.start[b]);
      if (b_start <= a_start && b_start > a_start - 10.0) {
        window_g += outcomes.carbon_g[b];
      }
    }
    EXPECT_LE(window_g, 500.0 * 10.0 + 1000.0 + 1e-6)
        << "window ending at " << a_start;
  }
}

TEST(RenewableCap, FairnessGuardReleasesOverdueJobs) {
  // Cap so tight it would starve forever; the max-delay guard must still
  // push every job through.
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 64)};
  const FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) {
    Job j;
    j.id = i;
    j.user = 0;
    j.submit_hour = i * 0.1;
    j.duration_hours = 1.0;
    j.it_power = Power::kilowatts(10.0);
    jobs.push_back(j);
  }
  PolicyConfig cfg;
  cfg.burn_cap_g_per_hour = 1.0;  // unreachable
  cfg.burn_window_hours = 24.0;
  cfg.max_delay_hours = 6.0;
  const auto cap = make_policy("renewable-cap", cfg);
  FleetOutcomes outcomes;
  const auto m = run(engine, jobs, *cap, &outcomes);
  EXPECT_EQ(m.jobs_completed, 10);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_LE(outcomes.wait_hours[i], 6.0 + 1.5)
        << "job " << outcomes.job_id[i];
  }
}

TEST(RenewableCap, ShiftsCarbonOutOfDirtySpikes) {
  // Square-wave grid: the dirty half doubles the burn rate, so the cap
  // throttles there and releases in the clean half — lower carbon than
  // FCFS at the cost of queue wait.
  std::vector<Site> sites = {make_site("SQ", square_trace("SQ", 50, 500), 32)};
  const FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 16; ++i) {
    Job j;
    j.id = i;
    j.user = 0;
    j.submit_hour = 13.0 + 0.25 * i;  // dirty window
    j.duration_hours = 1.0;
    j.it_power = Power::kilowatts(4.0);
    jobs.push_back(j);
  }
  PolicyConfig cfg;
  cfg.burn_cap_g_per_hour = 300.0;
  cfg.burn_window_hours = 6.0;
  cfg.max_delay_hours = 24.0;
  const auto fcfs = make_policy("fcfs-local", cfg);
  const auto cap = make_policy("renewable-cap", cfg);
  const auto m_fcfs = run(engine, jobs, *fcfs);
  const auto m_cap = run(engine, jobs, *cap);
  EXPECT_EQ(m_cap.jobs_completed, 16);
  EXPECT_LT(m_cap.total_carbon.to_grams(), m_fcfs.total_carbon.to_grams());
  EXPECT_GT(m_cap.mean_wait_hours, m_fcfs.mean_wait_hours);
}

}  // namespace
}  // namespace hpcarbon::sched
