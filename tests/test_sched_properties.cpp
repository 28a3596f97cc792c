// Property sweeps over every registered scheduler policy (TEST_P):
// regardless of policy, the engine must conserve work, account energy
// consistently, stay deterministic, and never beat a clairvoyant lower
// bound. The sweep enumerates the policy table, so a row added there is
// property-tested with no edits here.
#include <gtest/gtest.h>

#include <algorithm>

#include "bounded_policy.h"
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

class PolicySweep : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    // Generous capacity: even Poisson bursts never exhaust a site, so
    // policy behaviour (not queueing) is what every property observes.
    const auto traces = grid::generate_traces(grid::fig7_regions());
    sites_ = new std::vector<Site>{make_site("ERCOT", traces[2], 64),
                                   make_site("ESO", traces[0], 64),
                                   make_site("CISO", traces[1], 64)};
    WorkloadParams wp;
    wp.horizon_hours = 24 * 10;
    // Offered load ~8.4 concurrent vs 12 home slots: queueing never binds,
    // so the delay-budget property below is exact.
    wp.arrival_rate_per_hour = 1.5;
    wp.seed = 4242;
    fleet_jobs_ = new FleetJobs(generate_jobs(wp),
                                generated_user_names(wp.user_count));
    // The snapped jobs, as the engine runs them.
    jobs_ = new std::vector<Job>(fleet_jobs_->arrivals());
  }
  static void TearDownTestSuite() {
    delete sites_;
    delete fleet_jobs_;
    delete jobs_;
    sites_ = nullptr;
    fleet_jobs_ = nullptr;
    jobs_ = nullptr;
  }
  static PolicyConfig config() {
    PolicyConfig cfg;
    cfg.ci_threshold_g_per_kwh = 320;
    cfg.max_delay_hours = 12;
    cfg.user_budget = Mass::kilograms(100);
    return cfg;
  }
  /// Engine + table-made policy for the parametrized name.
  static ScheduleMetrics run_param(const FleetEngine& engine,
                                   FleetOutcomes* outcomes = nullptr) {
    testutil::BoundedPolicy policy(make_policy(GetParam(), config()));
    return engine.run(*fleet_jobs_, policy, outcomes);
  }
  static std::vector<Site>* sites_;
  static FleetJobs* fleet_jobs_;
  static std::vector<Job>* jobs_;
};

std::vector<Site>* PolicySweep::sites_ = nullptr;
FleetJobs* PolicySweep::fleet_jobs_ = nullptr;
std::vector<Job>* PolicySweep::jobs_ = nullptr;

TEST_P(PolicySweep, CompletesEveryJobExactlyOnce) {
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  FleetOutcomes outcomes;
  const auto m = run_param(sim, &outcomes);
  EXPECT_EQ(m.jobs_completed, static_cast<int>(jobs_->size()));
  ASSERT_EQ(outcomes.size(), jobs_->size());
  std::vector<int> ids(outcomes.job_id.begin(), outcomes.job_id.end());
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int>(i));
  }
}

TEST_P(PolicySweep, EnergyAtLeastItDemandTimesPue) {
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  const auto m = run_param(sim);
  double it_kwh = 0;
  for (const auto& j : *jobs_) {
    it_kwh += j.it_power.to_kilowatts() * j.duration_hours;
  }
  EXPECT_GE(m.total_energy.to_kwh(), it_kwh * 1.2 - 1e-6);
}

TEST_P(PolicySweep, NoJobStartsBeforeSubmission) {
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  FleetOutcomes outcomes;
  run_param(sim, &outcomes);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_GE(outcomes.wait_hours[i], -1e-9) << "job " << outcomes.job_id[i];
  }
}

TEST_P(PolicySweep, DelayPoliciesRespectTheDelayBudget) {
  const std::string p = GetParam();
  // renewable-cap shares the guard: its fairness valve is max_delay_hours.
  if (p != "threshold-delay" && p != "forecast-delay" && p != "renewable-cap") {
    GTEST_SKIP();
  }
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  FleetOutcomes outcomes;
  const auto cfg = config();
  run_param(sim, &outcomes);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    // Delay budget + at most one dispatch tick of slack (capacity is never
    // binding at this load).
    EXPECT_LE(outcomes.wait_hours[i], cfg.max_delay_hours + 1.5)
        << "job " << outcomes.job_id[i];
  }
}

TEST_P(PolicySweep, DeterministicAcrossRuns) {
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  const auto a = run_param(sim);
  const auto b = run_param(sim);
  EXPECT_DOUBLE_EQ(a.total_carbon.to_grams(), b.total_carbon.to_grams());
  EXPECT_DOUBLE_EQ(a.mean_wait_hours, b.mean_wait_hours);
  EXPECT_EQ(a.remote_dispatches, b.remote_dispatches);
}

TEST_P(PolicySweep, NeverBeatsClairvoyantLowerBound) {
  // Lower bound: every job runs at the year-minimum intensity across all
  // sites, with no transfer cost.
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  const auto m = run_param(sim);
  double min_ci = 1e18;
  for (const auto& s : *sites_) {
    const auto& values = s.region->trace_utc.values();
    min_ci = std::min(min_ci, *std::min_element(values.begin(), values.end()));
  }
  double bound_g = 0;
  for (const auto& j : *jobs_) {
    bound_g += j.it_power.to_kilowatts() * j.duration_hours * 1.2 * min_ci;
  }
  EXPECT_GE(m.total_carbon.to_grams(), bound_g);
}

TEST_P(PolicySweep, PerJobCarbonSumsToTotal) {
  const FleetEngine sim(*sites_, HourOfYear(month_start_hour(5)));
  FleetOutcomes outcomes;
  const auto m = run_param(sim, &outcomes);
  double sum = 0;
  for (const double g : outcomes.carbon_g) sum += g;
  EXPECT_NEAR(sum, m.total_carbon.to_grams(),
              1e-6 * m.total_carbon.to_grams());
}

std::vector<std::string> all_policy_names() {
  std::vector<std::string> names;
  for (const auto& desc : registered_policies()) names.push_back(desc.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep, ::testing::ValuesIn(all_policy_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace hpcarbon::sched
