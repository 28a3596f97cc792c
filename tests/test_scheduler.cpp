// Scheduler tests: the carbon-aware policies the paper's Sec. 4 implications
// call for must beat the carbon-unaware baseline on synthetic grids and
// behave sanely on the real region presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/error.h"
#include "fleetsim/engine.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

namespace hpcarbon::sched {
namespace {

using fleetsim::FleetEngine;
using fleetsim::FleetOutcomes;

/// One run of the named policy on a double-hour job list (snapped to the
/// engine's tick grid; every job below is already on it). Users are named
/// as generated ones are, up to the highest index the jobs use.
ScheduleMetrics run(const FleetEngine& engine, const std::vector<Job>& jobs,
                    const std::string& policy, const PolicyConfig& cfg = {},
                    FleetOutcomes* outcomes = nullptr,
                    CarbonBudgetLedger* ledger = nullptr) {
  std::uint32_t users = 0;
  for (const auto& j : jobs) users = std::max(users, j.user + 1);
  return engine.run(
      fleetsim::FleetJobs(jobs, generated_user_names(static_cast<int>(users))),
      *make_policy(policy, cfg), outcomes, ledger);
}

grid::CarbonIntensityTrace constant_trace(const std::string& code, double v) {
  return grid::CarbonIntensityTrace(
      code, kUtc, std::vector<double>(kHoursPerYear, v));
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

std::vector<Job> simple_jobs(int n, double power_kw = 1.0,
                             double duration = 2.0) {
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    Job j;
    j.id = i;
    j.user = static_cast<std::uint32_t>(i % 3);
    j.submit_hour = i * 0.5;
    j.duration_hours = duration;
    j.it_power = Power::kilowatts(power_kw);
    jobs.push_back(j);
  }
  return jobs;
}

TEST(Scheduler, FcfsCarbonMatchesHandComputation) {
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 4)};
  const FleetEngine sim(sites, HourOfYear(0));
  const auto jobs = simple_jobs(4);  // all fit concurrently
  const auto m = run(sim, jobs, "fcfs-local");
  // 4 jobs x 1 kW x 2 h x 100 g/kWh x PUE 1.2 (the default) = 960 g.
  EXPECT_NEAR(m.total_carbon.to_grams(), 960.0, 1e-6);
  EXPECT_EQ(m.jobs_completed, 4);
  EXPECT_EQ(m.remote_dispatches, 0);
  EXPECT_NEAR(m.mean_wait_hours, 0.0, 1e-9);
}

TEST(Scheduler, QueuesWhenCapacityExhausted) {
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 1)};
  const FleetEngine sim(sites, HourOfYear(0));
  // Two jobs at t=0 and t=0.5, each 2 h long: second waits 1.5 h.
  auto jobs = simple_jobs(2);
  const auto m = run(sim, jobs, "fcfs-local");
  EXPECT_EQ(m.jobs_completed, 2);
  EXPECT_NEAR(m.mean_wait_hours, 0.75, 1e-6);
}

TEST(Scheduler, GreedyRoutesToCleanSite) {
  std::vector<Site> sites = {
      make_site("DIRTY", constant_trace("DIRTY", 500.0), 8),
      make_site("CLEAN", constant_trace("CLEAN", 50.0), 8,
                Energy::kilowatt_hours(0))};
  const FleetEngine sim(sites, HourOfYear(0));
  const auto jobs = simple_jobs(6);
  const auto m = run(sim, jobs, "greedy-lowest-ci");
  // Everything lands on CLEAN: 6 x 2 kWh x 50 g x PUE 1.2.
  EXPECT_NEAR(m.total_carbon.to_grams(), 720.0, 1e-6);
  EXPECT_EQ(m.remote_dispatches, 6);
}

TEST(Scheduler, GreedyBeatsFcfsOnRealRegions) {
  // Three regional sites from the paper's Fig. 7 set, home = ERCOT
  // (dirtiest of the three): cross-region dispatch must cut carbon. Run a
  // June fortnight at moderate load so placement has real freedom (in deep
  // winter ESO and CISO lose much of their renewable edge — that seasonal
  // dependence is itself one of the paper's points).
  const auto traces = grid::generate_traces(grid::fig7_regions());
  std::vector<Site> sites = {make_site("ERCOT", traces[2], 12),
                             make_site("ESO", traces[0], 12),
                             make_site("CISO", traces[1], 12)};
  const FleetEngine sim(sites, HourOfYear(month_start_hour(5)));
  WorkloadParams wp;
  wp.horizon_hours = 24 * 14;
  wp.arrival_rate_per_hour = 2.0;
  const auto jobs = generate_jobs(wp);
  const auto mf = run(sim, jobs, "fcfs-local");
  const auto mg = run(sim, jobs, "greedy-lowest-ci");
  EXPECT_LT(mg.total_carbon.to_grams(), mf.total_carbon.to_grams() * 0.85);
  EXPECT_EQ(mf.jobs_completed, mg.jobs_completed);
}

TEST(Scheduler, ThresholdDelayShiftsWorkToCleanHours) {
  std::vector<Site> sites = {make_site("SQ", square_trace("SQ", 50, 500), 16)};
  const FleetEngine sim(sites, HourOfYear(0));
  // Jobs submitted during the dirty half of day 0.
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job j;
    j.id = i;
    j.user = 0;
    j.submit_hour = 13.0 + i * 0.25;  // dirty window
    j.duration_hours = 1.0;
    j.it_power = Power::kilowatts(1.0);
    jobs.push_back(j);
  }
  PolicyConfig delay;
  delay.ci_threshold_g_per_kwh = 100.0;
  delay.max_delay_hours = 24.0;
  const auto mn = run(sim, jobs, "fcfs-local");
  const auto md = run(sim, jobs, "threshold-delay", delay);
  // Delayed jobs run in the 50 g window: 10x cleaner (both at PUE 1.2).
  EXPECT_NEAR(mn.total_carbon.to_grams(), 8 * 500.0 * 1.2, 1e-6);
  EXPECT_NEAR(md.total_carbon.to_grams(), 8 * 50.0 * 1.2, 1e-6);
  EXPECT_GT(md.mean_wait_hours, mn.mean_wait_hours);
}

TEST(Scheduler, ThresholdDelayRespectsMaxDelay) {
  std::vector<Site> sites = {
      make_site("HI", constant_trace("HI", 400.0), 16)};
  const FleetEngine sim(sites, HourOfYear(0));
  PolicyConfig delay;
  delay.ci_threshold_g_per_kwh = 100.0;  // never satisfied
  delay.max_delay_hours = 6.0;
  const auto jobs = simple_jobs(3);
  const auto m = run(sim, jobs, "threshold-delay", delay);
  EXPECT_EQ(m.jobs_completed, 3);
  // Everyone waits out the max delay (within a tick of 1 h).
  EXPECT_GE(m.mean_wait_hours, 5.0);
  EXPECT_LE(m.p95_wait_hours, 7.5);
}

TEST(Scheduler, BudgetAwarePrioritizesEconomicalUsers) {
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 1)};
  const FleetEngine sim(sites, HourOfYear(0));
  // The hog submits a huge job first (drains budget), then both users
  // queue.
  constexpr std::uint32_t kHog = 0;
  constexpr std::uint32_t kThrifty = 1;
  std::vector<Job> jobs;
  Job big;
  big.id = 0;
  big.user = kHog;
  big.submit_hour = 0;
  big.duration_hours = 10;
  big.it_power = Power::kilowatts(50);
  jobs.push_back(big);
  for (int i = 1; i <= 4; ++i) {
    Job j;
    j.id = i;
    j.user = (i % 2 == 1) ? kHog : kThrifty;
    j.submit_hour = 0.5;
    j.duration_hours = 1.0;
    j.it_power = Power::kilowatts(1.0);
    jobs.push_back(j);
  }
  PolicyConfig cfg;
  cfg.user_budget = Mass::kilograms(10);
  FleetOutcomes outcomes;
  CarbonBudgetLedger ledger;
  run(sim, jobs, "budget-aware", cfg, &outcomes, &ledger);
  // After the hog's big job, thrifty's jobs should start before hog's
  // remaining ones.
  double hog_first = 1e9, thrifty_last = -1;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const int id = outcomes.job_id[i];
    if (id == 0) continue;
    const bool is_hog = (id % 2 == 1);
    const double start = fleetsim::hours_of(outcomes.start[i]);
    if (is_hog) hog_first = std::min(hog_first, start);
    else thrifty_last = std::max(thrifty_last, start);
  }
  EXPECT_LT(thrifty_last, hog_first);
  EXPECT_TRUE(ledger.is_overdrawn(kHog));
  EXPECT_FALSE(ledger.is_overdrawn(kThrifty));
}

TEST(Scheduler, TransferPenaltyDiscouragesMarginalMoves) {
  // Remote site only 10% cleaner but transfers cost 5 kWh: greedy still
  // moves jobs (it is CI-greedy, not cost-aware), and the metrics expose
  // the transfer carbon so the tradeoff is visible.
  std::vector<Site> sites = {
      make_site("HOME", constant_trace("HOME", 100.0), 8),
      make_site("AWAY", constant_trace("AWAY", 90.0), 8,
                Energy::kilowatt_hours(5.0))};
  const FleetEngine sim(sites, HourOfYear(0));
  const auto m = run(sim, simple_jobs(4), "greedy-lowest-ci");
  EXPECT_EQ(m.remote_dispatches, 4);
  EXPECT_NEAR(m.transfer_carbon.to_grams(), 4 * 5.0 * 90.0, 1e-6);
  // Including transfer, AWAY was a net loss vs staying home.
  const auto mh = run(sim, simple_jobs(4), "fcfs-local");
  EXPECT_GT(m.total_carbon.to_grams(), mh.total_carbon.to_grams());
}

TEST(Scheduler, UtilizationAndEnergyAccounting) {
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 2)};
  const FleetEngine sim(sites, HourOfYear(0));
  const auto jobs = simple_jobs(2, 2.0, 3.0);  // 2 jobs, 2 kW, 3 h
  const auto m = run(sim, jobs, "fcfs-local");
  EXPECT_NEAR(m.total_energy.to_kwh(), 2 * 2.0 * 3.0 * 1.2, 1e-6);  // PUE
  EXPECT_GT(m.utilization, 0.5);
  EXPECT_LE(m.utilization, 1.0);
}

TEST(Scheduler, Validation) {
  EXPECT_THROW(FleetEngine({}, HourOfYear(0)), Error);
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 0)};
  EXPECT_THROW(FleetEngine(sites, HourOfYear(0)), Error);
}

TEST(Scheduler, EmptyWorkloadYieldsZeroMetrics) {
  // Regression: table-driven sweeps over generated workloads may produce
  // zero jobs on a quiet horizon; that must report all-zero metrics, not
  // abort.
  std::vector<Site> ok = {make_site("A", constant_trace("A", 100.0), 2)};
  const FleetEngine sim(ok, HourOfYear(0));
  for (const auto& desc : registered_policies()) {
    const std::string& p = desc.name;
    FleetOutcomes outcomes;
    CarbonBudgetLedger ledger;
    const auto m = run(sim, {}, p, {}, &outcomes, &ledger);
    EXPECT_EQ(m.jobs_completed, 0) << p;
    EXPECT_EQ(m.remote_dispatches, 0) << p;
    EXPECT_DOUBLE_EQ(m.total_carbon.to_grams(), 0.0) << p;
    EXPECT_DOUBLE_EQ(m.total_energy.to_kwh(), 0.0) << p;
    EXPECT_DOUBLE_EQ(m.mean_wait_hours, 0.0) << p;
    EXPECT_DOUBLE_EQ(m.utilization, 0.0) << p;
    EXPECT_EQ(outcomes.size(), 0u) << p;
  }
}

TEST(Scheduler, LowestCiTieBreaksToLowestSiteIndex) {
  // Equal-CI sites must resolve to the lowest index — home before remotes,
  // earlier remote before later — independent of policy, so ablation CSVs
  // are reproducible run-to-run. With three identical traces every dispatch
  // must stay home (index 0): zero remote dispatches and zero transfer
  // carbon for every site-choosing policy.
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 4),
                             make_site("B", constant_trace("B", 100.0), 4),
                             make_site("C", constant_trace("C", 100.0), 4)};
  const FleetEngine sim(sites, HourOfYear(0));
  for (const char* p : {"greedy-lowest-ci", "budget-aware", "net-benefit",
                        "forecast-net-benefit"}) {
    FleetOutcomes outcomes;
    const auto m = run(sim, simple_jobs(6), p, {}, &outcomes);
    EXPECT_EQ(m.remote_dispatches, 0) << p;
    EXPECT_DOUBLE_EQ(m.transfer_carbon.to_grams(), 0.0) << p;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(sim.sites()[outcomes.site[i]].region->code, "A")
          << p << " job " << outcomes.job_id[i];
    }
  }
}

TEST(Scheduler, PolicyNames) {
  EXPECT_EQ(make_policy("fcfs")->name(), "fcfs-local");
  EXPECT_EQ(make_policy("budget")->name(), "budget-aware");
  EXPECT_EQ(make_policy("forecast")->name(), "forecast-delay");
  EXPECT_EQ(make_policy("net-benefit")->name(), "net-benefit");
}

TEST(Scheduler, ForecastDelayShiftsToPredictedCleanHours) {
  // Square-wave home grid: the diurnal template learns the clean half and
  // forecast-delay lands jobs there, like ThresholdDelay but without
  // needing a hand-tuned threshold.
  std::vector<Site> sites = {make_site("SQ", square_trace("SQ", 50, 500), 16)};
  // Epoch far enough into the year for a full 14-day training window.
  const FleetEngine sim(sites, HourOfYear(60 * 24));
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    Job j;
    j.id = i;
    j.user = 0;
    j.submit_hour = 14.0 + i * 0.25;  // dirty window of day 0
    j.duration_hours = 2.0;
    j.it_power = Power::kilowatts(1.0);
    jobs.push_back(j);
  }
  PolicyConfig fc;
  fc.max_delay_hours = 14.0;
  const auto mn = run(sim, jobs, "fcfs-local");
  const auto mf = run(sim, jobs, "forecast-delay", fc);
  EXPECT_NEAR(mn.total_carbon.to_grams(), 6 * 2 * 500.0 * 1.2, 1e-6);
  EXPECT_NEAR(mf.total_carbon.to_grams(), 6 * 2 * 50.0 * 1.2, 1e-6);
  EXPECT_GT(mf.mean_wait_hours, 5.0);
}

TEST(Scheduler, ForecastDelayRunsImmediatelyInCleanHours) {
  std::vector<Site> sites = {make_site("SQ", square_trace("SQ", 50, 500), 16)};
  const FleetEngine sim(sites, HourOfYear(60 * 24));
  std::vector<Job> jobs = simple_jobs(3);  // submitted in the clean window
  PolicyConfig fc;
  fc.max_delay_hours = 12.0;
  const auto m = run(sim, jobs, "forecast-delay", fc);
  EXPECT_LT(m.mean_wait_hours, 1.0);
  EXPECT_NEAR(m.total_carbon.to_grams(), 3 * 2 * 50.0 * 1.2, 1e-6);
}

TEST(Scheduler, NetBenefitSkipsMarginalMoves) {
  // 10% cleaner remote with an expensive transfer: greedy moves and loses;
  // net-benefit stays home.
  std::vector<Site> sites = {
      make_site("HOME", constant_trace("HOME", 100.0), 8),
      make_site("AWAY", constant_trace("AWAY", 90.0), 8,
                Energy::kilowatt_hours(5.0))};
  const FleetEngine sim(sites, HourOfYear(0));
  const auto m = run(sim, simple_jobs(4), "net-benefit");
  EXPECT_EQ(m.remote_dispatches, 0);
  EXPECT_NEAR(m.total_carbon.to_grams(), 4 * 2 * 100.0 * 1.2, 1e-6);
}

TEST(Scheduler, NetBenefitTakesClearlyProfitableMoves) {
  std::vector<Site> sites = {
      make_site("HOME", constant_trace("HOME", 500.0), 8),
      make_site("AWAY", constant_trace("AWAY", 50.0), 8,
                Energy::kilowatt_hours(0.5))};
  const FleetEngine sim(sites, HourOfYear(0));
  const auto m = run(sim, simple_jobs(4), "net-benefit");
  EXPECT_EQ(m.remote_dispatches, 4);
  const auto mg = run(sim, simple_jobs(4), "greedy-lowest-ci");
  EXPECT_NEAR(m.total_carbon.to_grams(), mg.total_carbon.to_grams(), 1e-6);
}

TEST(Scheduler, NetBenefitNeverWorseThanFcfsOnConstantGrids) {
  // With constant per-site intensities, net-benefit's move criterion is
  // exact, so it can only match or beat staying home.
  for (double away_ci : {50.0, 95.0, 99.9, 150.0}) {
    std::vector<Site> sites = {
        make_site("HOME", constant_trace("HOME", 100.0), 4),
        make_site("AWAY", constant_trace("AWAY", away_ci), 4,
                  Energy::kilowatt_hours(1.0))};
    const FleetEngine sim(sites, HourOfYear(0));
    const auto jobs = simple_jobs(4);
    EXPECT_LE(run(sim, jobs, "net-benefit").total_carbon.to_grams(),
              run(sim, jobs, "fcfs-local").total_carbon.to_grams() + 1e-6)
        << "away_ci=" << away_ci;
  }
}

}  // namespace
}  // namespace hpcarbon::sched
