// Ablation A1: the carbon-intensity-aware scheduler the paper's Sec. 4
// implications call for, evaluated against a carbon-unaware baseline over
// the Fig. 7 trio (ERCOT home, median 367 g/kWh; ESO and CISO remote).
//
// The policy column enumerates the policy table (sched/policy.h), so a
// row added there appears here with no edits. Reported: total
// carbon, savings vs baseline, wait times, and remote dispatch counts —
// plus a timing section showing the O(1) prefix-sum interval-carbon queries
// against the hour-stepping loop they replaced.
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/rng.h"
#include "fleetsim/ablation.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "reporter.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

// The pre-refactor hour-stepping integral, kept as the timing reference.
double hour_stepping_interval_sum(const grid::CarbonIntensityTrace& trace,
                                  double start, double duration) {
  double acc = 0;
  double remaining = duration;
  double cursor = start;
  while (remaining > 1e-12) {
    const double hour_end = std::floor(cursor) + 1.0;
    const double step = std::min(remaining, hour_end - cursor);
    const HourOfYear h(static_cast<int>(std::floor(cursor)));
    acc += trace.at(h).to_g_per_kwh() * step;
    cursor += step;
    remaining -= step;
  }
  return acc;
}

void bench_interval_carbon(const grid::CarbonIntensityTrace& trace,
                           bench::Reporter& report, bool smoke) {
  bench::print_banner("Interval-carbon queries: prefix sum vs hour stepping");
  // Year-long trace, random intervals up to a full year (the Top500-scale
  // workloads of Rao & Chien 2025 price multi-month windows per system).
  Rng rng(7);
  const int kQueries = smoke ? 2000 : 20000;
  std::vector<std::pair<double, double>> queries;
  queries.reserve(static_cast<std::size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    queries.emplace_back(rng.uniform(0.0, kHoursPerYear),
                         rng.uniform(1.0, kHoursPerYear));
  }

  using clock = std::chrono::steady_clock;
  double sum_loop = 0;
  const auto t0 = clock::now();
  for (const auto& [s, d] : queries) {
    sum_loop += hour_stepping_interval_sum(trace, s, d);
  }
  const auto t1 = clock::now();
  double sum_prefix = 0;
  for (const auto& [s, d] : queries) sum_prefix += trace.interval_sum(s, d);
  const auto t2 = clock::now();

  const double ms_loop =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double ms_prefix =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  TextTable t({"Method", "Queries", "Time (ms)", "ns/query"});
  t.add_row({"hour-stepping loop (pre-refactor)", std::to_string(kQueries),
             TextTable::num(ms_loop, 1),
             TextTable::num(ms_loop * 1e6 / kQueries, 0)});
  t.add_row({"prefix sum (O(1))", std::to_string(kQueries),
             TextTable::num(ms_prefix, 1),
             TextTable::num(ms_prefix * 1e6 / kQueries, 0)});
  bench::print_table(t);
  const double rel_err =
      std::abs(sum_prefix - sum_loop) / std::max(1.0, std::abs(sum_loop));
  std::cout << "speedup " << TextTable::num(ms_loop / ms_prefix, 0)
            << "x, agreement " << rel_err << " relative\n";

  using bench::Direction;
  report.metric("interval_prefix_ns", ms_prefix * 1e6 / kQueries, "ns",
                Direction::kLowerIsBetter, /*pinned=*/true);
  report.metric("interval_loop_ns", ms_loop * 1e6 / kQueries, "ns",
                Direction::kLowerIsBetter);
  report.metric("interval_speedup", ms_loop / ms_prefix, "x",
                Direction::kHigherIsBetter);
}

}  // namespace

static int tool_main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv, "sched-ablation")) return 0;
  bench::Reporter report("sched-ablation", args);
  // Home site is the dirtiest of the Fig. 7 trio (ERCOT); ESO and CISO are
  // the remote options. Moderate load (well under one site's capacity) so
  // the policies differ by *placement choice*, not by queueing overflow.
  // The four-week window starts June 1: the paper's Fig. 7 complementarity
  // is strongest outside the UK winter-demand peak. Smoke mode shortens
  // the horizon to one week; savings percentages shift slightly, which is
  // why fingerprint.mode is part of every trajectory row.
  const auto traces = grid::generate_traces(grid::fig7_regions());
  const auto regions = sched::prepare_regions(traces);
  const fleetsim::FleetEngine engine =
      fleetsim::trio_engine({regions[2], regions[0], regions[1]},
                            fleetsim::kTrioSlots, fleetsim::trio_epoch());

  sched::WorkloadParams wp;
  wp.horizon_hours = 24.0 * (args.smoke ? 7 : 28);
  wp.arrival_rate_per_hour = 2.5;
  const fleetsim::FleetJobs jobs(sched::generate_jobs(wp),
                                 sched::generated_user_names(wp.user_count));

  // One knob bag serves every registered policy: each reads only its own
  // fields (threshold tuned below ERCOT's June median).
  sched::PolicyConfig cfg;
  cfg.ci_threshold_g_per_kwh = 320.0;
  cfg.max_delay_hours = 12.0;
  cfg.user_budget = Mass::kilograms(300);

  std::vector<std::string> policies;
  for (const auto& desc : sched::registered_policies()) {
    policies.push_back(desc.name);
  }

  bench::print_banner("Ablation A1: carbon-aware scheduling policies");
  std::cout << jobs.size() << " jobs over " << wp.horizon_hours / 24
            << " days starting June 1; 3 regional sites (home: ERCOT); "
            << policies.size() << " registered policies\n\n";

  using clock = std::chrono::steady_clock;
  const auto sweep_start = clock::now();
  const fleetsim::Ablation ablation =
      fleetsim::run_ablation(engine, jobs, policies, cfg);
  const double sweep_ms =
      std::chrono::duration<double, std::milli>(clock::now() - sweep_start)
          .count();
  double best_savings = 0;
  TextTable t({"Policy", "Carbon (kg)", "Savings vs baseline", "Mean wait (h)",
               "p95 wait (h)", "Remote jobs"});
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const fleetsim::PolicyScore& score = ablation.policies[p];
    const sched::ScheduleMetrics& m = score.metrics;
    best_savings = std::max(best_savings, score.savings_pct);
    t.add_row({policies[p], TextTable::num(m.total_carbon.to_kilograms(), 1),
               TextTable::pct(score.savings_pct, 1),
               TextTable::num(m.mean_wait_hours, 2),
               TextTable::num(m.p95_wait_hours, 2),
               std::to_string(m.remote_dispatches)});
  }
  bench::print_table(t);
  std::cout << "policy sweep wall time " << TextTable::num(sweep_ms, 0)
            << " ms\n";

  // Threshold sensitivity for the temporal-shifting policy.
  bench::print_banner("Threshold-delay sensitivity (home site only)");
  TextTable s({"CI threshold (g/kWh)", "Max delay (h)", "Carbon (kg)",
               "Mean wait (h)"});
  for (double thr : {280.0, 320.0, 360.0}) {
    for (double delay : {6.0, 12.0, 24.0}) {
      sched::PolicyConfig c;
      c.ci_threshold_g_per_kwh = thr;
      c.max_delay_hours = delay;
      const auto policy = sched::make_policy("threshold-delay", c);
      const auto m = engine.run(jobs, *policy);
      s.add_row({TextTable::num(thr, 0), TextTable::num(delay, 0),
                 TextTable::num(m.total_carbon.to_kilograms(), 1),
                 TextTable::num(m.mean_wait_hours, 2)});
    }
  }
  bench::print_table(s);

  bench_interval_carbon(traces[2], report, args.smoke);

  std::cout << "\nCross-region greedy dispatch exploits the Fig. 7 "
               "complementarity; threshold-delay trades queue wait for "
               "carbon, the incentive the paper's carbon-budget proposal "
               "formalizes."
            << std::endl;

  using bench::Direction;
  report.metric("jobs", static_cast<double>(jobs.size()), "count",
                Direction::kHigherIsBetter);
  report.metric("policy_sweep_ms", sweep_ms, "ms", Direction::kLowerIsBetter,
                /*pinned=*/true);
  report.metric("jobs_per_s",
                1000.0 * static_cast<double>(jobs.size()) *
                    static_cast<double>(policies.size()) / sweep_ms,
                "jobs/s", Direction::kHigherIsBetter);
  report.metric("best_savings_pct", best_savings, "%",
                Direction::kHigherIsBetter);
  report.write();
  return 0;
}

HPCARBON_TOOL("sched-ablation", ToolKind::kBench,
              "Ablation A1: carbon-aware scheduling policies vs FCFS "
              "baseline; --json trajectory")
