// Carbon-aware scheduling demo: runs one month of synthetic jobs over three
// regional sites (ESO / CISO / ERCOT) under each policy and prints the
// carbon-vs-wait tradeoff plus per-user carbon-budget accounting — the
// operational realization of the paper's Sec. 4 implications.
//
// Usage: hpcarbon example carbon-aware-scheduling
#include <cstdint>
#include <iostream>

#include "core/table.h"
#include "fleetsim/ablation.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  // Home site: ERCOT (dirtiest of the trio); four summer weeks.
  const auto regions =
      sched::prepare_regions(grid::generate_traces(grid::fig7_regions()));
  const fleetsim::FleetEngine sim =
      fleetsim::trio_engine({regions[2], regions[0], regions[1]}, 12,
                            HourOfYear(month_start_hour(5)));

  sched::WorkloadParams wp;
  wp.horizon_hours = 24.0 * 28;
  wp.arrival_rate_per_hour = 2.0;
  wp.user_count = 6;
  // Generated times snap to the engine's 1/1024 h tick grid.
  const fleetsim::FleetJobs jobs(sched::generate_jobs(wp),
                                 sched::generated_user_names(wp.user_count));

  std::cout << banner("Carbon-aware scheduling across ERCOT / ESO / CISO");
  std::cout << jobs.size() << " jobs over 28 days from June 1; home site: "
            << "ERCOT\n\n";

  sched::PolicyConfig cfg;
  cfg.ci_threshold_g_per_kwh = 320;
  cfg.max_delay_hours = 12;
  cfg.user_budget = Mass::kilograms(250);

  TextTable t({"Policy", "Carbon (kg)", "Mean wait (h)", "Remote jobs",
               "Utilization"});
  for (const char* label : {"fcfs-local", "greedy-lowest-ci", "threshold-delay",
                            "budget-aware"}) {
    const auto m = sim.run(jobs, *sched::make_policy(label, cfg));
    t.add_row({label, TextTable::num(m.total_carbon.to_kilograms(), 1),
               TextTable::num(m.mean_wait_hours, 2),
               std::to_string(m.remote_dispatches),
               TextTable::num(m.utilization, 2)});
  }
  std::cout << t.to_string();

  // Budget accounting detail for the budget-aware run.
  sched::CarbonBudgetLedger ledger;
  sim.run(jobs, *sched::make_policy("budget-aware", cfg), nullptr, &ledger);
  std::cout << "\nPer-user carbon-budget ledger (allocation 250 kg):\n";
  TextTable ut({"User", "spent (kg)", "remaining %", "status"});
  for (std::uint32_t u = 0; u < jobs.users().size(); ++u) {
    ut.add_row({jobs.users()[u],
                TextTable::num(ledger.spent(u).to_kilograms(), 1),
                TextTable::num(100 * ledger.remaining_fraction(u), 1),
                ledger.is_overdrawn(u) ? "OVERDRAWN" : "ok"});
  }
  std::cout << ut.to_string();

  std::cout << "\nGreedy cross-region placement cuts carbon at zero wait "
               "cost; threshold-delay trades wait time instead — the "
               "incentive the paper's carbon budgets are designed to price.\n";
  return 0;
}

HPCARBON_TOOL("carbon-aware-scheduling", ToolKind::kExample,
              "One month of jobs over three sites under every policy")
