#include "cli/fleetsim_tool.h"

#include <algorithm>
#include <climits>
#include <iostream>
#include <string>
#include <vector>

#include "cli/dispatch.h"
#include "cli/scenario_runner.h"
#include "core/error.h"
#include "core/options.h"
#include "core/table.h"
#include "fleetsim/ablation.h"
#include "fleetsim/engine.h"
#include "fleetsim/jobs.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/region.h"
#include "mc/engine.h"
#include "sched/policy.h"

namespace hpcarbon::cli {

namespace {

struct FleetsimOptions {
  std::vector<std::string> regions;   // regions[0] is the home site
  std::vector<std::string> policies;  // canonical names; empty: all
  fleetsim::FleetWorkloadParams workload;
  std::string process = fleetsim::to_string(workload.process);
  double days = workload.horizon_hours / 24.0;
  int capacity = 16;
  int uncertainty_samples = 0;
  std::string jobs_csv;  // replay instead of generating when non-empty
  std::size_t threads = 0;
};

}  // namespace

int cmd_fleetsim(int argc, char** argv, std::ostream& out, std::ostream&) {
  FleetsimOptions opts;
  options::Table flags("fleetsim", "[REGION...] [flags]",
                       "integer-tick fleet simulator: the policy ablation at "
                       "millions of\njobs/sec (default sites ERCOT ESO CISO)");
  add_policies_flag(flags, &opts.policies);
  flags
      .text("--process", "P", &opts.process,
            "arrivals: poisson, diurnal, or bursty (default poisson)")
      .number("--days", "N", &opts.days, {.lo = 0, .lo_open = true},
              "synthetic workload horizon (default 28)")
      .number("--rate", "R", &opts.workload.rate_per_hour,
              {.lo = 0, .lo_open = true}, "arrivals per hour (default 4)")
      .integer("--capacity", "N", &opts.capacity, 1, INT_MAX,
               "nodes per site (default 16)")
      .integer("--seed", "S", &opts.workload.seed, 0, options::kMaxExact,
               "workload seed (default 2024)")
      .integer("--uncertainty", "N", &opts.uncertainty_samples, 1, INT_MAX,
               "savings quantiles over N workload seeds")
      .text("--jobs-csv", "PATH", &opts.jobs_csv,
            "replay a job-trace CSV instead of generating")
      .positional([&opts](const std::string& code) {
        if (std::find(opts.regions.begin(), opts.regions.end(), code) ==
            opts.regions.end()) {
          opts.regions.push_back(code);
        }
      });
  add_threads_flag(flags, &opts.threads);
  if (!flags.parse(argc, argv, out)) return 0;
  opts.workload.process = fleetsim::arrival_process_from(opts.process);
  opts.workload.horizon_hours = 24.0 * opts.days;
  if (opts.regions.empty()) opts.regions = {"ERCOT", "ESO", "CISO"};
  if (opts.policies.empty()) {
    for (const auto& desc : sched::registered_policies()) {
      opts.policies.push_back(desc.name);
    }
  }
  size_pool(opts.threads);

  std::vector<grid::RegionSpec> specs;
  for (const auto& code : opts.regions) {
    specs.push_back(grid::require_region(code));
  }
  const fleetsim::FleetEngine engine = fleetsim::trio_engine(
      sched::prepare_regions(traces_for(specs, {})), opts.capacity,
      HourOfYear(month_start_hour(5)));

  fleetsim::FleetJobs jobs;
  if (!opts.jobs_csv.empty()) {
    if (opts.uncertainty_samples > 0) {
      throw Error("--uncertainty resamples the synthetic workload and "
                  "cannot be combined with --jobs-csv");
    }
    jobs = fleetsim::load_jobs_csv(opts.jobs_csv, engine.sites().size());
  } else {
    jobs = fleetsim::generate_fleet_jobs(opts.workload);
  }

  std::cout << banner("fleet simulation: " + std::to_string(jobs.size()) +
                      " jobs on " + std::to_string(engine.capacity_total()) +
                      " nodes");
  std::cout << "sites:";
  for (const auto& s : engine.sites()) std::cout << ' ' << s.region->code;
  if (opts.jobs_csv.empty()) {
    std::cout << "; arrivals: " << fleetsim::to_string(opts.workload.process)
              << " @ " << opts.workload.rate_per_hour << "/h over "
              << opts.workload.horizon_hours / 24.0 << " days (seed "
              << opts.workload.seed << ")";
  } else {
    std::cout << "; replayed from " << opts.jobs_csv;
  }
  std::cout << "\n\n";

  const fleetsim::Ablation ablation =
      fleetsim::run_ablation(engine, jobs, opts.policies);
  const bool quantiles = opts.uncertainty_samples > 0;
  std::vector<mc::Distribution> savings;
  if (quantiles) {
    savings = fleetsim::savings_distributions(
        engine, opts.policies,
        {opts.uncertainty_samples, kUncertaintySeed},
        [&opts](std::uint64_t seed) {
          fleetsim::FleetWorkloadParams sample = opts.workload;
          sample.seed = seed;
          return fleetsim::generate_fleet_jobs(sample);
        });
  }

  std::vector<std::string> headers = {"Policy",     "Carbon kg", "Savings %",
                                      "Mean wait h", "p95 wait h", "Remote",
                                      "Mjobs/s"};
  if (quantiles) {
    headers.insert(headers.end(), {"p05 %", "p50 %", "p95 %"});
  }
  TextTable table(headers);
  for (std::size_t p = 0; p < opts.policies.size(); ++p) {
    const fleetsim::PolicyScore& score = ablation.policies[p];
    std::vector<std::string> row = {
        opts.policies[p],
        TextTable::num(score.metrics.total_carbon.to_kilograms(), 1),
        TextTable::num(score.savings_pct, 2),
        TextTable::num(score.metrics.mean_wait_hours, 2),
        TextTable::num(score.metrics.p95_wait_hours, 2),
        std::to_string(score.metrics.remote_dispatches),
        TextTable::num(score.run_seconds > 0
                           ? static_cast<double>(jobs.size()) /
                                 score.run_seconds / 1e6
                           : 0.0,
                       2)};
    if (quantiles) {
      row.push_back(TextTable::num(savings[p].p05(), 2));
      row.push_back(TextTable::num(savings[p].p50(), 2));
      row.push_back(TextTable::num(savings[p].p95(), 2));
    }
    table.add_row(row);
  }
  std::cout << table.to_string();
  std::cout << "\nsavings vs fcfs-local baseline ("
            << TextTable::num(ablation.baseline.total_carbon.to_kilograms(), 1)
            << " kg); Mjobs/s is simulated jobs per wall-clock second\n";
  if (quantiles) {
    std::cout << "quantiles over " << opts.uncertainty_samples
              << " workload seeds (bit-identical for any --threads)\n";
  }
  return 0;
}

}  // namespace hpcarbon::cli
