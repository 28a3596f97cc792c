// `hpcarbon sweep`: the uncertainty counterpart of `hpcarbon run`.
//
// Where `run` prints point estimates for the region x policy matrix,
// `sweep` drives the Monte-Carlo layer end to end and prints quantile
// tables: embodied carbon per Table 1 part, node lifetime footprints under
// a perturbed CI trace, upgrade break-even years (with probability of
// payback) under decarbonization trajectories, fleet-plan savings
// confidence intervals, and per-scheduling-policy savings distributions
// over workload-generator seeds. One merged long-format CSV
// (section,quantity,...) mirrors every printed row.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/scenario_runner.h"
#include "core/table.h"
#include "lifecycle/uncertainty.h"

namespace hpcarbon::cli {

struct SweepOptions {
  /// Monte-Carlo draws per model-layer quantity (embodied, lifetime,
  /// breakeven, fleet sections).
  int samples = 4096;
  /// Workload-generator seeds for the scheduler section (each seed costs
  /// one engine run per registered policy).
  int sched_samples = 16;
  std::uint64_t seed = 42;
  /// Sections to run, from {"embodied", "lifetime", "breakeven", "fleet",
  /// "sched"}; empty selects all five.
  std::vector<std::string> sections;
  /// Home region whose generated CI trace prices the lifetime section.
  std::string region = "CISO";
  double lifetime_years = 5.0;
  double breakeven_horizon_years = 15.0;
  lifecycle::LifecycleBands bands;
  /// Real grid-data overrides (`--trace-csv REGION=path`), applied to any
  /// trace the lifetime and sched sections generate for a matching region.
  TraceOverrides trace_csv;
};

/// One summarized quantity. `extra` carries section-specific annotations
/// (e.g. "P(payback)=0.94" for break-even rows).
struct SweepRow {
  std::string section;
  std::string quantity;
  std::string unit;
  int samples = 0;
  double mean = 0;
  double stddev = 0;
  double p05 = 0;
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
  double p95 = 0;
  std::string extra;
};

struct SweepReport {
  std::vector<SweepRow> rows;

  /// Rows of one section, rendered as an aligned quantile table.
  TextTable section_table(const std::string& section) const;
  /// Long-format CSV of every row (header + one line per row).
  std::string to_csv() const;
};

/// Section names in presentation order.
std::vector<std::string> sweep_sections();

/// Run the selected sections. Throws hpcarbon::Error for unknown section
/// names or region codes.
SweepReport run_sweep(const SweepOptions& opts);

/// `hpcarbon sweep` entry point (argv excludes the subcommand itself);
/// --help goes to `out`.
int cmd_sweep(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
