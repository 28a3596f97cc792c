// Batch scenario runner: the region x scheduler-policy sweep behind
// `hpcarbon run`.
//
// A scenario is one home region running one scheduling policy against a
// common synthetic job stream, with the two cleanest other selected regions
// available as remote sites (cross-region policies need somewhere to
// dispatch to): the trio of fleetsim/ablation.h. Region trace generation
// and the per-region ablations both fan out over ThreadPool::global(); the
// results merge into a single table/CSV report, one row per (region,
// policy) cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/table.h"
#include "grid/region.h"
#include "grid/trace.h"

namespace hpcarbon::cli {

/// (region code, CSV path) pairs from `--trace-csv REGION=path`: the named
/// region's synthetic trace is replaced by the imported file.
using TraceOverrides = std::vector<std::pair<std::string, std::string>>;

/// Split "ESO=grid.csv" into {"ESO", "grid.csv"}; throws on a missing '='.
std::pair<std::string, std::string> parse_trace_override(
    const std::string& spec);

/// Generate the regions' synthetic traces, then swap in any override whose
/// code matches a spec (imported in that region's local zone, at the file's
/// native cadence). Appends one human-readable import note per override to
/// `notes` when given.
std::vector<grid::CarbonIntensityTrace> traces_for(
    const std::vector<grid::RegionSpec>& specs, const TraceOverrides& overrides,
    std::vector<std::string>* notes = nullptr);

/// Root seed of the per-sample workload seeds (mc::substream-derived) of
/// `hpcarbon run --uncertainty N` and `hpcarbon fleetsim --uncertainty N`.
inline constexpr std::uint64_t kUncertaintySeed = 909;

struct ScenarioOptions {
  /// Table 3 region codes (KN, TK, ESO, CISO, PJM, MISO, ERCOT).
  /// Empty selects all seven.
  std::vector<std::string> regions;
  /// Canonical policy names to ablate (see sched::registered_policies());
  /// empty selects every registered policy. "fcfs-local" is always run —
  /// it is the savings baseline.
  std::vector<std::string> policies;
  double horizon_days = 28;
  double arrival_rate_per_hour = 2.5;
  /// When > 0 (`hpcarbon run --uncertainty N`), each (region, policy) cell
  /// is additionally re-run over N workload-generator seeds and the rows
  /// gain savings% quantiles: the point estimate alone cannot say whether
  /// a policy's edge survives a different job mix.
  int uncertainty_samples = 0;
  /// Real grid-data overrides; every entry must name a selected region.
  TraceOverrides trace_csv;
};

struct ScenarioRow {
  std::string region;
  std::string policy;
  double median_ci_g_per_kwh = 0;  // home-region trace statistics
  double cov_percent = 0;
  double carbon_kg = 0;
  double savings_vs_fcfs_pct = 0;
  double mean_wait_hours = 0;
  double p95_wait_hours = 0;
  int remote_dispatches = 0;
  int jobs_completed = 0;
  /// savings% quantiles over workload seeds; populated only when
  /// ScenarioOptions::uncertainty_samples > 0.
  double savings_p05 = 0;
  double savings_p50 = 0;
  double savings_p95 = 0;
};

struct ScenarioReport {
  std::vector<ScenarioRow> rows;  // region-major, FcfsLocal first per region
  std::size_t jobs = 0;
  /// Workload seeds behind the savings% quantile columns (0: disabled).
  int uncertainty_samples = 0;
  /// Threads of the pool the cells ran on (ThreadPool::global()).
  std::size_t pool_threads = 0;
  /// One line per --trace-csv override ("ESO <- grid.csv: ...").
  std::vector<std::string> trace_notes;

  TextTable to_table() const;
  std::string to_csv() const;
};

/// All Table 3 region codes, in paper order.
std::vector<std::string> region_codes();

/// Short names of every registered policy, in registration order.
std::vector<std::string> policy_names();

/// Accepts the short name ("greedy") or the canonical name
/// ("greedy-lowest-ci") of any registered policy and returns the canonical
/// name. Throws hpcarbon::Error for unknown names.
std::string parse_policy(const std::string& name);

/// Run the full matrix. Throws hpcarbon::Error for unknown region codes.
ScenarioReport run_scenarios(const ScenarioOptions& opts);

}  // namespace hpcarbon::cli
