#include "cli/scenario_runner.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>

#include "core/csv.h"
#include "core/error.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "fleetsim/ablation.h"
#include "grid/analysis.h"
#include "grid/import.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"
#include "serve/cache.h"

namespace hpcarbon::cli {

std::pair<std::string, std::string> parse_trace_override(
    const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw Error("--trace-csv expects REGION=path, got '" + spec + "'");
  }
  return {spec.substr(0, eq), spec.substr(eq + 1)};
}

std::vector<grid::CarbonIntensityTrace> traces_for(
    const std::vector<grid::RegionSpec>& specs,
    const TraceOverrides& overrides, std::vector<std::string>* notes) {
  // Which spec each override drives. Unknown codes and duplicate codes
  // are typos, not no-ops: two overrides for one region would silently
  // shadow one file, so both are rejected up front.
  std::vector<std::size_t> override_of(specs.size(), overrides.size());
  for (std::size_t o = 0; o < overrides.size(); ++o) {
    bool applied = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].code != overrides[o].first) continue;
      if (override_of[i] != overrides.size()) {
        throw Error("duplicate --trace-csv override for '" +
                    overrides[o].first + "'");
      }
      override_of[i] = o;
      applied = true;
      break;
    }
    if (!applied) {
      std::string known;
      for (const auto& s : specs) known += (known.empty() ? "" : ", ") + s.code;
      throw Error("--trace-csv override for '" + overrides[o].first +
                  "' matches no selected region (selected: " + known + ")");
    }
  }

  // Every trace comes through the shared TraceStore: presets generate
  // once per process and --trace-csv files parse once, so `sweep` running
  // several sections (or `run --uncertainty N`) stops redoing identical
  // work. First-touch generation of distinct regions still overlaps on
  // the pool; warm lookups are a map hit.
  std::vector<grid::CarbonIntensityTrace> traces(specs.size());
  std::vector<std::string> import_notes(overrides.size());
  ThreadPool::global().parallel_for(0, specs.size(), [&](std::size_t i) {
    auto& store = serve::TraceStore::global();
    if (override_of[i] < overrides.size()) {
      const auto& [code, path] = overrides[override_of[i]];
      const auto stored = store.imported(code, path);
      traces[i] = stored->trace;
      import_notes[override_of[i]] = stored->note;
    } else {
      traces[i] = store.preset(specs[i].code)->trace;
    }
  });
  if (notes != nullptr) {
    for (auto& note : import_notes) notes->push_back(std::move(note));
  }
  return traces;
}

std::vector<std::string> region_codes() {
  return grid::codes_of(grid::all_regions());
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const auto& desc : sched::registered_policies()) {
    names.push_back(desc.short_name);
  }
  return names;
}

std::string parse_policy(const std::string& name) {
  if (const sched::PolicyDescriptor* desc = sched::find_policy(name)) {
    return desc->name;
  }
  std::string known;
  for (const auto& desc : sched::registered_policies()) {
    known += (known.empty() ? "" : ", ") + desc.short_name;
  }
  throw Error("unknown policy '" + name + "' (known: " + known + ")");
}

ScenarioReport run_scenarios(const ScenarioOptions& opts) {
  // Resolve the region selection up front so bad codes fail fast.
  std::vector<grid::RegionSpec> specs;
  if (opts.regions.empty()) {
    specs = grid::all_regions();
  } else {
    for (const auto& code : opts.regions) {
      specs.push_back(grid::require_region(code));
    }
  }

  // The baseline row comes first in each region's block. The policy set
  // comes from the policy table, so a row added there appears in the
  // matrix with no edits here.
  std::vector<std::string> policies = {fleetsim::kBaselinePolicy};
  std::vector<std::string> requested = opts.policies;
  if (requested.empty()) {
    for (const auto& desc : sched::registered_policies()) {
      requested.push_back(desc.name);
    }
  }
  for (const std::string& p : requested) {
    const std::string canonical = parse_policy(p);
    if (std::find(policies.begin(), policies.end(), canonical) ==
        policies.end()) {
      policies.push_back(canonical);
    }
  }

  // Stage 1 — one year-long trace per region, generated in parallel on the
  // global pool; --trace-csv overrides swap in imported real data at its
  // native cadence (the whole downstream matrix is resolution-agnostic).
  std::vector<std::string> trace_notes;
  const auto traces = traces_for(specs, opts.trace_csv, &trace_notes);
  const auto summaries = grid::summarize(traces);
  const auto prepared = sched::prepare_regions(traces);

  sched::WorkloadParams wp;
  wp.horizon_hours = 24.0 * opts.horizon_days;
  wp.arrival_rate_per_hour = opts.arrival_rate_per_hour;
  const auto jobs_for_seed = [&wp](std::uint64_t seed) {
    sched::WorkloadParams sample = wp;
    sample.seed = seed;
    return fleetsim::FleetJobs(
        sched::generate_jobs(sample),
        sched::generated_user_names(sample.user_count));
  };
  const fleetsim::FleetJobs jobs = jobs_for_seed(wp.seed);
  // Tick 0 is June 1, where Fig. 7's complementarity peaks.
  const HourOfYear epoch(month_start_hour(5));

  ScenarioReport report;
  report.trace_notes = std::move(trace_notes);
  report.jobs = jobs.size();
  report.uncertainty_samples = opts.uncertainty_samples;
  report.rows.resize(specs.size() * policies.size());

  AnnotatedMutex mu;
  std::set<std::thread::id> worker_ids;  // guarded by mu (function-local)

  // Stage 2 — one trio engine per region on the global pool, every policy
  // of the region scored on it. With --uncertainty, the region's savings
  // quantiles come from the same engine: sample k draws the same workload
  // for every region, so the quantiles isolate the policy effect, not
  // workload luck.
  ThreadPool::global().parallel_for(0, specs.size(), [&](std::size_t r) {
    // The home region first, the others in list order for the ranking.
    std::vector<sched::RegionPtr> regions = {prepared[r]};
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      if (i != r) regions.push_back(prepared[i]);
    }
    const fleetsim::FleetEngine engine =
        fleetsim::trio_engine(regions, /*capacity=*/16, epoch);
    const fleetsim::Ablation ablation =
        fleetsim::run_ablation(engine, jobs, policies);
    std::vector<mc::Distribution> savings;
    if (opts.uncertainty_samples > 0) {
      savings = fleetsim::savings_distributions(
          engine, policies,
          {opts.uncertainty_samples, kUncertaintySeed},
          jobs_for_seed);
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const sched::ScheduleMetrics& metrics = ablation.policies[p].metrics;
      ScenarioRow& row = report.rows[r * policies.size() + p];
      row.region = specs[r].code;
      row.policy = policies[p];
      row.median_ci_g_per_kwh = summaries[r].box.median;
      row.cov_percent = summaries[r].cov_percent;
      row.carbon_kg = metrics.total_carbon.to_kilograms();
      row.savings_vs_fcfs_pct = ablation.policies[p].savings_pct;
      row.mean_wait_hours = metrics.mean_wait_hours;
      row.p95_wait_hours = metrics.p95_wait_hours;
      row.remote_dispatches = metrics.remote_dispatches;
      row.jobs_completed = metrics.jobs_completed;
      if (!savings.empty()) {
        row.savings_p05 = savings[p].p05();
        row.savings_p50 = savings[p].p50();
        row.savings_p95 = savings[p].p95();
      }
    }
    MutexLock lock(mu);
    worker_ids.insert(std::this_thread::get_id());
  });
  report.worker_threads_used = worker_ids.size();
  return report;
}

TextTable ScenarioReport::to_table() const {
  std::vector<std::string> header = {
      "Region", "Policy", "Median CI", "CoV%", "Carbon (kg)",
      "vs FCFS", "Mean wait (h)", "p95 wait (h)", "Remote", "Jobs"};
  if (uncertainty_samples > 0) {
    header.insert(header.end(), {"sav p05", "sav p50", "sav p95"});
  }
  TextTable t(header);
  for (const auto& r : rows) {
    std::vector<std::string> row = {
        r.region, r.policy, TextTable::num(r.median_ci_g_per_kwh, 0),
        TextTable::num(r.cov_percent, 1), TextTable::num(r.carbon_kg, 1),
        TextTable::pct(r.savings_vs_fcfs_pct, 1),
        TextTable::num(r.mean_wait_hours, 2),
        TextTable::num(r.p95_wait_hours, 2),
        std::to_string(r.remote_dispatches),
        std::to_string(r.jobs_completed)};
    if (uncertainty_samples > 0) {
      row.insert(row.end(), {TextTable::pct(r.savings_p05, 1),
                             TextTable::pct(r.savings_p50, 1),
                             TextTable::pct(r.savings_p95, 1)});
    }
    t.add_row(std::move(row));
  }
  return t;
}

std::string ScenarioReport::to_csv() const {
  // Emission goes through csv_row so string cells (region/policy names)
  // stay RFC-4180 parseable even if a registered policy name ever carries
  // a comma or quote.
  std::vector<std::string> header = {
      "region", "policy", "median_ci_g_per_kwh", "cov_percent", "carbon_kg",
      "savings_vs_fcfs_pct", "mean_wait_hours", "p95_wait_hours",
      "remote_dispatches", "jobs_completed"};
  if (uncertainty_samples > 0) {
    header.insert(header.end(), {"savings_p05", "savings_p50", "savings_p95"});
  }
  std::string out = csv_row(header);
  for (const auto& r : rows) {
    std::vector<std::string> cells = {
        r.region, r.policy, csv_num(r.median_ci_g_per_kwh),
        csv_num(r.cov_percent), csv_num(r.carbon_kg),
        csv_num(r.savings_vs_fcfs_pct), csv_num(r.mean_wait_hours),
        csv_num(r.p95_wait_hours), std::to_string(r.remote_dispatches),
        std::to_string(r.jobs_completed)};
    if (uncertainty_samples > 0) {
      cells.insert(cells.end(), {csv_num(r.savings_p05),
                                 csv_num(r.savings_p50),
                                 csv_num(r.savings_p95)});
    }
    out += csv_row(cells);
  }
  return out;
}

}  // namespace hpcarbon::cli
