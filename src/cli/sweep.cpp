#include "cli/sweep.h"

#include <algorithm>
#include <climits>
#include <iostream>
#include <optional>

#include "cli/dispatch.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/options.h"
#include "embodied/catalog.h"
#include "fleetsim/ablation.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/node.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

namespace hpcarbon::cli {

namespace {

SweepRow make_row(std::string section, std::string quantity, std::string unit,
                  const mc::Distribution& d, double scale = 1.0,
                  std::string extra = "") {
  SweepRow r;
  r.section = std::move(section);
  r.quantity = std::move(quantity);
  r.unit = std::move(unit);
  r.samples = d.samples();
  r.extra = std::move(extra);
  if (!d.empty()) {
    r.mean = d.mean() * scale;
    r.stddev = d.stddev() * scale;
    r.p05 = d.quantile(0.05) * scale;
    r.p25 = d.quantile(0.25) * scale;
    r.p50 = d.quantile(0.50) * scale;
    r.p75 = d.quantile(0.75) * scale;
    r.p95 = d.quantile(0.95) * scale;
  }
  return r;
}

/// The subset of --trace-csv overrides naming one of `codes` (sections use
/// different region sets, and an override that matches no section at all is
/// rejected up front in run_sweep).
TraceOverrides overrides_matching(const SweepOptions& opts,
                                  const std::vector<std::string>& codes) {
  TraceOverrides out;
  for (const auto& ov : opts.trace_csv) {
    if (std::find(codes.begin(), codes.end(), ov.first) != codes.end()) {
      out.push_back(ov);
    }
  }
  return out;
}

lifecycle::UpgradeScenario upgrade_scenario() {
  lifecycle::UpgradeScenario s;
  s.old_node = hw::v100_node();
  s.new_node = hw::a100_node();
  s.suite = workload::Suite::kNlp;
  s.intensity = CarbonIntensity::grams_per_kwh(200);
  s.usage = lifecycle::UsageProfile::medium();
  s.pue = op::PueModel(1.2);
  return s;
}

void sweep_embodied(const SweepOptions& opts, SweepReport& report) {
  const mc::SamplePlan plan{opts.samples, opts.seed, nullptr};
  for (auto id : embodied::table1_parts()) {
    const mc::Distribution d =
        embodied::is_processor(id)
            ? embodied::propagate_distribution(embodied::processor(id),
                                               opts.bands.embodied, plan)
            : embodied::propagate_distribution(embodied::memory(id),
                                               opts.bands.embodied, plan);
    report.rows.push_back(
        make_row("embodied", embodied::display_name(id), "kg", d, 1e-3));
  }
}

void sweep_lifetime(const SweepOptions& opts, SweepReport& report) {
  const mc::SamplePlan plan{opts.samples, opts.seed, nullptr};
  const auto traces = traces_for({grid::require_region(opts.region)},
                                 overrides_matching(opts, {opts.region}));
  const HourOfYear start(month_start_hour(5));  // June 1, as in `run`
  for (const auto& node : {hw::v100_node(), hw::a100_node()}) {
    const auto d = lifecycle::node_lifetime_footprint_distribution(
        node, workload::Suite::kNlp, 0.40, opts.lifetime_years, traces[0],
        start, op::PueModel(1.2), opts.bands, plan);
    const std::string label = node.name + " node " +
                              TextTable::num(opts.lifetime_years, 0) + "y " +
                              opts.region;
    report.rows.push_back(
        make_row("lifetime", label + " embodied", "t", d.embodied, 1e-6));
    report.rows.push_back(make_row("lifetime", label + " operational", "t",
                                   d.operational, 1e-6));
    report.rows.push_back(
        make_row("lifetime", label + " total", "t", d.total, 1e-6));
  }
}

void sweep_breakeven(const SweepOptions& opts, SweepReport& report) {
  const mc::SamplePlan plan{opts.samples, opts.seed, nullptr};
  const auto scenario = upgrade_scenario();
  for (double decline : {0.00, 0.03, 0.07}) {
    const lifecycle::GridTrajectory traj(scenario.intensity, decline);
    const auto bd = lifecycle::breakeven_distribution(
        scenario, traj, opts.breakeven_horizon_years, opts.bands, plan);
    const std::string label = "V100->A100 break-even at decline " +
                              TextTable::num(100.0 * decline, 0) + "%/y";
    const std::string extra =
        "P(payback<=" + TextTable::num(opts.breakeven_horizon_years, 0) +
        "y)=" + TextTable::num(bd.payback_probability, 3);
    report.rows.push_back(
        make_row("breakeven", label, "years", bd.years, 1.0, extra));
  }
  const lifecycle::GridTrajectory traj(scenario.intensity, 0.03);
  report.rows.push_back(make_row(
      "breakeven", "V100->A100 savings at 4y at decline 3%/y", "%",
      lifecycle::savings_distribution(scenario, traj, 4.0, opts.bands, plan)));
}

void sweep_fleet(const SweepOptions& opts, SweepReport& report) {
  const mc::SamplePlan plan{opts.samples, opts.seed, nullptr};
  const auto scenario = upgrade_scenario();
  const lifecycle::GridTrajectory traj(scenario.intensity, 0.03);
  const double horizon = 6.0;
  const auto plans = {
      std::make_pair(std::string("all-at-once"),
                     lifecycle::all_at_once(scenario, 100)),
      std::make_pair(std::string("phased over 4y"),
                     lifecycle::phased(scenario, 100, 4)),
  };
  for (const auto& [name, fleet] : plans) {
    report.rows.push_back(make_row(
        "fleet",
        "100-node " + name + " savings at " + TextTable::num(horizon, 0) + "y",
        "%",
        lifecycle::fleet_savings_distribution(fleet, traj, horizon, opts.bands,
                                              plan)));
  }
}

void sweep_sched(const SweepOptions& opts, SweepReport& report) {
  // The bench_sched_ablation setting: dirtiest Fig. 7 region (ERCOT) is
  // home, ESO and CISO are the remote options, four June weeks of jobs.
  // The remote sites are ranked by median like every trio's, so an
  // imported trace can reorder them.
  const auto traces = traces_for(
      grid::fig7_regions(),
      overrides_matching(opts, grid::codes_of(grid::fig7_regions())));
  const auto regions = sched::prepare_regions(traces);
  const fleetsim::FleetEngine fleet =
      fleetsim::trio_engine({regions[2], regions[0], regions[1]}, 16,
                            HourOfYear(month_start_hour(5)));
  std::vector<std::string> policies = {fleetsim::kBaselinePolicy};
  for (const auto& desc : sched::registered_policies()) {
    if (desc.name != fleetsim::kBaselinePolicy) policies.push_back(desc.name);
  }

  // One joint draw per workload seed: every policy scores the same jobs,
  // so the per-policy savings distributions isolate policy choice from
  // workload luck.
  const auto dists = fleetsim::savings_distributions(
      fleet, policies, {opts.sched_samples, opts.seed},
      [](std::uint64_t seed) {
        sched::WorkloadParams wp;
        wp.horizon_hours = 24.0 * 28;
        wp.arrival_rate_per_hour = 2.5;
        wp.seed = seed;
        return fleetsim::FleetJobs(
            sched::generate_jobs(wp),
            sched::generated_user_names(wp.user_count));
      });
  for (std::size_t p = 0; p < policies.size(); ++p) {
    report.rows.push_back(make_row("sched", policies[p] + " savings vs fcfs",
                                   "%", dists[p], 1.0,
                                   p == 0 ? "baseline" : ""));
  }
}

}  // namespace

std::vector<std::string> sweep_sections() {
  return {"embodied", "lifetime", "breakeven", "fleet", "sched"};
}

SweepReport run_sweep(const SweepOptions& opts) {
  HPC_REQUIRE(opts.samples > 0, "sweep needs at least one sample");
  HPC_REQUIRE(opts.sched_samples > 0,
              "sweep needs at least one scheduler sample");
  lifecycle::validate(opts.bands);

  std::vector<std::string> sections;
  for (const auto& s :
       opts.sections.empty() ? sweep_sections() : opts.sections) {
    // Programmatic callers may pass repeats; run each section once.
    if (std::find(sections.begin(), sections.end(), s) == sections.end()) {
      sections.push_back(s);
    }
  }
  const auto known = sweep_sections();
  for (const auto& s : sections) {
    if (std::find(known.begin(), known.end(), s) == known.end()) {
      std::string list;
      for (const auto& k : known) list += (list.empty() ? "" : ", ") + k;
      throw Error("unknown sweep section '" + s + "' (known: " + list + ")");
    }
  }

  // Every --trace-csv override must land somewhere in the selected
  // sections: the lifetime section prices opts.region, sched the Fig. 7
  // trio. Anything else is a typo, not a no-op.
  for (const auto& ov : opts.trace_csv) {
    std::vector<std::string> used;
    if (std::find(sections.begin(), sections.end(), "lifetime") !=
        sections.end()) {
      used.push_back(opts.region);
    }
    if (std::find(sections.begin(), sections.end(), "sched") !=
        sections.end()) {
      const auto fig7 = grid::codes_of(grid::fig7_regions());
      used.insert(used.end(), fig7.begin(), fig7.end());
    }
    if (std::find(used.begin(), used.end(), ov.first) == used.end()) {
      throw Error("--trace-csv override for '" + ov.first +
                  "' matches no region used by the selected sections");
    }
  }

  SweepReport report;
  for (const auto& s : sections) {
    if (s == "embodied") sweep_embodied(opts, report);
    if (s == "lifetime") sweep_lifetime(opts, report);
    if (s == "breakeven") sweep_breakeven(opts, report);
    if (s == "fleet") sweep_fleet(opts, report);
    if (s == "sched") sweep_sched(opts, report);
  }
  return report;
}

TextTable SweepReport::section_table(const std::string& section) const {
  TextTable t({"Quantity", "Unit", "Samples", "Mean", "SD", "p05", "p25",
               "p50", "p75", "p95", "Notes"});
  for (const auto& r : rows) {
    if (r.section != section) continue;
    t.add_row({r.quantity, r.unit, std::to_string(r.samples),
               TextTable::num(r.mean, 2), TextTable::num(r.stddev, 2),
               TextTable::num(r.p05, 2), TextTable::num(r.p25, 2),
               TextTable::num(r.p50, 2), TextTable::num(r.p75, 2),
               TextTable::num(r.p95, 2), r.extra.empty() ? "-" : r.extra});
  }
  return t;
}

std::string SweepReport::to_csv() const {
  // csv_row escapes the string cells: break-even `extra` annotations carry
  // no commas today, but quantity labels are free-form and must stay
  // RFC-4180 parseable whatever they grow to contain.
  std::string out =
      csv_row({"section", "quantity", "unit", "samples", "mean", "stddev",
               "p05", "p25", "p50", "p75", "p95", "extra"});
  for (const auto& r : rows) {
    out += csv_row({r.section, r.quantity, r.unit, std::to_string(r.samples),
                    csv_num(r.mean), csv_num(r.stddev), csv_num(r.p05),
                    csv_num(r.p25), csv_num(r.p50), csv_num(r.p75),
                    csv_num(r.p95), r.extra});
  }
  return out;
}

int cmd_sweep(int argc, char** argv, std::ostream& out, std::ostream&) {
  SweepOptions opts;
  std::string csv_path;
  std::size_t threads = 0;
  bool smoke = false;
  std::optional<int> samples, sched_samples;
  options::Table flags("sweep", "[flags]",
                       "Monte-Carlo uncertainty sweep: quantile tables per "
                       "section");
  flags
      .integer("--samples", "N", &samples, 1, INT_MAX,
               "MC draws per quantity (default 4096)")
      .integer("--sched-samples", "N", &sched_samples, 1, INT_MAX,
               "workload seeds for the scheduler section (default 16)")
      .flag("--smoke", &smoke,
            "CI sample counts: 256 and 4 unless set by the flags above")
      .integer("--seed", "S", &opts.seed, 0, options::kMaxExact,
               "root seed (default 42)")
      .list(
          "--section", "a,b,...",
          [&opts](const std::string& name) {
            // Repeats would duplicate both the computation and the rows.
            if (std::find(opts.sections.begin(), opts.sections.end(), name) ==
                opts.sections.end()) {
              opts.sections.push_back(name);
            }
          },
          "embodied, lifetime, breakeven, fleet, sched (default: all)")
      .text("--region", "CODE", &opts.region,
            "CI-trace region for the lifetime section (default CISO)")
      .number("--years", "Y", &opts.lifetime_years, {},
              "lifetime-section horizon (default 5)")
      .number("--horizon", "Y", &opts.breakeven_horizon_years, {},
              "break-even payback horizon (default 15)")
      .number("--band-fab", "X", &opts.bands.embodied.fab_per_area, {},
              "fab energy/gas/material per-area band (default 0.20)")
      .number("--band-yield", "X", &opts.bands.embodied.yield, {},
              "absolute yield band (default 0.05)")
      .number("--band-epc", "X", &opts.bands.embodied.epc, {},
              "energy-per-capacity band (default 0.15)")
      .number("--band-packaging", "X", &opts.bands.embodied.packaging, {},
              "per-IC packaging band (default 0.25)")
      .number("--band-grid", "X", &opts.bands.grid_ci, {},
              "grid carbon-intensity band (default 0.10)");
  add_trace_csv_flag(flags, &opts.trace_csv);
  add_csv_flag(flags, &csv_path);
  add_threads_flag(flags, &threads);
  if (!flags.parse(argc, argv, out)) return 0;
  opts.samples = samples.value_or(smoke ? 256 : 4096);
  opts.sched_samples = sched_samples.value_or(smoke ? 4 : 16);
  size_pool(threads);

  const SweepReport report = run_sweep(opts);
  const auto selected = opts.sections.empty() ? sweep_sections()
                                              : opts.sections;
  std::cout << banner("uncertainty sweep: " +
                      std::to_string(opts.samples) + " samples, seed " +
                      std::to_string(opts.seed));
  for (const auto& section : selected) {
    std::cout << banner("sweep: " + section);
    std::cout << report.section_table(section).to_string();
  }
  if (!csv_path.empty()) {
    write_file(csv_path, report.to_csv());
    std::cout << "\nquantile CSV written to " << csv_path << '\n';
  }
  return 0;
}

}  // namespace hpcarbon::cli
